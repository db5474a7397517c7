"""Versioned save/load of encoders, layers and model bundles.

Snapshots are JSON documents with explicit field names. Floats are written
with Python's shortest round-trip representation, so permanences and rng
state survive a save/load cycle bit-exactly and a resumed run reproduces an
uninterrupted one. Format-1 snapshots are read through ``_upgrade_v1``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotValidationError",
    "save",
    "load",
]

FORMAT_VERSION = 2


class SnapshotError(Exception):
    """Base class for snapshot problems."""


class SnapshotFormatError(SnapshotError):
    """The file's format version or kind is not understood."""


class SnapshotValidationError(SnapshotError):
    """The file parsed but its contents violate a model invariant."""


def _registry() -> dict:
    from .encoders import CategoryEncoder, ScalarEncoder
    from .experiments import SequenceModel
    from .pattern import PatternLayer
    from .pooling import PoolingLayer
    from .transition import TmLayer

    return {
        "pattern_layer": PatternLayer,
        "pooling_layer": PoolingLayer,
        "tm_layer": TmLayer,
        "category_encoder": CategoryEncoder,
        "scalar_encoder": ScalarEncoder,
        "sequence_model": SequenceModel,
    }


def _kind_of(model) -> str:
    for kind, cls in _registry().items():
        if type(model) is cls:
            return kind
    raise SnapshotError(f"cannot snapshot object of type {type(model).__name__}")


def _upgrade_v1(kind: str, state: dict) -> None:
    """Turn a format-1 ``state`` of ``kind`` into format 2, in place.

    Format 2 drops the pattern layers' homeostasis (``boost_strength``,
    ``duty_period``, ``boost``, ``active_duty``, ``overlap_duty``), which no
    step ever updated, and the transition layer's ``column_score_mode``. A
    state in which they would change an output is refused: a ``boost`` entry
    other than 1.0, or any ``column_score_mode`` but ``"max"``.
    """
    if kind == "sequence_model":
        _upgrade_v1("tm_layer", state["tm"])
        if "pool" in state:
            _upgrade_v1("pooling_layer", state["pool"])
    elif kind == "tm_layer":
        params = state["params"]
        mode = params.pop("column_score_mode")
        if mode != "max":
            raise SnapshotFormatError(
                f"column_score_mode {mode!r} is no longer supported; columns score "
                "their best cell ('max')"
            )
        del params["boost_strength"], params["duty_period"]
        _upgrade_v1("pattern_layer", state["pattern"])
    elif kind in ("pattern_layer", "pooling_layer"):
        del state["params"]["boost_strength"], state["params"]["duty_period"]
        if any(value != 1.0 for value in state.pop("boost")):
            raise SnapshotFormatError("boost other than 1.0 is no longer supported")
        del state["active_duty"], state["overlap_duty"]


_CONTAINERS = (dict, list, tuple)


def _write_json(fh, value) -> None:
    """Write ``value`` exactly as ``json.dump(value, fh)`` would.

    ``json.dump`` never uses the C encoder, so the containers are written
    here and every leaf and every list of leaves (one matrix row) goes to
    ``json.dumps``. A dict with a key that is not a string goes to
    ``json.dumps`` whole, which converts the key the way ``json.dump`` does.
    """
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(", " if i else "")
            fh.write(json.dumps(key))
            fh.write(": ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], _CONTAINERS):
        fh.write("[")
        for i, item in enumerate(value):
            fh.write(", " if i else "")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(value))


def save(model, path: str | Path) -> None:
    """Write a self-describing snapshot of the model to ``path``.

    The snapshot is streamed to a temporary file next to ``path`` and moved
    over it only once complete, so a failed save leaves any previous
    snapshot at ``path`` as it was.
    """
    document = {
        "format_version": FORMAT_VERSION,
        "kind": _kind_of(model),
        "state": model.to_state(),
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            _write_json(fh, document)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def load(path: str | Path):
    """Rebuild a model from a snapshot; subsequent outputs are bit-identical."""
    path = Path(path)
    try:
        with path.open("r") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot {path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(document, dict) or "format_version" not in document:
        raise SnapshotFormatError(f"snapshot {path}: missing format_version")
    version = document["format_version"]
    if version not in (1, FORMAT_VERSION):
        raise SnapshotFormatError(
            f"snapshot {path}: unknown format_version {version!r} "
            f"(this build reads versions 1 and {FORMAT_VERSION})"
        )
    registry = _registry()
    kind = document.get("kind")
    if kind not in registry:
        raise SnapshotFormatError(f"snapshot {path}: unknown kind {kind!r}")
    try:
        if version == 1:
            _upgrade_v1(kind, document["state"])
        return registry[kind].from_state(document["state"])
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"snapshot {path}: format 1: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotValidationError(f"snapshot {path}: invalid state: {exc}") from exc
