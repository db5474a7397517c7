"""Versioned save/load of encoders, layers and model bundles.

Snapshots are JSON documents with explicit field names. Floats are written
with Python's shortest round-trip representation, so permanences, duty
cycles and rng state survive a save/load cycle bit-exactly and a resumed run
reproduces an uninterrupted one.
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

FORMAT_VERSION = 1


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
    # Subclass check order matters: PoolingLayer is a PatternLayer.
    registry = _registry()
    for kind in ("pooling_layer",):
        if isinstance(model, registry[kind]):
            return kind
    for kind, cls in registry.items():
        if type(model) is cls:
            return kind
    raise SnapshotError(f"cannot snapshot object of type {type(model).__name__}")


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
    if version != FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path}: unknown format_version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    registry = _registry()
    kind = document.get("kind")
    if kind not in registry:
        raise SnapshotFormatError(f"snapshot {path}: unknown kind {kind!r}")
    try:
        return registry[kind].from_state(document["state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotValidationError(f"snapshot {path}: invalid state: {exc}") from exc
