"""Versioned save/load of encoders, layers and model bundles.

A format-3 snapshot is one uncompressed zip written by ``np.savez``. Its
``header`` member holds ``format_version``, ``kind`` and the model's state
tree as UTF-8 JSON; every array in the tree is a ``.npy`` member of its own,
in the dtype the model holds, named by its path in the tree (say
``state.tm.pattern.permanences``), and the header refers to it as
``{"$array": name}``. Arrays keep their bits and JSON floats are written with
Python's shortest round-trip representation, so permanences and rng state
survive a save/load cycle bit-exactly and a resumed run reproduces an
uninterrupted one. Format-1 and format-2 snapshots, which were JSON
documents, still load; format 1 through ``_upgrade_v1``.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotValidationError",
    "save",
    "load",
]

FORMAT_VERSION = 3


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


# Format 3 is a zip written by ``np.savez``; formats 1 and 2 are JSON text.
_ZIP_MAGIC = b"PK\x03\x04"
_HEADER = "header"
_REF = "$array"  # {"$array": member} stands for an array leaf in the header


def _detach_arrays(value, arrays: dict, name: str):
    """``value`` with every array leaf moved into ``arrays`` under its path
    in the state and replaced by a reference to that member."""
    if isinstance(value, np.ndarray):
        arrays[name] = value
        return {_REF: name}
    if isinstance(value, dict):
        return {key: _detach_arrays(item, arrays, f"{name}.{key}") for key, item in value.items()}
    return value


def _array_hook(members):
    """A ``json.loads`` object hook that replaces each reference by its member."""

    def hook(obj: dict):
        if obj.keys() != {_REF}:
            return obj
        name = obj[_REF]
        if not isinstance(name, str) or name not in members:
            raise SnapshotFormatError(f"reference to missing array member {name!r}")
        if not isinstance(members[name], np.ndarray):
            raise SnapshotFormatError(f"member {name!r} is not an .npy array")
        return members[name]

    return hook


def save(model, path: str | Path) -> None:
    """Write a self-describing format-3 snapshot of the model to ``path``.

    The snapshot is written to a temporary file next to ``path`` and moved
    over it only once complete, so a failed save leaves any previous
    snapshot at ``path`` as it was.
    """
    arrays: dict[str, np.ndarray] = {}
    header = {
        "format_version": FORMAT_VERSION,
        "kind": _kind_of(model),
        "state": _detach_arrays(model.to_state(), arrays, "state"),
    }
    encoded = np.frombuffer(json.dumps(header, separators=(",", ":")).encode(), np.uint8)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            # Given an open file, np.savez writes there and adds no ".npz".
            np.savez(fh, allow_pickle=False, **{_HEADER: encoded}, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _read_zip(fh) -> dict:
    """The format-3 document in ``fh``, with its arrays in place."""
    try:
        with np.load(fh, allow_pickle=False) as npz:
            if _HEADER not in npz.files:
                raise SnapshotFormatError(f"no {_HEADER!r} member")
            members = {name: npz[name] for name in npz.files}
    # ValueError covers an object array, which is refused, never unpickled.
    # zipfile raises NotImplementedError for an unknown compression method and
    # RuntimeError for an encrypted member. A damaged .npy header can fail in
    # numpy's tokenizer, or declare a shape too large to allocate.
    except (
        zipfile.BadZipFile, OSError, EOFError, ValueError, NotImplementedError, RuntimeError,
        tokenize.TokenError, MemoryError,
    ) as exc:
        raise SnapshotFormatError(f"unreadable zip: {exc}") from exc
    header = members[_HEADER]
    if not (isinstance(header, np.ndarray) and header.dtype == np.uint8 and header.ndim == 1):
        raise SnapshotFormatError(f"{_HEADER!r} member is not a uint8 vector")
    try:
        document = json.loads(header.tobytes().decode(), object_hook=_array_hook(members))
    except ValueError as exc:
        raise SnapshotFormatError(f"{_HEADER!r} member is not UTF-8 JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SnapshotFormatError(f"{_HEADER!r} member is not a JSON object")
    return document


def load(path: str | Path):
    """Rebuild a model from a snapshot; subsequent outputs are bit-identical.

    The format is told by the file's first bytes: a zip is format 3, anything
    else is read as a format-1 or format-2 JSON document.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            is_zip = fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC
            fh.seek(0)
            if is_zip:
                document, versions = _read_zip(fh), (FORMAT_VERSION,)
            else:
                document, versions = json.loads(fh.read()), (1, 2)
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"snapshot {path}: {exc}") from exc
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(
            f"snapshot {path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"snapshot {path}: neither a zip nor JSON text: {exc}") from exc
    if not isinstance(document, dict) or "format_version" not in document:
        raise SnapshotFormatError(f"snapshot {path}: missing format_version")
    version = document["format_version"]
    if version not in versions:
        raise SnapshotFormatError(
            f"snapshot {path}: unknown format_version {version!r} for a "
            f"{'zip' if is_zip else 'JSON'} snapshot (format 3 is a zip, formats 1 "
            "and 2 are JSON)"
        )
    registry = _registry()
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise SnapshotFormatError(f"snapshot {path}: unknown kind {kind!r}")
    try:
        if version == 1:
            _upgrade_v1(kind, document["state"])
        return registry[kind].from_state(document["state"])
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"snapshot {path}: format 1: {exc}") from exc
    # OverflowError: an integer too large for its array or rng state field;
    # MemoryError: parameters declaring a layer too large to allocate.
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise SnapshotValidationError(f"snapshot {path}: invalid state: {exc}") from exc
