"""Versioned save/load of encoders, layers and model bundles.

A format-4 snapshot is one uncompressed zip written by ``np.savez``. Its
``header`` member holds ``format_version``, ``kind`` and the model's state
tree as UTF-8 JSON; every array in the tree is a ``.npy`` member of its own,
named by its path in the tree (say ``state.tm.pattern.permanences``), and the
header refers to it as ``{"$array": name}``. A transition layer's distal
segments are six such members under ``state.tm.distal``: ``cells``,
``lengths`` and ``sources`` (int32), ``permanences`` (float64),
``activation_threshold`` (int64) and ``spike_size`` (float64), in the order
of ``TmLayer.to_state``'s ``segments`` list. A full-potential layer's
``sources`` is its one ``arange(input_size)`` row; every other array keeps
the dtype the model holds. Arrays keep their bits and JSON floats are
written with Python's shortest round-trip representation, so permanences
and rng state survive a save/load cycle bit-exactly and a resumed run
reproduces an uninterrupted one.

Loading reads each referenced member once and hands it to the one place
that references it: a header that references a member twice is refused. A
layer keeps a proximal ``sources`` or ``permanences`` member that is
C-ordered and of its dtype as its own array, and copies any other; a state
dict that a caller passes to ``from_state`` is always copied. A key that
the part's ``to_state`` does not write is refused at every level.

Format 3, the same zip with the distal segments as the JSON ``segments``
list in the header, still loads. Formats 1 and 2 were JSON documents; they
are refused, and minicolumn 0.1.0 still reads them and saves them as format 4.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from itertools import chain
from pathlib import Path

import numpy as np

from .pattern import _SnapshotArray
from .sdr import _check_keys
from .transition import _DISTAL_FIELDS

__all__ = [
    "FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotValidationError",
    "save",
    "load",
]

FORMAT_VERSION = 4


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


# Formats 3 and 4 are zips written by ``np.savez``.
_ZIP_MAGIC = b"PK\x03\x04"
_VERSIONS = (3, FORMAT_VERSION)
_HEADER = "header"
_REF = "$array"  # {"$array": member} stands for an array leaf in the header
# Why a zip or one of its members cannot be read. ValueError covers an object
# array, which is refused, never unpickled. zipfile raises NotImplementedError
# for an unknown compression method and RuntimeError for an encrypted member.
# A damaged .npy header can fail in numpy's tokenizer, or declare a shape too
# large to allocate.
_READ_ERRORS = (
    zipfile.BadZipFile, OSError, EOFError, ValueError, NotImplementedError, RuntimeError,
    tokenize.TokenError, MemoryError,
)


def _distal_arrays(segments) -> dict:
    """The ``segments`` list of a transition layer's state as the flat
    arrays of its ``distal`` entry, named by ``_DISTAL_FIELDS``."""
    segs = [seg for _, cell_segs in segments for seg in cell_segs]
    lengths = np.array([len(seg["sources"]) for seg in segs], dtype=np.int32)
    total = int(lengths.sum())
    sources = chain.from_iterable(seg["sources"] for seg in segs)
    permanences = chain.from_iterable(seg["permanences"] for seg in segs)
    arrays = (
        np.array([cell for cell, cell_segs in segments for _ in cell_segs], dtype=np.int32),
        lengths,
        np.fromiter(sources, dtype=np.int32, count=total),
        np.fromiter(permanences, dtype=np.float64, count=total),
        np.array([seg["activation_threshold"] for seg in segs], dtype=np.int64),
        np.array([seg["spike_size"] for seg in segs], dtype=np.float64),
    )
    return dict(zip(_DISTAL_FIELDS, arrays))


def _as_format4(kind: str, state: dict) -> dict:
    """``state`` as format 4 writes it: a transition layer's ``segments``
    list, in a ``tm_layer`` or a ``sequence_model``, becomes its ``distal``
    arrays."""
    if kind == "sequence_model":
        return dict(state, tm=_as_format4("tm_layer", state["tm"]))
    if kind == "tm_layer":
        state = dict(state)
        state["distal"] = _distal_arrays(state.pop("segments"))
    return state


def _detach_arrays(value, arrays: dict, name: str):
    """``value`` with every array leaf moved into ``arrays`` under its path
    in the state and replaced by a reference to that member."""
    if isinstance(value, np.ndarray):
        arrays[name] = value
        return {_REF: name}
    if isinstance(value, dict):
        return {key: _detach_arrays(item, arrays, f"{name}.{key}") for key, item in value.items()}
    return value


def save(model, path: str | Path) -> None:
    """Write a self-describing format-4 snapshot of the model to ``path``.

    The snapshot is written to a temporary file next to ``path`` and moved
    over it only once complete, so a failed save leaves any previous
    snapshot at ``path`` as it was.
    """
    arrays: dict[str, np.ndarray] = {}
    kind = _kind_of(model)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "state": _detach_arrays(_as_format4(kind, model.to_state()), arrays, "state"),
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
    """The format-3 or format-4 document in ``fh``, with its arrays in place.

    The header is parsed first, and each member it references is read once,
    as the parse reaches it, into a ``_SnapshotArray`` that a layer may hold
    in place of a copy. A member that nothing references, or that the header
    references twice, is refused: no two places get one array.
    """
    try:
        with np.load(fh, allow_pickle=False) as npz:
            if _HEADER not in npz.files:
                raise SnapshotFormatError(f"no {_HEADER!r} member")
            header = npz[_HEADER]
            if not (isinstance(header, np.ndarray) and header.dtype == np.uint8 and header.ndim == 1):
                raise SnapshotFormatError(f"{_HEADER!r} member is not a uint8 vector")
            referenced: set[str] = set()

            def resolve(obj: dict):
                """A ``json.loads`` object hook that replaces each reference by its member."""
                if obj.keys() != {_REF}:
                    return obj
                name = obj[_REF]
                if not isinstance(name, str) or name not in npz.files:
                    raise SnapshotFormatError(f"reference to missing array member {name!r}")
                if name in referenced:
                    raise SnapshotFormatError(f"member {name!r} is referenced twice")
                referenced.add(name)
                try:
                    array = npz[name]
                except _READ_ERRORS as exc:
                    raise SnapshotFormatError(f"unreadable member {name!r}: {exc}") from exc
                if not isinstance(array, np.ndarray):
                    raise SnapshotFormatError(f"member {name!r} is not an .npy array")
                return array.view(_SnapshotArray)

            try:
                document = json.loads(header.tobytes().decode(), object_hook=resolve)
            except ValueError as exc:
                raise SnapshotFormatError(f"{_HEADER!r} member is not UTF-8 JSON: {exc}") from exc
            if not isinstance(document, dict):
                raise SnapshotFormatError(f"{_HEADER!r} member is not a JSON object")
            unreferenced = [name for name in npz.files if name != _HEADER and name not in referenced]
            if unreferenced:
                raise SnapshotFormatError(
                    f"member {unreferenced[0]!r} is not referenced by the {_HEADER!r}"
                )
    except _READ_ERRORS as exc:
        raise SnapshotFormatError(f"unreadable zip: {exc}") from exc
    return document


def load(path: str | Path):
    """Rebuild a model from a format-3 or format-4 snapshot; subsequent
    outputs are bit-identical.

    The container is told by the file's first bytes, never by its suffix: a
    file that is not a zip is refused, as is a ``format_version`` that is not
    the integer 3 or 4.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise SnapshotFormatError(
                    "not a zip snapshot; JSON snapshots (formats 1 and 2) are read by "
                    "minicolumn 0.1.0, which saves them as format 4"
                )
            fh.seek(0)
            document = _read_zip(fh)
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"snapshot {path}: {exc}") from exc
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if "format_version" not in document:
        raise SnapshotFormatError(f"snapshot {path}: missing format_version")
    version = document["format_version"]
    # type, not isinstance: True == 1 and 4.0 == 4, but neither names a format
    if type(version) is not int or version not in _VERSIONS:
        raise SnapshotFormatError(
            f"snapshot {path}: unknown format_version {version!r} (formats 3 and 4 load)"
        )
    registry = _registry()
    kind = document.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise SnapshotFormatError(f"snapshot {path}: unknown kind {kind!r}")
    try:
        _check_keys("snapshot", document, ("format_version", "kind", "state"))
        return registry[kind].from_state(document["state"])
    # OverflowError: an integer too large for its array or rng state field;
    # MemoryError: parameters declaring a layer too large to allocate.
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise SnapshotValidationError(f"snapshot {path}: invalid state: {exc}") from exc
