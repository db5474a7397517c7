"""Sparse binary vectors stored as one read-only array of active indices.

Layer activity runs near 2% density, so only the active indices are kept:
``ids``, an ascending int64 array that kernels read directly. An ``Sdr`` holds
its width and that array, and nothing is filled in after construction, so
instances are safe to share across threads. The tuple ``active`` and the
frozenset ``active_set`` are built on each read.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

import numpy as np

__all__ = ["DimensionError", "Sdr", "overlap", "union", "sparsity", "flip_noise"]


class DimensionError(ValueError):
    """Two bit vectors (or a vector and its consumer) disagree on width."""


def _as_ids(active, universe_size: int, what: str) -> np.ndarray:
    """``active``, an array or iterable of ids, as a flat int64 array in the
    order given (a plain int64 array itself, any subclass as a plain array).
    Raises ``ValueError``, its message led by ``what``, unless every id is an
    integer in ``[0, universe_size)``."""
    idx = active if isinstance(active, np.ndarray) else np.array(list(active))
    if idx.ndim != 1:
        raise ValueError(f"{what} must be a flat list of ids, got shape {idx.shape}")
    if idx.size:
        if idx.dtype.kind not in "iu":
            raise ValueError(f"{what} must be integer ids, got dtype {idx.dtype}")
        low, high = idx.min(), idx.max()
        if not (low >= 0 and high < universe_size):
            raise ValueError(f"{what} must lie in [0, {universe_size}), got [{low}, {high}]")
    return np.asarray(idx, dtype=np.int64)


def _refuse_booleans(params: dict):
    """The items of ``params``, once no value is a boolean, which no number takes."""
    for name, value in params.items():
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must not be a boolean, got {value!r}")
    return params.items()


def _check_finite(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that is a boolean,
    infinite, NaN or an integer too large for a float."""
    for name, value in _refuse_booleans(params):
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite, got {value}")


def _check_integral(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that fails ``_check_finite``
    or is not a whole number. Integral floats such as ``32.0`` pass."""
    _check_finite(**params)
    for name, value in params.items():
        if value != int(value):
            raise ValueError(f"{name} must be an integer, got {value}")


def _check_unit(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that is a boolean or outside [0, 1]."""
    for name, value in _refuse_booleans(params):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_keys(what: str, state, keys) -> None:
    """Raise ``ValueError`` unless ``state`` is a dict whose keys are exactly
    ``keys``, the ones its ``to_state`` writes. The message names the first
    stray key, or else the first missing one."""
    if not isinstance(state, dict):
        raise ValueError(f"{what} must be a dict, got {type(state).__name__}")
    stray = [key for key in state if key not in keys]
    if stray:
        raise ValueError(f"{what} has unknown key {stray[0]!r}")
    missing = [key for key in keys if key not in state]
    if missing:
        raise ValueError(f"{what} lacks key {missing[0]!r}")


def _rng_from_state(state) -> np.random.Generator:
    """A generator restored from ``state``, a ``bit_generator.state`` as
    ``to_state`` writes it, once its keys and its inner ``state``'s are a
    fresh generator's."""
    rng = np.random.default_rng(0)
    fresh = rng.bit_generator.state
    _check_keys("rng", state, fresh)
    _check_keys("rng state", state["state"], fresh["state"])
    rng.bit_generator.state = state
    return rng


def _as_array(name: str, value) -> np.ndarray:
    """``np.asarray`` whose errors (ragged rows) name the field."""
    try:
        return np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


class Sdr:
    """Immutable sparse binary vector over ``universe_size`` bit positions.

    ``ids`` holds the active indices: a read-only int64 array, ascending,
    without duplicates, each in ``[0, universe_size)``.
    """

    __slots__ = ("universe_size", "ids")

    def __init__(self, universe_size: int, active: Iterable[int] = ()):
        try:
            _check_integral(universe_size=universe_size)
            width = int(universe_size)
        except (TypeError, ValueError):
            width = 0
        if width <= 0:
            raise ValueError(f"universe_size must be a positive integer, got {universe_size!r}")
        ids = np.sort(_as_ids(active, width, "active indices"))
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate active index {repeated[0]}")
        ids.flags.writeable = False
        self.universe_size = width
        self.ids = ids

    @classmethod
    def _from_sorted(cls, universe_size: int, ids: np.ndarray) -> "Sdr":
        """An ``Sdr`` over integer ``ids`` known to be ascending, distinct and
        in ``[0, universe_size)``, taken without checks. An int64 array is
        kept, not copied, and made read-only."""
        ids = np.asarray(ids, dtype=np.int64)
        ids.flags.writeable = False
        sdr = cls.__new__(cls)
        sdr.universe_size = universe_size
        sdr.ids = ids
        return sdr

    @classmethod
    def from_dense(cls, bits) -> "Sdr":
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError(f"dense bits must be 1-D, got shape {arr.shape}")
        return cls(arr.shape[0], np.nonzero(arr)[0])

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    @property
    def active_set(self) -> frozenset:
        return frozenset(self.ids.tolist())

    def dense(self) -> np.ndarray:
        """Dense boolean copy (fresh array every call)."""
        out = np.zeros(self.universe_size, dtype=bool)
        out[self.ids] = True
        return out

    def __len__(self) -> int:
        return len(self.ids)

    cardinality = property(__len__)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __contains__(self, index) -> bool:
        return index in self.active_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sdr)
            and self.universe_size == other.universe_size
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.active))

    def __repr__(self) -> str:
        return f"Sdr(universe_size={self.universe_size}, active={self.ids.tolist()})"

    def __reduce__(self):  # through the constructor, so a copy's ids are read-only too
        return Sdr, (self.universe_size, self.ids)


def _check_width(value: Sdr, width: int, what: str, owner: str) -> None:
    """Raise ``DimensionError``, naming both widths, unless ``value`` spans ``width`` bits."""
    if value.universe_size != width:
        raise DimensionError(f"{what} width {value.universe_size} != {owner} {width}")


def _check_same_universe(a: Sdr, b: Sdr) -> None:
    if a.universe_size != b.universe_size:
        raise DimensionError(f"universe sizes differ: {a.universe_size} != {b.universe_size}")


def overlap(a: Sdr, b: Sdr) -> int:
    """Number of positions active in both vectors (binary dot product)."""
    _check_same_universe(a, b)
    return np.intersect1d(a.ids, b.ids, assume_unique=True).size


def union(a: Sdr, b: Sdr) -> Sdr:
    """Elementwise OR of two vectors."""
    _check_same_universe(a, b)
    return Sdr._from_sorted(a.universe_size, np.union1d(a.ids, b.ids))


def sparsity(a: Sdr) -> float:
    """Fraction of the universe that is active."""
    return len(a) / a.universe_size


def flip_noise(a: Sdr, flip_fraction: float, rng_seed: int) -> Sdr:
    """Move a fraction of the active bits onto previously inactive positions.

    ``round(flip_fraction * cardinality)`` active bits are chosen uniformly to
    move, landing on uniformly chosen inactive positions, so cardinality is
    preserved. If fewer inactive positions exist than bits to move, the count
    is capped. Deterministic for a given seed.
    """
    _check_unit(flip_fraction=flip_fraction)
    k = len(a)
    n_move = int(round(flip_fraction * k))
    if n_move == 0:
        return a
    rng = np.random.default_rng(rng_seed)
    inactive = np.setdiff1d(np.arange(a.universe_size), a.ids, assume_unique=True)
    n_move = min(n_move, inactive.size)
    drop = rng.choice(k, size=n_move, replace=False)
    land = rng.choice(inactive.size, size=n_move, replace=False)
    return Sdr(a.universe_size, np.concatenate([np.delete(a.ids, drop), inactive[land]]))
