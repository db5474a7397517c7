"""Sparse binary vectors stored as sorted index tuples.

Layer activity runs near 2% density, so only the active indices are kept.
Instances are immutable after construction and safe to share across threads:
the only state filled in later is the ``active_set`` cache, built from
``active`` on first use, and two threads that both build it get equal sets.
Kernels that want dense scratch buffers build them on demand.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["DimensionError", "Sdr", "overlap", "union", "sparsity", "flip_noise"]


class DimensionError(ValueError):
    """Two bit vectors (or a vector and its consumer) disagree on width."""


class Sdr:
    """Immutable sparse binary vector over ``universe_size`` bit positions.

    Active indices are stored sorted, without duplicates, each in
    ``[0, universe_size)``.
    """

    __slots__ = ("universe_size", "active", "_active_set")

    def __init__(self, universe_size: int, active: Iterable[int] = ()):
        universe_size = int(universe_size)
        if universe_size <= 0:
            raise ValueError(f"universe_size must be positive, got {universe_size}")
        idx = tuple(sorted(int(i) for i in active))
        if idx:
            if idx[0] < 0 or idx[-1] >= universe_size:
                raise ValueError(
                    f"active indices must lie in [0, {universe_size}), "
                    f"got range [{idx[0]}, {idx[-1]}]"
                )
            for a, b in zip(idx, idx[1:]):
                if a == b:
                    raise ValueError(f"duplicate active index {a}")
        self.universe_size = universe_size
        self.active = idx
        self._active_set = None

    @classmethod
    def _from_sorted(cls, universe_size: int, active: np.ndarray) -> "Sdr":
        """An ``Sdr`` over indices known to be ascending, distinct and in
        ``[0, universe_size)``, taken without checks."""
        sdr = cls.__new__(cls)
        sdr.universe_size = universe_size
        sdr.active = tuple(active.tolist())
        sdr._active_set = None
        return sdr

    @classmethod
    def from_dense(cls, bits) -> "Sdr":
        arr = np.asarray(bits)
        return cls(arr.shape[0], np.nonzero(arr)[0])

    @property
    def cardinality(self) -> int:
        return len(self.active)

    @property
    def active_set(self) -> frozenset:
        if self._active_set is None:
            self._active_set = frozenset(self.active)
        return self._active_set

    def dense(self) -> np.ndarray:
        """Dense boolean copy (fresh array every call)."""
        out = np.zeros(self.universe_size, dtype=bool)
        if self.active:
            out[list(self.active)] = True
        return out

    def __len__(self) -> int:
        return len(self.active)

    def __iter__(self) -> Iterator[int]:
        return iter(self.active)

    def __contains__(self, index) -> bool:
        return index in self.active_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sdr)
            and self.universe_size == other.universe_size
            and self.active == other.active
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.active))

    def __repr__(self) -> str:
        return f"Sdr(universe_size={self.universe_size}, active={list(self.active)})"


def _check_same_universe(a: Sdr, b: Sdr) -> None:
    if a.universe_size != b.universe_size:
        raise DimensionError(
            f"universe sizes differ: {a.universe_size} != {b.universe_size}"
        )


def overlap(a: Sdr, b: Sdr) -> int:
    """Number of positions active in both vectors (binary dot product)."""
    _check_same_universe(a, b)
    if len(a) > len(b):
        a, b = b, a
    return len(a.active_set & b.active_set)


def union(a: Sdr, b: Sdr) -> Sdr:
    """Elementwise OR of two vectors."""
    _check_same_universe(a, b)
    return Sdr(a.universe_size, a.active_set | b.active_set)


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
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValueError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
    k = len(a)
    n_move = int(round(flip_fraction * k))
    if n_move == 0:
        return a
    rng = np.random.default_rng(rng_seed)
    active = np.fromiter(a.active, dtype=np.int64, count=k)
    inactive = np.setdiff1d(
        np.arange(a.universe_size, dtype=np.int64), active, assume_unique=True
    )
    n_move = min(n_move, inactive.size)
    drop = rng.choice(k, size=n_move, replace=False)
    land = rng.choice(inactive.size, size=n_move, replace=False)
    kept = np.delete(active, drop)
    return Sdr(a.universe_size, np.concatenate([kept, inactive[land]]))
