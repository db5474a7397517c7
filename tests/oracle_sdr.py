"""``Sdr`` and its helpers as they were when an ``Sdr`` held its active
indices as a sorted tuple of Python ints, with a frozenset beside it.

Kept as the reference the array-backed ``Sdr`` is tested against: every
operation here must give the same result, hash and repr included.
"""

from __future__ import annotations

import numpy as np


class TupleSdr:
    def __init__(self, universe_size: int, active=()):
        self.universe_size = int(universe_size)
        self.active = tuple(sorted(int(i) for i in active))
        assert len(set(self.active)) == len(self.active)
        assert all(0 <= i < self.universe_size for i in self.active)
        self.active_set = frozenset(self.active)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.universe_size, dtype=bool)
        if self.active:
            out[list(self.active)] = True
        return out

    def __len__(self) -> int:
        return len(self.active)

    def __iter__(self):
        return iter(self.active)

    def __contains__(self, index) -> bool:
        return index in self.active_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TupleSdr)
            and self.universe_size == other.universe_size
            and self.active == other.active
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.active))

    def __repr__(self) -> str:
        return f"Sdr(universe_size={self.universe_size}, active={list(self.active)})"


def from_dense(bits) -> TupleSdr:
    arr = np.asarray(bits)
    return TupleSdr(arr.shape[0], np.nonzero(arr)[0])


def overlap(a: TupleSdr, b: TupleSdr) -> int:
    return len(a.active_set & b.active_set)


def union(a: TupleSdr, b: TupleSdr) -> TupleSdr:
    return TupleSdr(a.universe_size, a.active_set | b.active_set)


def flip_noise(a: TupleSdr, flip_fraction: float, rng_seed: int) -> TupleSdr:
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
    return TupleSdr(a.universe_size, np.concatenate([kept, inactive[land]]))
