"""Deterministic encoders that turn raw symbols or scalars into sparse inputs."""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from .sdr import (
    DimensionError, Sdr, _check_finite, _check_integral, _check_keys, _check_width,
    _rng_from_state,
)

__all__ = ["CategoryEncoder", "ScalarEncoder"]


class CategoryEncoder:
    """Fixed random code per symbol, memoized on first encounter.

    The first time a symbol is seen, ``active_bits`` distinct positions are
    drawn from the seeded rng and cached, so codes depend on first-seen order
    but are stable within a run and across identically seeded runs.

    ``symbol_table`` is a read-only view: ``encode`` and ``from_state`` are
    its only writers. encode() adds to it; serialize calls externally if the
    encoder is shared between threads, or pre-populate the table up front.
    """

    def __init__(self, universe_size: int, active_bits: int, rng_seed: int = 0):
        self.universe_size, self.active_bits = _check_widths(universe_size, active_bits, 0)
        self._table: dict[Hashable, Sdr] = {}
        self._codebook = None  # built by best_match; dropped when a symbol is added
        self._rng = np.random.default_rng(rng_seed)

    @property
    def symbol_table(self) -> Mapping[Hashable, Sdr]:
        """Read-only view of each known symbol's code."""
        return MappingProxyType(self._table)

    def encode(self, symbol: Hashable) -> Sdr:
        code = self._table.get(symbol)
        if code is None:
            picks = self._rng.choice(
                self.universe_size, size=self.active_bits, replace=False
            )
            code = Sdr(self.universe_size, picks)
            self._table[symbol] = code
            self._codebook = None
        return code

    def best_match(self, probe) -> tuple[Hashable, int]:
        """Known symbol with maximal overlap against ``probe``, an ``Sdr`` or
        a dense boolean array over the encoder's bits.

        Ties break to the lexicographically smallest symbol by ``str``, and
        symbols with equal strings to the first added.
        """
        if not self._table:
            raise ValueError("symbol table is empty")
        hits = _dense_probe(probe, self.universe_size)
        book = self._codebook
        if book is None:
            symbols = sorted(self._table, key=str)
            codes = np.stack([self._table[symbol].ids for symbol in symbols])
            book = self._codebook = symbols, codes
        return _best_match(*book, hits)

    def to_state(self) -> dict:
        return {
            "params": {
                "universe_size": self.universe_size,
                "active_bits": self.active_bits,
            },
            "symbol_table": [
                [symbol, code.ids.tolist()]
                for symbol, code in sorted(self.symbol_table.items(), key=lambda kv: str(kv[0]))
            ],
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CategoryEncoder":
        _check_keys("category encoder state", state, ("params", "symbol_table", "rng"))
        enc = cls(**state["params"])
        for symbol, active in state["symbol_table"]:
            code = Sdr(enc.universe_size, active)
            if len(code) != enc.active_bits:
                raise ValueError(
                    f"symbol {symbol!r} has a code of {len(code)} bits, "
                    f"not active_bits={enc.active_bits}"
                )
            enc._table[symbol] = code
        enc._rng = _rng_from_state(state["rng"])
        return enc


class ScalarEncoder:
    """Contiguous-run encoding of a bounded scalar.

    A value maps to ``active_bits`` consecutive positions whose start slides
    linearly with the value, so nearby values share bits and the shared count
    falls off with distance. Values outside [min_value, max_value] clamp; NaN
    is rejected.
    """

    def __init__(
        self,
        min_value: float,
        max_value: float,
        universe_size: int,
        active_bits: int,
    ):
        _check_finite(min_value=min_value, max_value=max_value)
        if not min_value < max_value:
            raise ValueError(f"need min_value < max_value, got [{min_value}, {max_value}]")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        if self.max_value - self.min_value == math.inf:
            raise ValueError(f"max_value - min_value overflows, got [{min_value}, {max_value}]")
        self.universe_size, self.active_bits = _check_widths(universe_size, active_bits, 1)

    def encode(self, value: float) -> Sdr:
        start = self._start(value)
        return Sdr._from_sorted(self.universe_size, np.arange(start, start + self.active_bits))

    def _start(self, value: float) -> int:
        """The first bit of ``value``'s run."""
        v = float(value)
        if math.isnan(v):
            raise ValueError("cannot encode NaN")
        v = min(max(v, self.min_value), self.max_value)
        span = self.universe_size - self.active_bits
        frac = (v - self.min_value) / (self.max_value - self.min_value)
        return min(int(math.floor(frac * span)), span)

    def best_match(self, probe, values: Sequence[float]) -> tuple[float, int]:
        """The one of ``values`` whose code has maximal overlap against
        ``probe``, an ``Sdr`` or a dense boolean array over the encoder's bits.

        The encoder keeps no table, so the caller names the candidates. Ties
        break as in ``CategoryEncoder.best_match``, by ``str``.
        """
        if not values:
            raise ValueError("no values to match")
        hits = _dense_probe(probe, self.universe_size)
        symbols = sorted(values, key=str)
        starts = np.array([self._start(value) for value in symbols], dtype=np.intp)
        return _best_match(symbols, starts[:, None] + np.arange(self.active_bits), hits)

    def to_state(self) -> dict:
        return {
            "params": {
                "min_value": self.min_value,
                "max_value": self.max_value,
                "universe_size": self.universe_size,
                "active_bits": self.active_bits,
            }
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScalarEncoder":
        _check_keys("scalar encoder state", state, ("params",))
        return cls(**state["params"])


def _check_widths(universe_size, active_bits, spare: int) -> tuple[int, int]:
    """``universe_size`` and ``active_bits`` as ints, once checked to be
    integers with ``active_bits`` in [1, universe_size - ``spare``]."""
    _check_integral(universe_size=universe_size, active_bits=active_bits)
    if universe_size <= 0:
        raise ValueError(f"universe_size must be positive, got {universe_size}")
    if not 0 < active_bits <= universe_size - spare:
        raise ValueError(f"active_bits must be in [1, {universe_size - spare}], got {active_bits}")
    return int(universe_size), int(active_bits)


def _dense_probe(probe, universe_size: int) -> np.ndarray:
    """``probe``, an ``Sdr`` or a dense boolean array, as a dense boolean
    array of ``universe_size`` bits."""
    if isinstance(probe, Sdr):
        _check_width(probe, universe_size, "probe", "encoder width")
        return probe.dense()
    hits = np.asarray(probe)
    if hits.shape != (universe_size,):
        raise DimensionError(f"probe shape {hits.shape} != encoder width ({universe_size},)")
    if hits.dtype != bool:
        raise ValueError(f"a dense probe must be boolean, got dtype {hits.dtype}")
    return hits


def _best_match(symbols: list, codes: np.ndarray, hits: np.ndarray) -> tuple[Hashable, int]:
    """The first of ``symbols`` whose row of bit indices in ``codes`` has the
    most bits on in ``hits``, and that count."""
    overlaps = np.count_nonzero(hits.take(codes), axis=1)
    best = int(np.argmax(overlaps))
    return symbols[best], int(overlaps[best])
