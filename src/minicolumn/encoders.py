"""Deterministic encoders that turn raw symbols or scalars into sparse inputs."""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from .sdr import DimensionError, Sdr, overlap

__all__ = ["CategoryEncoder", "ScalarEncoder"]


class CategoryEncoder:
    """Fixed random code per symbol, memoized on first encounter.

    The first time a symbol is seen, ``active_bits`` distinct positions are
    drawn from the seeded rng and cached, so codes depend on first-seen order
    but are stable within a run and across identically seeded runs.

    encode() mutates the symbol table; serialize calls externally if the
    encoder is shared between threads, or pre-populate the table up front.
    """

    def __init__(self, universe_size: int, active_bits: int, rng_seed: int = 0):
        if universe_size <= 0:
            raise ValueError(f"universe_size must be positive, got {universe_size}")
        if not 0 < active_bits <= universe_size:
            raise ValueError(
                f"active_bits must be in [1, {universe_size}], got {active_bits}"
            )
        self.universe_size = universe_size
        self.active_bits = active_bits
        self.symbol_table: dict[Hashable, Sdr] = {}
        self._rng = np.random.default_rng(rng_seed)

    def encode(self, symbol: Hashable) -> Sdr:
        code = self.symbol_table.get(symbol)
        if code is None:
            picks = self._rng.choice(
                self.universe_size, size=self.active_bits, replace=False
            )
            code = Sdr(self.universe_size, picks)
            self.symbol_table[symbol] = code
        return code

    def best_match(self, probe: Sdr) -> tuple[Hashable, int]:
        """Known symbol with maximal overlap against ``probe``.

        Ties break to the lexicographically smallest symbol.
        """
        if not self.symbol_table:
            raise ValueError("symbol table is empty")
        if probe.universe_size != self.universe_size:
            raise DimensionError(
                f"probe width {probe.universe_size} != encoder width {self.universe_size}"
            )
        best_symbol = None
        best_overlap = -1
        for symbol in sorted(self.symbol_table, key=str):
            ov = overlap(self.symbol_table[symbol], probe)
            if ov > best_overlap:
                best_symbol, best_overlap = symbol, ov
        return best_symbol, best_overlap

    def to_state(self) -> dict:
        return {
            "params": {
                "universe_size": self.universe_size,
                "active_bits": self.active_bits,
            },
            "symbol_table": [
                [symbol, list(code.active)]
                for symbol, code in sorted(self.symbol_table.items(), key=lambda kv: str(kv[0]))
            ],
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CategoryEncoder":
        enc = cls(**state["params"])
        for symbol, active in state["symbol_table"]:
            enc.symbol_table[symbol] = Sdr(enc.universe_size, active)
        enc._rng.bit_generator.state = state["rng"]
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
        if not min_value < max_value:
            raise ValueError(f"need min_value < max_value, got [{min_value}, {max_value}]")
        if universe_size <= 0:
            raise ValueError(f"universe_size must be positive, got {universe_size}")
        if not 0 < active_bits < universe_size:
            raise ValueError(
                f"active_bits must be in [1, {universe_size}), got {active_bits}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.universe_size = universe_size
        self.active_bits = active_bits

    def encode(self, value: float) -> Sdr:
        v = float(value)
        if math.isnan(v):
            raise ValueError("cannot encode NaN")
        v = min(max(v, self.min_value), self.max_value)
        span = self.universe_size - self.active_bits
        frac = (v - self.min_value) / (self.max_value - self.min_value)
        start = min(int(math.floor(frac * span)), span)
        return Sdr(self.universe_size, range(start, start + self.active_bits))

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
        return cls(**state["params"])
