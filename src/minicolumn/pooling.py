"""Temporal pooling: slow, stable representations of predictable sequences.

A pooling layer is a pattern layer over the transition layer's cellular
output, with two twists. Scoring carries a fraction of a cell's previous
activation forward while its inputs stay predicted, and learning moves faster
on predicted sources than on bursting ones, so pooled cells latch onto
sequences the layer below has mastered.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .pattern import _PATTERN_STATE, PatternLayer
from .sdr import Sdr, _check_finite, _check_keys, _check_unit, overlap
from .transition import LayerOutput

__all__ = ["PoolingLayer", "stability"]

# Parameters the pooling layer adds to the pattern layer's, in snapshot order.
_POOLING_PARAMS = (
    "persistence", "delta_inc_pred", "delta_dec_pred", "delta_inc_burst", "delta_dec_burst",
)


class PoolingLayer(PatternLayer):
    """Pattern layer with prediction-gated hysteresis and modulated learning.

    With ``persistence`` zero and equal predicted/bursting rates this reduces
    bit-for-bit to the plain pattern layer.
    """

    def __init__(
        self,
        input_size: int,
        n_columns: int,
        *,
        persistence: float = 0.5,
        delta_inc_pred: float = 0.10,
        delta_dec_pred: float = 0.003,
        delta_inc_burst: float = 0.02,
        delta_dec_burst: float = 0.02,
        min_overlap: int = 2,
        **kwargs,
    ):
        self._configure_pooling(
            persistence, delta_inc_pred, delta_dec_pred, delta_inc_burst, delta_dec_burst
        )
        super().__init__(input_size, n_columns, min_overlap=min_overlap, **kwargs)
        self.active_prev = Sdr(self.n_columns)

    def _configure_pooling(
        self, persistence, delta_inc_pred, delta_dec_pred, delta_inc_burst, delta_dec_burst
    ) -> None:
        _check_finite(
            persistence=persistence, delta_inc_pred=delta_inc_pred, delta_inc_burst=delta_inc_burst
        )
        _check_unit(delta_dec_pred=delta_dec_pred, delta_dec_burst=delta_dec_burst)
        if not 0.0 <= persistence < 1.0:
            raise ValueError(f"persistence must be in [0, 1), got {persistence}")
        if delta_inc_pred < delta_inc_burst or delta_dec_pred > delta_dec_burst:
            raise ValueError(
                "predicted sources must learn at least as fast as bursting ones "
                "(delta_inc_pred >= delta_inc_burst, delta_dec_pred <= delta_dec_burst)"
            )
        self.persistence = float(persistence)
        self.delta_inc_pred = float(delta_inc_pred)
        self.delta_dec_pred = float(delta_dec_pred)
        self.delta_inc_burst = float(delta_inc_burst)
        self.delta_dec_burst = float(delta_dec_burst)

    def _check_layer_output(self, l4: LayerOutput) -> None:
        self._check_input(l4.active_cells)
        self._check_input(l4.predicted_cells, "predicted cells")

    def tp_step(self, l4: LayerOutput) -> Sdr:
        """Pooled SDR for one step of the layer below.

        Cells active on the previous step add ``persistence`` times their
        overlap with the predicted sub-input to their score, so a pooled code
        persists exactly while the sequence below stays predictable.
        """
        self._check_layer_output(l4)
        raw = self.raw_overlaps(l4.active_cells)
        scores = raw.astype(np.float64)
        if self.persistence > 0.0 and self.active_prev and l4.predicted_cells:
            prev = self.active_prev.ids
            pred_raw = self.raw_overlaps(l4.predicted_cells)
            scores[prev] += self.persistence * pred_raw[prev]
        out = self._select(scores, raw)
        self.active_prev = out
        return out

    def tp_learn(self, l4: LayerOutput, winners: Sdr) -> None:
        """Hebbian update with per-synapse rates picked by source class.

        Synapses onto predicted cells use the predicted rate pair and all
        others the bursting pair, so synapses onto bursting cells grow at the
        bursting rate and those whose source stayed silent, unpredicted,
        decay at it. That bursting decay is the resting rate: only synapses
        onto active or predicted sources read their own rates.

        ``delta_dec_pred`` decays a synapse onto a predicted cell only while
        that cell is silent. ``TmLayer.step`` reports predicted cells only
        among the active ones, so no runner reads it; only a ``LayerOutput``
        built by hand can.
        """
        self._check_layer_output(l4)
        predicted = l4.predicted_cells.dense()
        self._learn_rows(
            winners,
            l4.active_cells.dense(),
            np.where(predicted, self.delta_inc_pred, self.delta_inc_burst),
            np.where(predicted, self.delta_dec_pred, self.delta_dec_burst),
            self.delta_dec_burst,
        )

    def to_state(self) -> dict:
        state = super().to_state()
        state["params"].update((name, getattr(self, name)) for name in _POOLING_PARAMS)
        state["active_prev"] = self.active_prev.ids.tolist()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "PoolingLayer":
        _check_keys("pooling layer state", state, _PATTERN_STATE + ("active_prev",))
        params = dict(state["params"])
        pool = cls.__new__(cls)  # no random draws, as in PatternLayer.from_state
        pool._configure_pooling(*(params.pop(name) for name in _POOLING_PARAMS))
        pool._configure(**params)
        pool._restore_state(state)
        pool.active_prev = Sdr(pool.n_columns, state["active_prev"])
        return pool


def stability(history: Sequence[Sdr], n_active: int | None = None) -> float:
    """Mean step-to-step turnover of a sequence of SDRs; 0 is perfectly stable.

    Each consecutive pair contributes 1 - overlap/n_active. ``n_active`` is a
    positive integer, at least the history's largest cardinality (its default).
    """
    if len(history) < 2:
        raise ValueError("need at least two SDRs to measure stability")
    largest = max(len(s) for s in history)
    if n_active is None:
        n_active = largest
    whole = isinstance(n_active, (int, np.integer)) and not isinstance(n_active, bool)
    if not (whole and n_active >= max(largest, 1)):
        raise ValueError(f"n_active must be an integer >= {max(largest, 1)}, got {n_active!r}")
    changes = [1.0 - overlap(a, b) / n_active for a, b in zip(history, history[1:])]
    return float(np.mean(changes))
