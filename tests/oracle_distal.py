"""Pure-Python distal segment scoring and learning, one segment at a time.

This is the object-per-segment implementation that ``TmLayer``'s flat-array
kernel replaced, kept as the reference the kernel is tested against.
``segments`` maps a cell id to its list of ``Segment`` objects in segment
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Segment:
    __slots__ = ("sources", "permanences", "connect_threshold", "activation_threshold", "spike_size")

    def __init__(self, sources, permanences, connect_threshold, activation_threshold, spike_size):
        self.sources = [int(s) for s in sources]
        self.permanences = [float(p) for p in permanences]
        self.connect_threshold = float(connect_threshold)
        self.activation_threshold = int(activation_threshold)
        self.spike_size = float(spike_size)

    def total_permanence(self) -> float:
        return sum(self.permanences)


@dataclass
class CellEval:
    o_pred: float = 0.0
    o_sub: float = 0.0
    active_segments: list = field(default_factory=list)
    best_overlap: int = 0
    best_segment: Segment | None = None


def eval_segments(segments: dict, active: frozenset) -> dict:
    """Distal summaries for every cell owning a segment with an active source."""
    evals: dict[int, CellEval] = {}
    if not active:
        return evals
    for cell, segs in segments.items():
        ev = None
        for seg in segs:
            raw = 0
            conn = 0
            thr = seg.connect_threshold
            for src, p in zip(seg.sources, seg.permanences):
                if src in active:
                    raw += 1
                    if p >= thr:
                        conn += 1
            if raw == 0:
                continue
            if ev is None:
                ev = evals.setdefault(cell, CellEval())
            if conn >= seg.activation_threshold:
                ev.o_pred += seg.spike_size
                ev.active_segments.append(seg)
            elif 2 * conn >= seg.activation_threshold:
                ev.o_sub += seg.spike_size
            if raw > ev.best_overlap:
                ev.best_overlap = raw
                ev.best_segment = seg
    return evals


def reinforce(seg: Segment, prev_active: frozenset, sigma_inc: float, sigma_dec: float) -> None:
    inc = 1.0 + sigma_inc
    dec = 1.0 - sigma_dec
    perms = seg.permanences
    for i, src in enumerate(seg.sources):
        if src in prev_active:
            perms[i] = min(1.0, perms[i] * inc)
        else:
            perms[i] = perms[i] * dec


def grow_segment(segments: dict, cell: int, prev_winners: list, rng, layer) -> None:
    """Grow (or, at the budget, replace the weakest) segment of ``cell``.

    ``layer`` supplies the budgets and initial values, ``rng`` the draws.
    """
    candidates = [c for c in prev_winners if c != cell]
    if not candidates:
        return
    k = min(layer.synapses_per_segment, len(candidates))
    picked = rng.choice(len(candidates), size=k, replace=False)
    sources = sorted(candidates[i] for i in picked)
    seg = Segment(
        sources,
        [layer.initial_segment_permanence] * k,
        layer.pattern.connect_threshold,
        layer.activation_threshold,
        layer.spike_size,
    )
    segs = segments.setdefault(cell, [])
    if len(segs) >= layer.segments_per_cell:
        weakest = min(range(len(segs)), key=lambda i: (segs[i].total_permanence(), i))
        segs[weakest] = seg
    else:
        segs.append(seg)


def learn_distal(
    segments: dict,
    winners: list,
    evals: dict,
    active_column_set: set,
    prev_predictive: list,
    prev_active: frozenset,
    prev_winners: list,
    rng,
    layer,
) -> None:
    """Punish mispredicted cells, then reinforce or grow for each winner."""
    if layer.sigma_punish > 0.0:
        fade = 1.0 - layer.sigma_punish
        for cell in prev_predictive:
            if layer.column_of(cell) in active_column_set:
                continue
            ev = evals.get(cell)
            if ev is None:
                continue
            for seg in ev.active_segments:
                perms = seg.permanences
                for i, src in enumerate(seg.sources):
                    if src in prev_active:
                        perms[i] = perms[i] * fade
    for cell in winners:
        ev = evals.get(cell)
        if ev is not None and ev.active_segments:
            for seg in ev.active_segments:
                reinforce(seg, prev_active, layer.sigma_inc, layer.sigma_dec)
        elif ev is not None and ev.best_overlap >= layer.min_match_threshold:
            reinforce(ev.best_segment, prev_active, layer.sigma_inc, layer.sigma_dec)
        else:
            grow_segment(segments, cell, prev_winners, rng, layer)


def dense(evals, n_cells: int):
    """``TmLayer._eval_segments``'s result with its per-cell values spread
    over all ``n_cells`` cells: cells owning no scored segment get 0 and
    ``False``. Per-segment fields stay as they are."""
    spread = {}
    for name in ("o_pred", "o_sub", "best", "predictive"):
        values = getattr(evals, name)
        out = np.zeros(n_cells + 1, dtype=values.dtype)
        out[evals.owners[:-1]] = values[:-1]
        spread[name] = out[:n_cells]
    return evals._replace(**spread)
