"""Column selection, per-cell firing, firing-sequence assembly and the
anomaly score, one column at a time.

This is ``TmLayer._select_columns`` (with ``PatternLayer._select``),
``TmLayer._fire``, and the firing-sequence assembly and anomaly score of
``TmLayer.step``, as they were before the step worked on the block of active
columns' cells, plus ``lexsorted``, the firing order as one sort of every
event. They are kept as the reference the block form is tested against.
``layer`` supplies the parameters, the segment counts and the rng.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from minicolumn.transition import (
    I_FF,
    I_PRED,
    I_SPREAD,
    P_BURST,
    P_PRED,
    FiringEvent,
    firing_time,
)

from oracle_distal import dense


def _new_event(args):
    return tuple.__new__(FiringEvent, args)


def select_columns(layer, raw: np.ndarray, evals) -> list[int]:
    """Active columns, ascending."""
    evals = dense(evals, layer.n_cells)
    o_pred = evals.o_pred.reshape(layer.n_columns, layer.cells_per_column)
    scores = layer.alpha * raw + layer.beta * o_pred.max(axis=1)
    pattern = layer.pattern
    eligible = np.nonzero(raw >= pattern.min_overlap)[0]
    if eligible.size == 0:
        return []
    order = eligible[np.argsort(-scores[eligible], kind="stable")]
    return sorted(order[: pattern.n_active].tolist())


def fire(layer, columns: list[int], raw: np.ndarray, evals):
    """Fire the active columns' cells and pick one winner per column."""
    evals = dense(evals, layer.n_cells)
    n = layer.cells_per_column
    o_pred = evals.o_pred.reshape(-1, n)[columns].tolist()
    o_sub = evals.o_sub.reshape(-1, n)[columns].tolist()
    best = evals.best.reshape(-1, n)[columns].tolist()
    o_ffs = raw[columns].tolist()
    # A cell with no segment seeing any active source never counts as
    # predictive or matching, whatever the thresholds.
    floor = max(layer.min_match_threshold, 1)
    predicted: list[int] = []
    burst: list[int] = []
    winners: list[int] = []
    ev_p_pred: list[FiringEvent] = []
    ev_i_pred: list[FiringEvent] = []
    ev_i_ff: list[FiringEvent] = []
    ev_p_burst: list[FiringEvent] = []

    for m, o_ff, preds, subs, bests in zip(columns, o_ffs, o_pred, o_sub, best):
        base = m * n
        o_ff = float(o_ff)
        d_sheath = layer.alpha_inh * o_ff
        pred_here = [
            (base + i, p)
            for i, p in enumerate(preds)
            if bests[i] and p >= layer.predictive_threshold
        ]
        if pred_here:
            for c, p in pred_here:
                predicted.append(c)
                ev_p_pred.append(FiringEvent(c, P_PRED, layer.alpha * o_ff + layer.beta * p))
            ev_i_pred.append(FiringEvent(m, I_PRED, d_sheath))
            winners.append(max(pred_here, key=lambda cp: (cp[1], -cp[0]))[0])
            continue

        ev_i_ff.append(FiringEvent(m, I_FF, d_sheath))
        cutoff = firing_time(d_sheath, layer.gamma_inh) + layer.dtau_vert
        chosen: list[tuple[int, float]] = []
        for i, s in enumerate(subs):
            d = layer.alpha * o_ff + layer.beta_sub * s
            if firing_time(d, layer.gamma_p) < cutoff:
                chosen.append((base + i, d))
        if not chosen:
            # The column won the feedforward competition; its fastest
            # cell must represent it even when the vertical window is
            # narrower than the sheath margin.
            i = max(range(n), key=lambda i: (layer.beta_sub * subs[i], -i))
            chosen = [(base + i, layer.alpha * o_ff + layer.beta_sub * subs[i])]
        for c, d in chosen:
            burst.append(c)
            ev_p_burst.append(FiringEvent(c, P_BURST, d))

        top = max(bests)
        if top >= floor:
            winners.append(base + bests.index(top))
            continue
        counts = layer._segment_counts[base : base + n].tolist()
        fewest = min(counts)
        pool = [base + i for i, k in enumerate(counts) if k == fewest]
        if layer.blank_winner == "lowest":
            winners.append(pool[0])
        else:
            winners.append(pool[int(layer._rng.integers(len(pool)))])

    return predicted, burst, winners, ev_p_pred, ev_i_pred, ev_i_ff, ev_p_burst


def firing_sequence(layer, columns: list[int], raw: np.ndarray, fired) -> tuple:
    """The step's firing sequence from ``fire``'s result."""
    _, _, _, ev_p_pred, ev_i_pred, ev_i_ff, ev_p_burst = fired
    # Inactive columns' sheaths, fastest first, ties to the lower column.
    inactive = np.ones(layer.n_columns, dtype=bool)
    inactive[columns] = False
    units = np.flatnonzero(inactive)
    rates = layer.alpha_inh * raw[units].astype(np.float64)
    spread = np.lexsort((units, -rates))
    ev_spread = zip(units[spread].tolist(), repeat(I_SPREAD), rates[spread].tolist())
    order = lambda e: (-e.rate, e.unit)
    return tuple(
        sorted(ev_p_pred, key=order)
        + sorted(ev_i_pred, key=order)
        + sorted(ev_i_ff, key=order)
        + sorted(ev_p_burst, key=order)
        + list(map(_new_event, ev_spread))
    )


def lexsorted(units, kinds, rates):
    """Every event of a step, given with ascending units within each kind, in
    firing order: kinds in ``KINDS`` order, each fastest first, ties to the
    lower unit. This is one stable lexsort over all of them, as
    ``transition._firing_sequence`` was before it sorted the spreading
    sheaths by their overlaps."""
    order = np.lexsort((-rates, kinds))
    return units[order], kinds[order], rates[order]


def anomaly(layer, columns: list[int]) -> float:
    """Fraction of active columns that held no predictive cell before the step."""
    prev_pred_columns = {layer.column_of(c) for c in layer.prev_predictive}
    if columns:
        hits = sum(1 for m in columns if m in prev_pred_columns)
        return 1.0 - hits / len(columns)
    return 0.0
