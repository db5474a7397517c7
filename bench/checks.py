"""Output checks computed apart from the program.

Every function here reads the program's public state (``pattern.sources``,
``pattern.permanences``, encoder codes, ``LayerOutput`` fields) and
recomputes what the output must be with its own numpy or set code, or tests
a property the method guarantees. A ``Checker`` counts each check as one
operation and each failure as one failed operation.
"""

from __future__ import annotations

import sys

import numpy as np


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
                print(f"check failed: {what}", file=sys.stderr)
        return ok


def proximal_overlaps(layer, active_bits) -> np.ndarray:
    """Connected synapses of each column that land on an active input bit."""
    on = np.zeros(layer.input_size, dtype=bool)
    on[np.fromiter(active_bits, dtype=np.int64)] = True
    connected = layer.permanences >= layer.connect_threshold
    return (on[layer.sources] & connected).sum(axis=1)


def expected_winner_count(layer, overlaps: np.ndarray) -> int:
    """k-WTA picks n_active columns unless fewer pass the stimulus floor."""
    return min(layer.n_active, int(np.count_nonzero(overlaps >= layer.min_overlap)))


def step_invariants(checker: Checker, tm, out, prev_predictive, where: str) -> None:
    """Properties every ``TmLayer.step`` output has.

    ``prev_predictive`` is the previous step's ``predictive_cells_next`` (the
    empty set after a reset).
    """
    n = tm.cells_per_column
    cols = set(out.active_columns.active)
    pred = set(out.predicted_cells.active)
    burst = set(out.burst_cells.active)
    active = set(out.active_cells.active)
    winners = out.winner_cells.active
    checker.check(
        not (pred & burst) and pred | burst == active,
        f"{where}: predicted and burst cells must partition the active cells",
    )
    checker.check(
        {c // n for c in active} == cols,
        f"{where}: active cells must lie in the active columns, one column at least each",
    )
    checker.check(
        len(winners) == len(cols) and {c // n for c in winners} == cols,
        f"{where}: exactly one winner cell per active column",
    )
    checker.check(
        pred <= set(prev_predictive),
        f"{where}: predicted cells must have been predictive on the previous step",
    )
    predicted_columns = {c // n for c in prev_predictive}
    anomaly = 1.0 - len(cols & predicted_columns) / len(cols) if cols else 0.0
    checker.check(
        abs(anomaly - out.anomaly) < 1e-12,
        f"{where}: anomaly {out.anomaly} != recomputed {anomaly}",
    )


def column_count(checker: Checker, layer, overlaps, program_overlaps, sdr, where: str) -> None:
    """Recomputed overlaps match the program's, and k-WTA picked the right count."""
    checker.check(
        np.array_equal(overlaps, program_overlaps),
        f"{where}: raw overlaps differ from the recomputation",
    )
    checker.check(
        len(sdr) == expected_winner_count(layer, overlaps)
        and all(overlaps[c] >= layer.min_overlap for c in sdr.active),
        f"{where}: {len(sdr)} active columns, expected "
        f"{expected_winner_count(layer, overlaps)} above min_overlap",
    )


def back_projection_decode(pattern, encoder, predictive_cells, cells_per_column):
    """Symbol whose code best matches the top ``active_bits`` back-projected votes.

    Each predicted column votes for the input bits its connected proximal
    synapses sample; the ``active_bits`` most-voted bits (ties to the lower
    bit) form the probe. Returns the symbol and the set of all voted bits.
    """
    columns = np.unique(np.fromiter(predictive_cells, dtype=np.int64) // cells_per_column)
    votes = np.zeros(pattern.input_size, dtype=np.int64)
    connected = pattern.permanences[columns] >= pattern.connect_threshold
    np.add.at(votes, pattern.sources[columns][connected], 1)
    top = np.argsort(-votes, kind="stable")[: encoder.active_bits]
    top = set(top[votes[top] > 0].tolist())
    best, best_ov = None, -1
    for symbol, code in encoder.symbol_table.items():
        ov = len(top & code.active_set)
        if ov > best_ov:
            best, best_ov = symbol, ov
    return best, set(np.nonzero(votes)[0].tolist())


def stability(history, n_active: int) -> float:
    """Mean turnover 1 - |a & b| / n_active over consecutive SDRs."""
    turnover = [
        1.0 - len(a.active_set & b.active_set) / n_active for a, b in zip(history, history[1:])
    ]
    return sum(turnover) / len(turnover)


def outputs_digest(out) -> tuple:
    """Every field of a step output, for bit-exact comparisons."""
    return (
        out.active_columns.active,
        out.active_cells.active,
        out.predicted_cells.active,
        out.burst_cells.active,
        out.winner_cells.active,
        out.firing_sequence,
        out.predictive_cells_next.active,
        out.anomaly,
    )
