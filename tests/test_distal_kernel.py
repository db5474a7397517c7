"""Differential tests: TmLayer's flat-array distal kernel against the
one-segment-at-a-time reference in ``oracle_distal``.

Random segment sets cover per-segment activation thresholds and non-unit
spike sizes (so spike sums expose any change of summation order), segments
shorter than ``synapses_per_segment``, ``min_match_threshold`` down to 0,
and cells at their ``segments_per_cell`` budget, where growth replaces the
weakest segment.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import Sdr, TmLayer
from minicolumn.transition import DistalSegment

import oracle_distal as oracle

N_COLUMNS, CELLS = 6, 4
N_CELLS = N_COLUMNS * CELLS
SPIKES = [1.0, 0.1, 0.2, 0.3, 0.7, 1.25, 2.5]
PERMANENCES = st.one_of(
    st.sampled_from([0.0, 0.19999999999999998, 0.2, 0.25, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def models(
    draw, budgets=st.integers(1, 4), thresholds=st.integers(1, 3), spikes=st.sampled_from(SPIKES)
):
    """A layer and the same segments as oracle objects."""
    layer = TmLayer(
        16,
        N_COLUMNS,
        CELLS,
        n_active=2,
        n_synapses=8,
        synapses_per_segment=draw(st.integers(1, 6)),
        segments_per_cell=draw(budgets),
        activation_threshold=draw(st.integers(1, 4)),
        min_match_threshold=draw(st.integers(0, 3)),
        spike_size=draw(st.sampled_from(SPIKES)),
        sigma_punish=draw(st.sampled_from([0.0, 0.05, 0.3])),
        sigma_inc=draw(st.sampled_from([0.1, 0.37])),
        sigma_dec=draw(st.sampled_from([0.02, 0.11])),
        seed=draw(st.integers(0, 2**16)),
    )
    segments = {}
    for cell in draw(st.lists(st.integers(0, N_CELLS - 1), unique=True, max_size=N_CELLS)):
        for _ in range(draw(st.integers(1, layer.segments_per_cell))):
            others = [c for c in range(N_CELLS) if c != cell]
            sources = draw(
                st.lists(st.sampled_from(others), unique=True, max_size=layer.synapses_per_segment)
            )
            perms = draw(st.lists(PERMANENCES, min_size=len(sources), max_size=len(sources)))
            threshold = draw(thresholds)
            spike = draw(spikes)
            layer.add_segment(cell, sources, perms, threshold, spike)
            segments.setdefault(cell, []).append(
                oracle.Segment(sources, perms, layer.pattern.connect_threshold, threshold, spike)
            )
    return layer, segments


cell_sets = st.lists(st.integers(0, N_CELLS - 1), unique=True)
# Activity sets for scoring: often most cells, so several segments of one
# cell are active together and spike sums have three or more terms.
busy_sets = st.one_of(cell_sets, cell_sets.map(lambda off: sorted(set(range(N_CELLS)) - set(off))))


def oracle_view(segments):
    return {
        cell: [
            DistalSegment(s.sources, s.permanences, s.activation_threshold, s.spike_size)
            for s in segs
        ]
        for cell, segs in sorted(segments.items())
    }


@settings(max_examples=150, deadline=None)
@given(models(), busy_sets)
def test_kernel_matches_oracle(model, active):
    assert_scores_match(*model, active)


def assert_scores_match(layer, segments, active):
    ev = oracle.dense(layer._eval_segments(active), N_CELLS)
    expected = oracle.eval_segments(segments, frozenset(active))
    assert layer.segments == oracle_view(segments)

    row_cells = ev.owners[ev.rank].tolist()
    for cell in range(N_CELLS):
        want = expected.get(cell)
        # "has an eval" means some segment sees at least one active source
        assert (ev.best[cell] > 0) == (want is not None)
        if want is None:
            assert ev.o_pred[cell] == 0.0 and ev.o_sub[cell] == 0.0
            continue
        assert ev.o_pred[cell] == want.o_pred  # exact: same summation order
        assert ev.o_sub[cell] == want.o_sub
        assert ev.best[cell] == want.best_overlap
        segs = segments[cell]
        # A cell's rows are its segments in order, so rank maps row -> segment.
        cell_rows = sorted(r for r, c in enumerate(layer._owner[: layer._n_segments]) if c == cell)
        active_rows = [ev.rows[i] for i, c in enumerate(row_cells) if c == cell and ev.active[i]]
        assert [cell_rows.index(r) for r in active_rows] == [
            segs.index(s) for s in want.active_segments
        ]
        best_rows = [
            ev.rows[i] for i, c in enumerate(row_cells) if c == cell and ev.raw[i] == want.best_overlap
        ]
        assert cell_rows.index(best_rows[0]) == segs.index(want.best_segment)


def learn_distal(layer, winners, prev_active, columns, prev_winners):
    """``layer._learn_distal`` given winner cells, previous activity, active
    columns and previous winners as lists."""
    winners = np.array(winners, dtype=np.int64)
    inactive = np.ones(N_COLUMNS, dtype=bool)
    inactive[columns] = False
    evals = layer._eval_segments(sorted(prev_active))
    layer._learn_distal(
        winners, evals.lookup(winners), evals, inactive, Sdr(N_CELLS, prev_active),
        Sdr(N_CELLS, prev_winners),
    )


def test_awkward_shape_matches_oracle():
    """Five synapses per segment (not a power of two), 72 segments in a
    capacity of 128, and cells at their budget whose weakest row growth
    overwrote: the flat slot arithmetic must still find each row."""
    rng = np.random.default_rng(11)
    layer = TmLayer(
        16, N_COLUMNS, CELLS, n_active=2, n_synapses=8, synapses_per_segment=5,
        segments_per_cell=3, activation_threshold=2, min_match_threshold=2, seed=4,
    )
    segments = {}
    for cell in range(N_CELLS):
        others = [c for c in range(N_CELLS) if c != cell]
        for _ in range(layer.segments_per_cell):
            sources = sorted(rng.choice(others, int(rng.integers(1, 6)), replace=False).tolist())
            perms = rng.choice([0.0, 0.19999999999999998, 0.2, 0.25, 0.6, 1.0], len(sources)).tolist()
            threshold, spike = int(rng.integers(1, 4)), float(rng.choice(SPIKES))
            layer.add_segment(cell, sources, perms, threshold, spike)
            segments.setdefault(cell, []).append(
                oracle.Segment(sources, perms, layer.pattern.connect_threshold, threshold, spike)
            )
    assert layer._n_segments == 72 and len(layer._owner) == 128

    # Nothing was active, so every winner grows, overwriting its weakest row.
    winners, prev_winners = [1, 6, 11], [2, 7, 12, 13, 17, 22]
    oracle.learn_distal(
        segments, winners, {}, {0, 1, 2}, [], frozenset(), prev_winners,
        np.random.default_rng(5), layer,
    )
    layer._rng = np.random.default_rng(5)
    learn_distal(layer, winners, [], [0, 1, 2], prev_winners)
    assert layer._n_segments == 72
    for cell in winners:
        grown = [s for s in segments[cell] if s.permanences == [layer.initial_segment_permanence] * 5]
        assert len(grown) == 1 and len(segments[cell]) == 3
    assert layer.segments == oracle_view(segments)

    for active in [prev_winners, list(range(N_CELLS)), rng.choice(N_CELLS, 9, replace=False).tolist()]:
        assert_scores_match(layer, segments, active)


@settings(max_examples=150, deadline=None)
@given(models(), cell_sets, cell_sets, st.data())
def test_learning_matches_oracle(model, prev_active, prev_winners, data):
    layer, segments = model
    columns = sorted(data.draw(st.lists(st.integers(0, N_COLUMNS - 1), unique=True)))
    winners = [m * CELLS + data.draw(st.integers(0, CELLS - 1)) for m in columns]
    seed = data.draw(st.integers(0, 2**16))

    expected = oracle.eval_segments(segments, frozenset(prev_active))
    prev_predictive = [c for c, ev in expected.items() if ev.o_pred >= layer.predictive_threshold]
    rng = np.random.default_rng(seed)
    oracle.learn_distal(
        segments, winners, expected, set(columns), sorted(prev_predictive),
        frozenset(prev_active), sorted(prev_winners), rng, layer,
    )

    layer._rng = np.random.default_rng(seed)
    learn_distal(layer, winners, prev_active, columns, prev_winners)

    assert layer.segments == oracle_view(segments)
    assert layer._rng.bit_generator.state == rng.bit_generator.state
    counts = {cell: len(segs) for cell, segs in segments.items()}
    assert layer._segment_counts.tolist() == [counts.get(c, 0) for c in range(N_CELLS)]


def test_spike_sum_follows_segment_order():
    # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 in binary floating point.
    layer = TmLayer(16, 2, 2, n_active=1, synapses_per_segment=2, segments_per_cell=3)
    for spike in (0.1, 0.2, 0.3):
        layer.add_segment(0, [2, 3], [0.5, 0.5], activation_threshold=1, spike_size=spike)
    evals = oracle.dense(layer._eval_segments([2]), layer.n_cells)
    assert evals.o_pred[0] == (0.0 + 0.1 + 0.2) + 0.3
    assert evals.o_pred[0] != (0.0 + 0.3 + 0.2) + 0.1


def slab_scan(layer, active):
    """Ascending rows of the segments seeing an active cell, with their raw
    and connected overlaps, read from the whole source slab."""
    n = layer._n_segments
    on = np.zeros(layer.n_cells + 1, dtype=bool)
    on[list(active)] = True
    hit = on[layer._sources[:n]]
    connected = hit & (layer._permanences[:n] >= layer.pattern.connect_threshold)
    raw, conn = hit.sum(axis=1), connected.sum(axis=1)
    rows = np.flatnonzero(raw)
    return rows, raw[rows], conn[rows]


def index_reference(layer, rows):
    """The presynaptic index of the first ``rows`` rows, built afresh: the
    flat slots by source, each source's slots ascending, and where each
    source's run starts."""
    keys = layer._sources[:rows].reshape(-1)
    counts = np.bincount(keys, minlength=layer.n_cells + 1)
    return np.argsort(keys, kind="stable"), np.concatenate(([0], np.cumsum(counts)))


def read_index(layer):
    """Bring the index up to date, as any read does."""
    layer._hit_slots(np.zeros(0, dtype=np.int64))


def assert_index_built(layer) -> int:
    """The index equals a fresh build of the rows it covers; returns how many."""
    order, ptr, rows = layer._index
    want_order, want_ptr = index_reference(layer, rows)
    assert order.tolist() == want_order.tolist()
    assert ptr.tolist() == want_ptr.tolist()
    return rows


def assert_index_current(layer):
    """The index agrees with a fresh build over the rows it covers, and
    after a read it covers every row."""
    assert_index_built(layer)
    read_index(layer)
    assert assert_index_built(layer) == layer._n_segments


def assert_evals_current(layer, segments, active):
    """``_eval_segments`` agrees with the oracle, with a scan of the whole
    slab, and field by field with a copy whose index covers every row."""
    evals = layer._eval_segments(active)
    assert_scores_match(layer, segments, active)
    rows, raw, conn = slab_scan(layer, active)
    assert evals.rows.tolist() == rows.tolist()
    assert evals.raw.tolist() == raw.tolist()
    assert evals.active.tolist() == (conn >= layer._thresholds[rows]).tolist()
    assert evals.owners[-1] == layer.n_cells
    assert (evals.o_pred[-1], evals.o_sub[-1], evals.best[-1]) == (0.0, 0.0, 0)
    assert not evals.predictive[-1]

    rebuilt = copy.deepcopy(layer)
    rebuilt._drop_index()
    for got, want in zip(evals, rebuilt._eval_segments(active)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


OPERATIONS = ("grow", "grow", "grow", "add_segment", "reset", "save_load", "rebuild")


@settings(max_examples=120, deadline=None)
@given(
    models(budgets=st.integers(3, 4), thresholds=st.integers(1, 2), spikes=st.sampled_from(SPIKES[1:4])),
    st.data(),
)
def test_index_tracks_every_store(model, data):
    """Growth, budget replacement of a full cell's weakest segment,
    ``add_segment``, reset, save/load and forced rebuilds, interleaved:
    after each, the index matches a fresh build, the maintained segments per
    cell match a count of the owners, and scoring through the index matches
    the references.

    Cells hold up to four segments with low thresholds and spikes of 0.1,
    0.2 or 0.3, so that several are active at once and their spike sum
    depends on its order. The index starts out covering every row, so
    growth at the budget overwrites indexed rows."""
    layer, segments = model
    read_index(layer)
    for op in data.draw(st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=12)):
        if op == "grow":
            # Growing a full cell again and again often replaces the same
            # weakest row twice between rebuilds.
            full = [c for c, segs in segments.items() if len(segs) >= layer.segments_per_cell]
            any_cell = st.integers(0, N_CELLS - 1)
            cell = data.draw(st.one_of(st.sampled_from(full), any_cell) if full else any_cell)
            for _ in range(data.draw(st.integers(1, 3))):
                prev_winners = data.draw(st.lists(any_cell, unique=True, min_size=1))
                seed = data.draw(st.integers(0, 2**16))
                rng = np.random.default_rng(seed)
                oracle.grow_segment(segments, cell, sorted(prev_winners), rng, layer)
                layer._rng = np.random.default_rng(seed)
                layer._grow_segment(cell, np.array(sorted(prev_winners), dtype=np.int64))
        elif op == "add_segment":
            cell = data.draw(st.integers(0, N_CELLS - 1))
            if len(segments.get(cell, [])) >= layer.segments_per_cell:
                continue
            others = [c for c in range(N_CELLS) if c != cell]
            sources = data.draw(
                st.lists(st.sampled_from(others), unique=True, max_size=layer.synapses_per_segment)
            )
            perms = data.draw(st.lists(PERMANENCES, min_size=len(sources), max_size=len(sources)))
            threshold, spike = data.draw(st.integers(1, 3)), data.draw(st.sampled_from(SPIKES))
            layer.add_segment(cell, sources, perms, threshold, spike)
            segments.setdefault(cell, []).append(
                oracle.Segment(sources, perms, layer.pattern.connect_threshold, threshold, spike)
            )
        elif op == "reset":
            layer.reset()
        elif op == "save_load":
            layer = TmLayer.from_state(layer.to_state())
        else:  # rebuild: the next read indexes every row afresh
            layer._drop_index()
        assert_index_current(layer)
        counts = np.bincount(layer._owner[: layer._n_segments], minlength=N_CELLS)
        assert layer._segment_counts.tolist() == counts.tolist()
        for active in data.draw(st.lists(busy_sets, min_size=1, max_size=3)):
            assert_evals_current(layer, segments, active)
