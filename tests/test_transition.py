import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import (
    CategoryEncoder,
    DimensionError,
    FiringSequence,
    PatternLayer,
    Sdr,
    TmLayer,
    capacity,
    firing_time,
    overlap,
    representation_views,
)
from minicolumn.transition import I_FF, I_PRED, I_SPREAD, P_BURST, P_PRED


def small_layer(**kw):
    defaults = dict(
        input_size=64,
        n_columns=16,
        cells_per_column=4,
        n_active=3,
        n_synapses=32,
        activation_threshold=2,
        min_match_threshold=1,
        synapses_per_segment=8,
        seed=3,
    )
    defaults.update(kw)
    return TmLayer(**defaults)


def segment_overlaps(sources, permanences, active, **kw):
    """(raw, connected) overlap of one segment, scored by the layer's kernel."""
    layer = small_layer(synapses_per_segment=16)
    layer.add_segment(0, sources, permanences, **kw)
    rows, raw, conn = layer._segment_overlaps(layer._cell_ids(active))
    return (int(raw[0]), int(conn[0])) if rows.size else (0, 0)


class TestDistalSegment:
    def test_overlap_empty(self):
        _, conn = segment_overlaps([1, 2, 3], [0.5, 0.5, 0.5], frozenset(), activation_threshold=2)
        assert conn == 0

    def test_overlap_all_connected_active(self):
        _, conn = segment_overlaps(range(16), [0.9] * 16, frozenset(range(16)), activation_threshold=2)
        assert conn == 16

    def test_overlap_hand_case(self):
        # connected at sources {10, 30}; active {20, 30} -> 1
        _, conn = segment_overlaps([10, 20, 30], [0.4, 0.1, 0.3], frozenset({20, 30}), activation_threshold=2)
        assert conn == 1

    def test_matching_ignores_permanence(self):
        raw, _ = segment_overlaps([10, 20, 30], [0.0, 0.0, 0.9], frozenset({10, 20}), activation_threshold=2)
        assert raw == 2

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            small_layer().add_segment(0, [1, 1], [0.5, 0.5])

    def test_rejects_sources_that_are_not_a_sequence(self):
        message = "segment sources: object of type 'int' has no len()"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_layer().add_segment(0, 5, [0.5])


class TestPredictivePotential:
    def test_no_segments(self):
        layer = small_layer()
        assert layer.predictive_potential(0, Sdr(layer.n_cells)) == 0.0

    def test_two_active_segments_sum(self):
        layer = small_layer()
        layer.add_segment(5, [1, 2, 3], [0.5] * 3, activation_threshold=2)
        layer.add_segment(5, [7, 8, 9], [0.5] * 3, activation_threshold=2)
        prev = Sdr(layer.n_cells, [1, 2, 3, 7, 8, 9])
        assert layer.predictive_potential(5, prev) == 2.0

    def test_subthreshold_contributes_nothing(self):
        layer = small_layer()
        layer.add_segment(5, [1, 2, 3], [0.5] * 3, activation_threshold=3)
        assert layer.predictive_potential(5, Sdr(layer.n_cells, [1, 2])) == 0.0

    @pytest.mark.parametrize("cell", [-1, 64, 65])
    def test_cell_outside_the_layer_rejected(self, cell):
        layer = small_layer()
        layer.add_segment(63, [1], [0.5], activation_threshold=1)
        with pytest.raises(ValueError, match="cell must lie in"):
            layer.predictive_potential(cell, Sdr(layer.n_cells, [1]))

    def test_activity_of_another_width_rejected(self):
        layer = small_layer()
        layer.add_segment(5, [1, 2], [0.5, 0.5], activation_threshold=2)
        with pytest.raises(DimensionError, match="16 != layer cells 64"):
            layer.predictive_potential(5, Sdr(16, [1, 2]))
        with pytest.raises(DimensionError):
            layer.depolarisation_rates(Sdr(64), Sdr(128, [1, 2]))

    @pytest.mark.parametrize(
        "active, message",
        [
            (np.array([1.0, 2.0]), "must be integer ids, got dtype float64"),
            ([1.5], "must be integer ids"),
            ([True], "must be integer ids, got dtype bool"),
            (np.array([[1, 2]]), "must be a flat list of ids, got shape"),
            ([[1], [2]], "must be a flat list of ids, got shape"),
            ([3, 64], r"must lie in \[0, 64\), got \[3, 64\]"),
        ],
    )
    def test_activity_that_is_not_cell_ids_rejected(self, active, message):
        layer = small_layer()
        layer.add_segment(5, [1, 2], [0.5, 0.5], activation_threshold=2)
        with pytest.raises(ValueError, match=f"active cells {message}"):
            layer.predictive_potential(5, active)


class TestDepolarisationRates:
    def test_zero_input_never_fires(self):
        assert firing_time(0.0) == math.inf

    def test_rate_formula(self):
        # alpha=1, beta=2, column overlap 10, one active segment -> d = 12
        layer = small_layer(
            input_size=16, n_columns=1, cells_per_column=2, n_active=1,
            n_synapses=10, alpha=1.0, beta=2.0, alpha_inh=3.0,
        )
        layer.pattern.sources = np.array([list(range(10))])
        layer.pattern.permanences = np.full((1, 10), 0.9)
        layer.add_segment(0, [1], [0.9], activation_threshold=1, spike_size=1.0)
        x = Sdr(16, range(10))
        d_cells, d_sheaths = layer.depolarisation_rates(x, Sdr(2, [1]))
        assert d_cells[0] == pytest.approx(12.0)
        assert d_cells[1] == pytest.approx(10.0)
        assert firing_time(d_cells[0], layer.gamma_p) == pytest.approx(1 / 12)

    @pytest.mark.parametrize(
        "kw, segment, fired",
        [
            # o_pred 1.0 is below predictive_threshold: the column bursts at alpha * 10
            (dict(cells_per_column=2, predictive_threshold=2.0), ([1], 1), (P_BURST, 10.0)),
            # half threshold: the bursting cell adds beta_sub * o_sub
            (dict(cells_per_column=4, beta_sub=1.0), ([1, 3], 2), (P_BURST, 11.0)),
            (dict(cells_per_column=2), ([1], 1), (P_PRED, 12.0)),
        ],
    )
    def test_rates_are_the_fired_rates(self, kw, segment, fired):
        layer = TmLayer(
            16, 1, n_active=1, n_synapses=10, beta=2.0, alpha_inh=3.0, min_match_threshold=1,
            **kw,
        )
        layer.pattern.sources = np.array([list(range(10))])
        layer.pattern.permanences = np.full((1, 10), 0.9)
        sources, threshold = segment
        layer.add_segment(0, sources, [0.9] * len(sources), activation_threshold=threshold)
        x = Sdr(16, range(10))
        d_cells, d_sheaths = layer.depolarisation_rates(x, Sdr(layer.n_cells, [1]))
        assert d_cells[0] == fired[1]
        layer._prev_active = Sdr(layer.n_cells, [1])
        events = layer.step(x, learn=False).firing_sequence
        assert (0, *fired) in events
        assert all(e.rate == d_sheaths[e.unit] for e in events if e.kind.startswith("I_"))

    def test_sheath_beats_pure_feedforward_cells(self):
        layer = small_layer(alpha=1.0, alpha_inh=1.5)
        x = Sdr(64, range(20))
        d_cells, d_sheaths = layer.depolarisation_rates(x, Sdr(layer.n_cells))
        for m in range(layer.n_columns):
            if d_sheaths[m] > 0:
                tau_sheath = firing_time(d_sheaths[m], layer.gamma_inh)
                tau_cell = firing_time(d_cells[m * 4], layer.gamma_p)
                assert tau_sheath < tau_cell

    def test_alpha_inh_inequality_enforced(self):
        with pytest.raises(ValueError):
            small_layer(alpha=1.0, alpha_inh=1.0, gamma_p=1.0, gamma_inh=1.0)


class TestFiringPartition:
    def test_first_step_bursts_everywhere(self):
        layer = small_layer()
        out = layer.step(Sdr(64, range(20)))
        assert out.anomaly == 1.0
        assert len(out.predicted_cells) == 0
        assert len(out.active_cells) == len(out.active_columns) * 4

    def test_partition_disjoint_and_complete(self):
        layer = small_layer()
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = Sdr(64, rng.choice(64, 12, replace=False))
            out = layer.step(x)
            assert overlap(out.predicted_cells, out.burst_cells) == 0
            assert set(out.active_cells) == set(out.predicted_cells) | set(out.burst_cells)
            for cell in out.active_cells:
                assert layer.column_of(cell) in out.active_columns.active_set
            for m in out.active_columns:
                assert any(layer.column_of(c) == m for c in out.active_cells)

    def test_firing_sequence_class_order_and_sorting(self):
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        out = layer.step(Sdr(64, range(20)))
        kinds = [e.kind for e in out.firing_sequence]
        rank = {P_PRED: 0, I_PRED: 1, I_FF: 2, P_BURST: 3, I_SPREAD: 4}
        assert kinds == sorted(kinds, key=rank.__getitem__)
        for kind in rank:
            rates = [e.rate for e in out.firing_sequence if e.kind == kind]
            assert rates == sorted(rates, reverse=True)

    def test_sheath_classes_match_column_state(self):
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        out = layer.step(Sdr(64, range(20)))
        pred_columns = {layer.column_of(c) for c in out.predicted_cells}
        for e in out.firing_sequence:
            if e.kind == I_PRED:
                assert e.unit in pred_columns
            elif e.kind == I_FF:
                assert e.unit in out.active_columns.active_set - pred_columns
            elif e.kind == I_SPREAD:
                assert e.unit not in out.active_columns.active_set

    def test_zero_input_is_empty_with_zero_anomaly(self):
        layer = small_layer()
        out = layer.step(Sdr(64))
        assert len(out.active_columns) == 0
        assert len(out.active_cells) == 0
        assert out.anomaly == 0.0

    def test_narrow_vertical_window_bursts_best_context_only(self):
        layer = small_layer(
            cells_per_column=4,
            dtau_vert=1e-6,
            beta_sub=1.0,
            activation_threshold=4,
            min_match_threshold=3,
        )
        # column 0 dominates the feedforward competition
        permanences = layer.pattern.permanences.copy()
        permanences[0, :] = 0.9
        layer.pattern.permanences = permanences
        sources = layer.pattern.sources.copy()
        sources[0, :20] = np.arange(20)
        layer.pattern.sources = sources
        # cell 1 of column 0 gets sub-threshold context (2 of 4 needed)
        layer.add_segment(1, [20, 21, 22, 23], [0.9] * 4, activation_threshold=4)
        layer._prev_active = Sdr(layer.n_cells, [20, 21])
        layer._prev_evals = layer._eval_segments([20, 21])
        x = Sdr(64, range(20))
        out = layer.step(x, learn=False)
        assert 0 in out.active_columns.active_set
        column0_cells = [c for c in out.active_cells if layer.column_of(c) == 0]
        assert column0_cells == [1]


class TestWinnerCells:
    def test_one_winner_per_active_column(self):
        layer = small_layer()
        out = layer.step(Sdr(64, range(20)))
        assert len(out.winner_cells) == len(out.active_columns)
        winner_columns = sorted(layer.column_of(c) for c in out.winner_cells)
        assert winner_columns == list(out.active_columns.active)

    def test_unique_predictive_cell_wins(self):
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        out = layer.step(Sdr(64, range(20)))
        pred = set(out.predicted_cells)
        for cell in out.winner_cells:
            if any(layer.column_of(p) == layer.column_of(cell) for p in pred):
                assert cell in pred

    def test_blank_burst_choice_reproducible(self):
        a = small_layer(seed=42)
        b = small_layer(seed=42)
        x = Sdr(64, range(20))
        assert a.step(x).winner_cells == b.step(x).winner_cells

    def test_best_matching_cell_wins_burst(self):
        layer = small_layer(min_match_threshold=2)
        target_column = None
        x = Sdr(64, range(20))
        probe = layer.pattern.raw_overlaps(x)
        target_column = int(np.argmax(probe))
        cell = target_column * 4 + 2
        layer.add_segment(cell, [50, 51, 52], [0.01, 0.01, 0.01], activation_threshold=3)
        layer._prev_active = Sdr(layer.n_cells, [50, 51, 52])
        layer._prev_evals = layer._eval_segments([50, 51, 52])
        out = layer.step(x, learn=False)
        assert cell in out.winner_cells.active_set

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.lists(st.integers(1, 40) | st.just(1) | st.integers(1, 2**40), min_size=1, max_size=60),
        st.booleans(),
    )
    def test_one_draw_over_bounds_is_one_draw_per_bound(self, seed, bounds, half_used):
        # _fire draws every blank column's pick at once. That equals one
        # scalar draw per column in order, values and generator state alike,
        # on numpy's implementation; numpy does not document it.
        one, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_used:  # an odd 32-bit draw leaves half of a 64-bit output buffered
            one.integers(7)
            loop.integers(7)
            assert one.bit_generator.state["has_uint32"] == 1
        drawn = one.integers(np.array(bounds, dtype=np.intp))
        assert drawn.tolist() == [int(loop.integers(b)) for b in bounds]
        assert one.bit_generator.state == loop.bit_generator.state


class TestDistalLearning:
    def test_reinforce_active_synapse(self):
        layer = small_layer(sigma_inc=0.1, sigma_dec=0.05)
        row = layer.add_segment(0, [1, 2], [0.4, 0.4], activation_threshold=1)
        on = np.zeros(layer.n_cells + 1, dtype=bool)  # source 1 active, the padding off
        on[1] = True
        layer._reinforce(np.array([row]), on, layer.sigma_inc, layer.sigma_dec)
        (seg,) = layer.segments[0]
        assert seg.permanences[0] == pytest.approx(0.44)
        assert seg.permanences[1] == pytest.approx(0.38)

    def test_blank_winner_grows_one_segment_from_prev_winners(self):
        layer = small_layer()
        x1 = Sdr(64, range(20))
        out1 = layer.step(x1)
        x2 = Sdr(64, range(30, 50))
        out2 = layer.step(x2)
        prev_winners = set(out1.winner_cells)
        for cell in out2.winner_cells:
            segs = layer.segments.get(cell, [])
            assert len(segs) == 1
            assert set(segs[0].sources) <= prev_winners

    def test_no_growth_without_prior_winners(self):
        layer = small_layer()
        out = layer.step(Sdr(64, range(20)))
        assert layer.segments == {}

    def test_segment_budget_replaces_weakest(self):
        layer = small_layer(segments_per_cell=2)
        cell = 0
        layer.add_segment(cell, [10, 11], [0.01, 0.01], activation_threshold=2)
        layer.add_segment(cell, [12, 13], [0.9, 0.9], activation_threshold=2)
        weak, strong = layer.segments[cell]
        layer._grow_segment(cell, np.array([30, 31, 32]))
        assert len(layer.segments[cell]) == 2
        assert strong in layer.segments[cell]
        assert weak not in layer.segments[cell]

    def test_punishment_decays_false_predictions(self):
        layer = small_layer(sigma_punish=0.5, beta=0.0)
        cell = 0  # column 0 cell: will be predicted but column 0 won't activate
        layer.add_segment(cell, [40, 41], [0.4, 0.4], activation_threshold=2)
        layer._prev_active = Sdr(layer.n_cells, [40, 41])
        layer._prev_evals = layer._eval_segments([40, 41])
        assert layer.prev_predictive.active == (cell,)
        layer.step(Sdr(64, range(40, 60)))
        seg = layer.segments[cell][0]
        # punishment applies only when column 0 stayed inactive, as it does here
        assert 0 not in {layer.column_of(c) for c in layer._prev_active}
        assert seg.permanences == pytest.approx([0.2, 0.2])

    def test_tied_best_match_reinforces_the_lower_row_only(self):
        layer = small_layer(n_active=2, activation_threshold=3, blank_winner="lowest")
        raw = np.zeros(layer.n_columns, dtype=np.int64)
        raw[:2] = [5, 4]  # columns 0 and 1 win; neither holds a predictive cell
        layer.pattern.raw_overlaps = lambda x_ff: raw
        # Cell 2 matches 1, 2 and 2 of the previous activity; no row is active.
        layer.add_segment(2, [40, 52], [0.5, 0.5])
        layer.add_segment(2, [40, 41, 50], [0.5] * 3)
        layer.add_segment(2, [40, 41, 51], [0.5] * 3)
        layer._prev_active = layer._prev_winners = Sdr(layer.n_cells, [40, 41])
        out = layer.step(Sdr(64))
        # Column 1's cells own no segment: its lowest cell wins and grows one.
        assert out.winner_cells.active == (2, 4)
        assert [seg.permanences for seg in layer.segments[2]] == [
            [0.5, 0.5],
            pytest.approx([0.55, 0.55, 0.49]),
            [0.5] * 3,
        ]
        assert [seg.sources for seg in layer.segments[4]] == [[40, 41]]


class TestHighOrderSequences:
    def test_abcd_vs_xbcy_cell_separation(self):
        enc = CategoryEncoder(1024, 20, rng_seed=1)
        tm = TmLayer(
            1024, 512, 8, n_active=10, seed=7,
            delta_inc=0.1, delta_dec=0.05, sigma_punish=0.05,
        )
        for _ in range(20):
            for seq in ("ABCD", "XBCY"):
                tm.reset()
                for sym in seq:
                    tm.step(enc.encode(sym))
        outs = {}
        for name, seq in (("A", "AB"), ("X", "XB")):
            tm.reset()
            for sym in seq:
                out = tm.step(enc.encode(sym), learn=False)
            outs[name] = out
        col_shared = overlap(outs["A"].active_columns, outs["X"].active_columns)
        cell_shared = overlap(outs["A"].active_cells, outs["X"].active_cells)
        assert col_shared >= 9
        assert cell_shared <= 2


class TestFirstOrderReduction:
    def test_single_cell_columns_with_beta_zero_match_pattern_memory(self):
        layer = TmLayer(128, 32, 1, n_active=4, beta=0.0, seed=21)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = Sdr(128, rng.choice(128, 16, replace=False))
            out = layer.step(x, learn=False)
            expected = layer.pattern.compute_sdr(x)
            assert out.active_columns == expected
            assert tuple(out.active_cells) == expected.active  # cell id == column id


class TestDeterminism:
    def test_identical_seed_identical_stream(self):
        rng = np.random.default_rng(12)
        inputs = [Sdr(64, rng.choice(64, 12, replace=False)) for _ in range(40)]
        a = small_layer(seed=99)
        b = small_layer(seed=99)
        for x in inputs:
            oa, ob = a.step(x), b.step(x)
            assert oa.active_cells == ob.active_cells
            assert oa.winner_cells == ob.winner_cells
            assert oa.firing_sequence == ob.firing_sequence
            assert oa.anomaly == ob.anomaly


class TestReset:
    def test_reset_clears_state_not_segments(self):
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        layer.step(Sdr(64, range(30, 50)))
        segments_before = {c: len(s) for c, s in layer.segments.items()}
        layer.reset()
        assert layer.prev_active == Sdr(layer.n_cells)
        assert layer.prev_winners == Sdr(layer.n_cells)
        assert {c: len(s) for c, s in layer.segments.items()} == segments_before
        out = layer.step(Sdr(64, range(20)))
        assert out.anomaly == 1.0


class TestRepresentationViews:
    def test_views_partition_and_order(self):
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        out = layer.step(Sdr(64, range(20)))
        views = representation_views(out)
        assert views["columnar"] == out.active_columns
        assert views["cellular"] == out.active_cells
        assert len(views["cellular"]) == len(views["pred_cellular"]) + len(
            views["burst_cellular"]
        )
        ordered = views["ordered"]
        assert all(e.kind in (P_PRED, P_BURST) for e in ordered)
        assert len(ordered) == len(out.active_cells)
        if ordered:
            best_rate = max(e.rate for e in ordered)
            assert ordered[0].rate == best_rate or ordered[0].kind == P_PRED

    @pytest.mark.parametrize(
        "bits, on, n_columns, cells, n_active",
        [(1024, 20, 512, 8, 10), (2048, 40, 2048, 32, 40)],
        ids=["desk", "paper"],
    )
    def test_ordered_view_is_the_cell_events_in_firing_order(
        self, bits, on, n_columns, cells, n_active
    ):
        enc = CategoryEncoder(bits, on, rng_seed=1)
        tm = TmLayer(
            bits, n_columns, cells, n_active=n_active, n_synapses=32, delta_inc=0.1,
            delta_dec=0.05, seed=7,
        )
        for _ in range(8):
            tm.reset()
            for symbol in "ABCD":
                tm.step(enc.encode(symbol))
        tm.reset()
        kinds = set()
        for symbol in "ABCD":
            out = tm.step(enc.encode(symbol), learn=False)
            ordered = representation_views(out)["ordered"]
            assert isinstance(ordered, FiringSequence)
            expected = tuple(e for e in out.firing_sequence if e.kind in (P_PRED, P_BURST))
            assert tuple(ordered) == expected
            kinds.update(e.kind for e in ordered)
        # the first step after the reset bursts, the trained ones are predicted
        assert kinds == {P_PRED, P_BURST}

    def test_perfect_prediction_empty_burst_views(self):
        enc = CategoryEncoder(64, 12, rng_seed=2)
        layer = small_layer(blank_winner="lowest")
        for _ in range(6):
            layer.step(enc.encode("A"))
            layer.step(enc.encode("B"))
        out = layer.step(enc.encode("A"), learn=False)
        views = representation_views(out)
        assert len(views["burst_cellular"]) == 0
        assert len(views["burst_columnar"]) == 0


class TestCapacity:
    def test_columnar_matches_published_value(self):
        result = capacity(2048, 40, 32)
        expected = math.log10(2.37178) + 84
        assert abs(result["columnar"] - expected) / expected <= 1e-4

    def test_contexts_matches_published_value(self):
        result = capacity(2048, 40, 32)
        expected = math.log10(1.60694) + 60
        assert abs(result["contexts"] - expected) / expected <= 1e-4

    def test_cellular_matches_published_value(self):
        result = capacity(2048, 40, 32)
        expected = math.log10(3.8113) + 144
        assert abs(result["cellular"] - expected) / expected <= 1e-4

    def test_small_case_against_exact_binomial(self):
        result = capacity(10, 3, 2)
        assert result["columnar"] == pytest.approx(math.log10(120))
        assert result["contexts"] == pytest.approx(math.log10(8))
        assert result["cellular"] == pytest.approx(math.log10(960))

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            capacity(10, 11, 2)


class TestCardinalityBounds:
    def test_bounds_hold_when_all_columns_activate(self):
        layer = small_layer()
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = Sdr(64, rng.choice(64, 16, replace=False))
            out = layer.step(x)
            if len(out.active_columns) == layer.pattern.n_active:
                assert layer.pattern.n_active <= len(out.active_cells)
                assert len(out.active_cells) <= layer.pattern.n_active * 4


NAN, INF = math.nan, math.inf


class TestParameterChecks:
    """Values a layer could not score with, or whose snapshot it could not
    load back, are rejected when the layer is built."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("initial_segment_permanence", 1.5),
            ("initial_segment_permanence", -0.1),
            ("initial_segment_permanence", NAN),
            ("delta_dec", 1.5),
            ("delta_inc", NAN),
            ("sigma_dec", 1.5),
            ("sigma_punish", 1.5),
            ("beta", NAN),
            ("beta", INF),
            ("beta_sub", NAN),
            ("predictive_threshold", NAN),
            ("dtau_vert", NAN),
            ("dtau_vert", -INF),
            ("spike_size", INF),
            ("alpha_inh", INF),
            ("alpha_inh", 1e308),
            ("activation_threshold", INF),
            ("potential_fraction", INF),
        ],
    )
    def test_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_layer(**{name: value})

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(cells_per_column=0), "cells_per_column must be >= 1"),
            (dict(beta=-1), "beta and beta_sub must be >= 0"),
            (dict(blank_winner="x"), "blank_winner must be 'random' or 'lowest', got 'x'"),
            (dict(segments_per_cell=0), "segment budgets must be >= 1"),
            (dict(sigma_inc=-0.1), "sigma_inc must be >= 0"),
            (dict(activation_threshold=0), "activation_threshold must be >= 1"),
        ],
    )
    def test_rejected_with_message(self, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_layer(**kw)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("cells_per_column", 4.5),
            ("synapses_per_segment", 32.9),
            ("segments_per_cell", 2.5),
            ("activation_threshold", 7.5),
            ("min_match_threshold", 1.5),
            ("input_size", 64.5),
            ("n_columns", 16.2),
            ("n_active", 3.5),
            ("n_synapses", 31.5),
            ("min_overlap", 0.5),
        ],
    )
    def test_non_integral_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            small_layer(**{name: value})

    @pytest.mark.parametrize(
        "name",
        [
            "cells_per_column", "input_size", "n_active", "n_synapses", "min_overlap",
            "potential_fraction", "connect_threshold", "delta_inc", "delta_dec", "alpha", "beta",
            "beta_sub", "gamma_p", "dtau_vert", "predictive_threshold", "activation_threshold",
            "spike_size", "sigma_inc", "sigma_dec", "sigma_punish", "initial_segment_permanence",
        ],
    )
    def test_boolean_rejected(self, name):
        # True once passed every check as 1, and False as 0 where 0 is allowed
        for value in (True, np.True_):
            with pytest.raises(ValueError, match=f"{name} must not be a boolean"):
                small_layer(**{name: value})

    def test_boolean_cell_count_rejected(self):
        # this built a layer of one cell per column
        with pytest.raises(ValueError, match="cells_per_column must not be a boolean, got True"):
            TmLayer(64, 64, True)

    def test_integral_floats_accepted(self):
        layer = small_layer(cells_per_column=4.0, synapses_per_segment=8.0, n_columns=16.0)
        assert (layer.cells_per_column, layer.synapses_per_segment, layer.n_columns) == (4, 8, 16)
        assert all(type(v) is int for v in (layer.cells_per_column, layer.pattern.n_columns))

    def test_infinite_vertical_window_accepted(self):
        assert small_layer(dtau_vert=INF).dtau_vert == INF

    def test_bounds_accepted(self):
        layer = small_layer(initial_segment_permanence=1.0, sigma_dec=1.0, delta_dec=0.0)
        assert (layer.initial_segment_permanence, layer.sigma_dec) == (1.0, 1.0)

    def test_sheath_rate_that_overflows_rejected_without_a_warning(self):
        # The sheath's rate alpha_inh * overlap must stay finite for every
        # overlap up to n_synapses=32: top / 32 * 32 does, top / 31 * 32 does not.
        top = np.finfo(np.float64).max
        assert small_layer(alpha_inh=top / 32).alpha_inh == top / 32
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"alpha_inh \* overlap must be finite and rise"):
                small_layer(alpha_inh=top / 31)

    def test_subnormal_sheath_rate_rejected(self):
        # With alpha this small, alpha * gamma_inh / gamma_p rounds to 0 and
        # the smallest subnormal alpha_inh passes the gamma rule. Its rates
        # still rise with the overlap, but a sheath's firing time
        # gamma_inh / alpha_inh overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "with gamma_inh / alpha_inh finite; got alpha_inh=5e-324"
            with pytest.raises(ValueError, match=message):
                small_layer(alpha=5e-324, gamma_p=2.0, alpha_inh=5e-324)
        # a normal alpha near the smallest passes every rule, and so does alpha_inh
        assert small_layer(alpha=2.3e-308, gamma_p=2.0, alpha_inh=2e-308).alpha_inh == 2e-308

    def test_sheath_rate_check_matches_the_rule_on_every_overlap(self):
        # The layer tests the top rate alone; the rule is that every rate
        # alpha_inh * k for k = 0..n_synapses is finite and above the last.
        top = np.finfo(np.float64).max
        tiny = np.finfo(np.float64).smallest_subnormal
        rng = np.random.default_rng(0)
        sizes = [1, 2, 3, 31, 32, 1000, 65535, 65536, 2**17]
        alphas = [tiny, 2 * tiny, 7 * tiny, 1e-320, 1e-310, 2e-308, 1.5, 1e308, top]
        alphas += (10.0 ** rng.uniform(-323, 308.2, 500)).tolist()
        alphas += [math.nextafter(top / n, d) for n in sizes for d in (0.0, math.inf)]
        alphas += [top / n for n in sizes]
        layer = small_layer()
        for n in sizes:
            pattern = PatternLayer(n, 1, n_active=1, n_synapses=n)
            for alpha_inh in alphas:
                with np.errstate(all="ignore"):  # inf * 0 too
                    rates = alpha_inh * np.arange(n + 1)
                    slowest = layer.gamma_inh / np.float64(alpha_inh)
                rule = (rates[1:] > rates[:-1]).all() and np.isfinite([rates[-1], slowest]).all()
                layer.alpha_inh = float(alpha_inh)  # as the layer stores it
                try:
                    layer._attach(pattern, rng)
                except ValueError as exc:
                    assert not rule and "alpha_inh * overlap must be finite" in str(exc)
                else:
                    assert rule, (alpha_inh, n)

    def test_alpha_whose_drive_or_firing_time_overflows_rejected_without_a_warning(self):
        # A subnormal alpha passes the rule on alpha_inh, but a bursting
        # cell's firing time gamma_p / alpha overflows; alpha * 32 overflows
        # for alpha above top / 32, with gamma_p large enough to pass that rule.
        top = np.finfo(np.float64).max
        message = r"alpha \* n_synapses and gamma_p / alpha must be finite; got alpha="
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, gamma_p, alpha_inh in ((5e-324, 2.0, 1e-308), (top / 31, 1e300, 1e7)):
                with pytest.raises(ValueError, match=message):
                    small_layer(alpha=alpha, gamma_p=gamma_p, alpha_inh=alpha_inh)
        assert small_layer(alpha=top / 32, gamma_p=1e300, alpha_inh=1e7).alpha == top / 32

    def test_layer_of_2_31_cells_rejected(self):
        # The presynaptic index packs each source cell into 31 bits; the
        # refusal comes before any distal array is allocated.
        with pytest.raises(ValueError, match=r"layer of 2147483648 cells"):
            small_layer(n_columns=2, n_active=1, cells_per_column=2**30)

    def test_infinite_segment_spike_rejected(self):
        with pytest.raises(ValueError, match="spike_size"):
            small_layer().add_segment(0, [5], [0.5], spike_size=INF)

    @pytest.mark.filterwarnings("error")
    def test_sub_threshold_drive_whose_firing_time_overflows_rejected(self):
        # A column without feedforward overlap (min_overlap 0) times its
        # bursting cells as gamma_p / (beta_sub * o_sub), which overflowed
        # in _fire for a subnormal beta_sub and raised a RuntimeWarning.
        params = dict(
            input_size=16, n_columns=8, cells_per_column=4, n_active=8, n_synapses=4,
            min_overlap=0, activation_threshold=4, min_match_threshold=1,
            synapses_per_segment=4, seed=1,
        )
        message = r"gamma_p / \(beta_sub \* spike_size\) must be finite; got beta_sub="
        with pytest.raises(ValueError, match=message + "5e-324 with spike_size=1.0"):
            TmLayer(beta_sub=5e-324, **params)
        with pytest.raises(ValueError, match=message):
            TmLayer(beta_sub=1e-300, spike_size=1e-10, **params)  # the product underflows
        layer = TmLayer(beta_sub=1e-308, **params)
        for cell in range(layer.n_cells):
            sources = [c for c in (0, 1, 2) if c != cell][:2]
            layer.add_segment(cell, sources, [0.5, 0.5])
        layer._prev_active = Sdr(layer.n_cells, [0, 1, 2])
        layer._prev_evals = None
        out = layer.step(Sdr(16, []))
        assert len(out.active_columns) == 8
        # a segment's own spike is checked too, and nothing is stored
        with pytest.raises(ValueError, match=message + "1e-308 with spike_size=1e-10"):
            layer.add_segment(0, [5], [0.5], spike_size=1e-10)
        assert layer._n_segments == layer.n_cells
        # without sub-threshold drive, any positive spike will do
        small_layer(beta_sub=0.0).add_segment(0, [5], [0.5], spike_size=5e-324)


class TestNoActivityEvaluation:
    def test_is_prebuilt_read_only_and_equal_to_a_fresh_one(self):
        layer = small_layer()
        layer.add_segment(5, [1, 2], [0.5, 0.5], activation_threshold=2)
        idle = layer._eval_segments([])
        assert idle is layer._idle
        n = layer.n_cells
        empty = np.zeros(0, dtype=np.int64)
        expected = (
            empty, empty, empty.astype(bool), empty, np.array([n]), np.zeros(1), np.zeros(1),
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool),
        )
        for got, want in zip(idle, expected, strict=True):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        # activity that reaches no segment scores the same: the shared evaluation itself
        assert layer._eval_segments(np.array([40, 41])) is layer._idle

    def test_reset_and_load_read_it_only_for_no_activity(self):
        layer = small_layer()
        layer.add_segment(5, [1, 2], [0.5, 0.5], activation_threshold=2)
        layer.step(Sdr(64, range(20)))
        layer.reset()
        assert layer._previous_evals() is layer._idle
        layer._prev_active = Sdr(layer.n_cells, [1, 2])
        layer._prev_evals = None
        assert layer.prev_predictive.active == (5,)
        loaded = TmLayer.from_state(layer.to_state())
        assert loaded.prev_predictive.active == (5,)
        assert loaded._previous_evals() is not loaded._idle

    def test_steps_after_resets_leave_it_unchanged(self):
        layer = small_layer()
        before = [array.copy() for array in layer._idle]
        for x in (range(20), range(10, 30), range(20), range(40, 60)):
            layer.reset()
            layer.step(Sdr(64, x), learn=False)
            layer.reset()
            layer.step(Sdr(64, x))
            layer.step(Sdr(64, range(30, 50)))
        assert layer._n_segments > 0
        for got, want in zip(layer._idle, before):
            assert np.array_equal(got, want)

    def test_learning_after_a_reset_grows_nothing(self, monkeypatch):
        # No previous winners: segment growth is skipped, and no rng is drawn for it.
        layer = small_layer()
        layer.step(Sdr(64, range(20)))
        layer.reset()

        def grow(cell, prev_winners):
            raise AssertionError("grew a segment with no previous winners")

        monkeypatch.setattr(layer, "_grow_segment", grow)
        layer.step(Sdr(64, range(30, 50)))
