import numpy as np
import pytest

from minicolumn import DimensionError, PatternLayer, PoolingLayer, Sdr, TmLayer, stability


def rand_sdr(rng, universe, k):
    return Sdr(universe, rng.choice(universe, k, replace=False))


def make_stack(seed=5):
    tm = TmLayer(256, 128, 4, n_active=6, seed=seed)
    pool = PoolingLayer(tm.n_cells, 64, n_active=4, seed=seed + 1)
    return tm, pool


class TestTpStep:
    def test_persistence_zero_reduces_to_pattern_layer(self):
        tm, _ = make_stack()
        plain = PatternLayer(tm.n_cells, 64, n_active=4, min_overlap=2, seed=6)
        pool = PoolingLayer(tm.n_cells, 64, n_active=4, persistence=0.0, seed=6)
        rng = np.random.default_rng(2)
        for _ in range(30):
            out = tm.step(rand_sdr(rng, 256, 20))
            assert pool.tp_step(out) == plain.compute_sdr(out.active_cells)

    def test_bursting_input_contributes_no_persistence(self):
        tm, pool = make_stack()
        rng = np.random.default_rng(3)
        out = tm.step(rand_sdr(rng, 256, 20))  # first step: all bursting
        assert len(out.predicted_cells) == 0
        first = pool.tp_step(out)
        # replay the same fully-bursting output: score has no hysteresis term,
        # so the result must equal a fresh selection on the same input
        again = pool.tp_step(out)
        assert again == first

    def test_dimension_check(self):
        tm, _ = make_stack()
        pool = PoolingLayer(tm.n_cells + 1, 64, n_active=4, seed=1)
        out = tm.step(Sdr(256, range(20)))
        with pytest.raises(Exception):
            pool.tp_step(out)


class TestTpLearn:
    def _one_synapse_pool(self, perm, **rates):
        pool = PoolingLayer(8, 1, n_active=1, n_synapses=1, min_overlap=0, seed=0, **rates)
        pool.sources = np.array([[0]])
        pool.permanences = np.array([[perm]])
        return pool

    def _output(self, tm_cells=8, pred=(), burst=()):
        from minicolumn.transition import LayerOutput

        return LayerOutput(
            active_columns=Sdr(1, [0]),
            active_cells=Sdr(tm_cells, sorted(set(pred) | set(burst))),
            predicted_cells=Sdr(tm_cells, pred),
            burst_cells=Sdr(tm_cells, burst),
            winner_cells=Sdr(tm_cells),
            firing_sequence=(),
            predictive_cells_next=Sdr(tm_cells),
            anomaly=0.0,
        )

    def test_predicted_source_rate(self):
        pool = self._one_synapse_pool(0.4, delta_inc_pred=0.12)
        pool.tp_learn(self._output(pred=[0]), Sdr(1, [0]))
        assert pool.permanences[0, 0] == pytest.approx(0.448)

    def test_bursting_source_rate(self):
        pool = self._one_synapse_pool(0.4, delta_inc_burst=0.02)
        pool.tp_learn(self._output(burst=[0]), Sdr(1, [0]))
        assert pool.permanences[0, 0] == pytest.approx(0.408)

    def test_inactive_source_uses_burst_decay(self):
        pool = self._one_synapse_pool(0.4, delta_dec_burst=0.05)
        pool.tp_learn(self._output(pred=[1]), Sdr(1, [0]))
        assert pool.permanences[0, 0] == pytest.approx(0.38)

    def test_non_winner_unchanged(self):
        pool = PoolingLayer(16, 4, n_active=1, seed=2)
        before = pool.permanences.copy()
        pool.tp_learn(self._output(tm_cells=16, pred=[0, 1]), Sdr(4))
        assert np.array_equal(pool.permanences, before)

    def test_uniform_rates_match_pattern_learn(self):
        tm, _ = make_stack()
        pool = PoolingLayer(
            tm.n_cells, 64, n_active=4, persistence=0.0, seed=9,
            delta_inc_pred=0.05, delta_inc_burst=0.05,
            delta_dec_pred=0.008, delta_dec_burst=0.008,
        )
        plain = PatternLayer(tm.n_cells, 64, n_active=4, min_overlap=2, seed=9)
        assert np.array_equal(pool.permanences, plain.permanences)
        rng = np.random.default_rng(4)
        for _ in range(25):
            out = tm.step(rand_sdr(rng, 256, 20))
            a = pool.tp_step(out)
            b = plain.compute_sdr(out.active_cells)
            assert a == b
            pool.tp_learn(out, a)
            plain.learn(out.active_cells, b)
            assert np.array_equal(pool.permanences, plain.permanences)

    def test_width_checks(self):
        pool = self._one_synapse_pool(0.4)
        with pytest.raises(DimensionError, match="input width 9 != layer width 8"):
            pool.tp_learn(self._output(tm_cells=9, burst=[0]), Sdr(1, [0]))
        with pytest.raises(DimensionError, match="winners width 2 != layer size 1"):
            pool.tp_learn(self._output(burst=[0]), Sdr(2, [0]))
        assert pool.permanences[0, 0] == 0.4

    def test_rate_ordering_validated(self):
        with pytest.raises(ValueError):
            PoolingLayer(16, 4, delta_inc_pred=0.01, delta_inc_burst=0.02)
        with pytest.raises(ValueError):
            PoolingLayer(16, 4, delta_dec_pred=0.05, delta_dec_burst=0.01)


def _narrow_prediction(pool):
    """Active cells as wide as the pool's input, predicted cells half as wide."""
    from minicolumn.transition import LayerOutput

    return LayerOutput(
        active_columns=Sdr(1, [0]),
        active_cells=Sdr(pool.input_size, [1, 2, 3]),
        predicted_cells=Sdr(pool.input_size // 2, [1]),
        burst_cells=Sdr(pool.input_size, [2, 3]),
        winner_cells=Sdr(pool.input_size),
        firing_sequence=(),
        predictive_cells_next=Sdr(pool.input_size),
        anomaly=0.0,
    )


def test_tp_learn_checks_predicted_width():
    pool = PoolingLayer(64, 8, n_active=2, seed=0)
    before = pool.permanences.copy()
    with pytest.raises(DimensionError, match="predicted cells width 32 != layer width 64"):
        pool.tp_learn(_narrow_prediction(pool), Sdr(8, [0, 1]))
    assert np.array_equal(pool.permanences, before)


@pytest.mark.parametrize("persistence", [0.0, 0.5])
def test_tp_step_checks_predicted_width(persistence):
    """Also where the persistence term, which reads the predicted cells, is
    skipped: on the first step, or with ``persistence`` 0."""
    pool = PoolingLayer(64, 8, n_active=2, persistence=persistence, seed=0)
    with pytest.raises(DimensionError, match="predicted cells width 32 != layer width 64"):
        pool.tp_step(_narrow_prediction(pool))
    assert not pool.active_prev.active


class TestStability:
    def test_identical_history_is_stable(self):
        s = Sdr(64, range(8))
        assert stability([s, s, s], 8) == 0.0

    def test_disjoint_history_is_unstable(self):
        a = Sdr(64, range(8))
        b = Sdr(64, range(8, 16))
        assert stability([a, b, a, b], 8) == 1.0

    def test_alternating_half_overlap(self):
        a = Sdr(64, range(8))
        b = Sdr(64, range(4, 12))
        assert stability([a, b, a], 8) == 0.5

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            stability([Sdr(8, [1])])

    @pytest.mark.parametrize("n_active", [0.5, True, 2, 0, -1, 8.0, "8"])
    def test_n_active_that_cannot_bound_the_overlaps_rejected(self, n_active):
        s = Sdr(64, [1, 2, 3])
        with pytest.raises(ValueError, match="n_active must be an integer >= 3"):
            stability([s, s], n_active)

    def test_n_active_defaults_to_the_largest_cardinality(self):
        a, b = Sdr(64, [1, 2, 3, 4]), Sdr(64, [1, 2])
        assert stability([a, b]) == stability([a, b], np.int64(4)) == 0.5

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="n_active must be an integer >= 1"):
            stability([Sdr(8), Sdr(8)])


@pytest.mark.parametrize(
    "name, value",
    [
        ("delta_dec_pred", 1.5),
        ("delta_dec_burst", float("nan")),
        ("delta_inc_pred", float("inf")),
        ("delta_inc_burst", float("nan")),
        ("delta_dec", 1.5),
    ],
)
def test_rejected_parameter(name, value):
    with pytest.raises(ValueError, match=name):
        PoolingLayer(64, 16, n_active=2, **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("persistence", False),
        ("delta_inc_pred", True),
        ("delta_dec_burst", True),
        ("n_active", True),
    ],
)
def test_boolean_parameter_rejected(name, value):
    # persistence False read as 0.0, and a True rate as 1.0
    with pytest.raises(ValueError, match=f"{name} must not be a boolean"):
        PoolingLayer(64, 16, **dict({"n_active": 2}, **{name: value}))
