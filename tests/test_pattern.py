import tracemalloc
from functools import partial

import numpy as np
import pytest

from minicolumn import DimensionError, PatternLayer, PoolingLayer, Sdr, TmLayer
from minicolumn.pattern import reconstruction_error


def one_column(sources, permanences, input_size=16, threshold=0.2):
    layer = PatternLayer(
        input_size, 1, n_active=1, n_synapses=len(sources), connect_threshold=threshold, seed=0
    )
    layer.sources = np.array([sources])
    layer.permanences = np.array([permanences], dtype=np.float64)
    return layer


def connected_synapses(layer):
    """Per synapse of the one column: does an input on its source count?"""
    return [
        int(layer.raw_overlaps(Sdr(layer.input_size, [source]))[0])
        for source in layer.sources[0]
    ]


class TestConnectionVector:
    def test_elementwise_threshold(self):
        layer = one_column([0, 1, 2], [0.3, 0.1, 0.25])
        assert connected_synapses(layer) == [1, 0, 1]

    def test_equality_connects(self):
        layer = one_column([0], [0.2])
        assert connected_synapses(layer) == [1]

    def test_all_zero(self):
        layer = one_column([0, 1], [0.0, 0.0])
        assert connected_synapses(layer) == [0, 0]


class TestFfOverlap:
    def test_maximum(self):
        layer = one_column([2, 5, 7], [0.9, 0.9, 0.9])
        assert layer.raw_overlaps(Sdr(16, [2, 5, 7])).tolist() == [3]

    def test_empty_input(self):
        layer = one_column([2, 5, 7], [0.9, 0.9, 0.9])
        assert layer.raw_overlaps(Sdr(16)).tolist() == [0]

    def test_hand_intersection(self):
        # connected synapses at inputs {2, 7}; input covers {5, 7} -> 1
        layer = one_column([2, 5, 7], [0.4, 0.1, 0.3])
        assert layer.raw_overlaps(Sdr(16, [5, 7])).tolist() == [1]

    def test_dimension_error(self):
        layer = one_column([2], [0.4])
        with pytest.raises(DimensionError):
            layer.raw_overlaps(Sdr(8, [2]))


class TestComputeSdr:
    def test_cardinality_at_scale(self):
        layer = PatternLayer(2048, 2048, n_active=40, seed=1)
        x = Sdr(2048, np.random.default_rng(0).choice(2048, 40, replace=False))
        out = layer.compute_sdr(x)
        assert out.cardinality == 40

    def test_empty_input_with_floor(self):
        layer = PatternLayer(64, 32, n_active=4, min_overlap=1, seed=1)
        assert layer.compute_sdr(Sdr(64)) == Sdr(32)

    def test_tie_break_lower_index(self):
        layer = PatternLayer(8, 4, n_active=1, n_synapses=4, seed=1)
        layer.sources = np.array([[0, 1, 2, 3]] * 4)
        layer.permanences = np.full((4, 4), 0.9)
        out = layer.compute_sdr(Sdr(8, [0, 1]))
        assert out.active == (0,)

    def test_fewer_than_k_when_floor_filters(self):
        layer = PatternLayer(8, 4, n_active=3, n_synapses=4, min_overlap=2, seed=1)
        layer.sources = np.array([[0, 1, 2, 3], [0, 1, 2, 3], [4, 5, 6, 7], [4, 5, 6, 7]])
        layer.permanences = np.full((4, 4), 0.9)
        out = layer.compute_sdr(Sdr(8, [0, 1, 4]))
        assert out.active == (0, 1)  # columns 2,3 see only one bit


class TestLearn:
    def _single(self, perm, on, delta_inc=0.1, delta_dec=0.1):
        layer = PatternLayer(4, 1, n_active=1, n_synapses=1, seed=0,
                             delta_inc=delta_inc, delta_dec=delta_dec)
        layer.sources = np.array([[0]])
        layer.permanences = np.array([[perm]])
        layer.learn(Sdr(4, [0] if on else []), Sdr(1, [0]))
        return layer.permanences[0, 0]

    def test_increment_on_active(self):
        assert self._single(0.5, on=True) == pytest.approx(0.55)

    def test_decrement_on_inactive(self):
        assert self._single(0.5, on=False) == pytest.approx(0.45)

    def test_non_winner_unchanged(self):
        layer = PatternLayer(8, 2, n_active=1, n_synapses=4, seed=3)
        before = layer.permanences.copy()
        layer.learn(Sdr(8, [0, 1]), Sdr(2, [0]))
        assert np.array_equal(layer.permanences[1], before[1])
        assert not np.array_equal(layer.permanences[0], before[0])

    def test_equality_boundary_increments(self):
        # p == threshold counts as connected and takes the increment branch
        assert self._single(0.2, on=True) == pytest.approx(0.22)

    def test_clamped_to_one(self):
        assert self._single(0.99, on=True) == 1.0

    def test_permanences_stay_bounded(self):
        rng = np.random.default_rng(7)
        layer = PatternLayer(64, 16, n_active=4, seed=7)
        for _ in range(200):
            x = Sdr(64, rng.choice(64, 8, replace=False))
            layer.learn(x, layer.compute_sdr(x))
        assert layer.permanences.min() >= 0.0
        assert layer.permanences.max() <= 1.0


class TestReconstruction:
    def test_empty_winners(self):
        layer = PatternLayer(16, 4, n_active=2, seed=0)
        assert layer.reconstruct(Sdr(4)).tolist() == [0] * 16

    def test_single_winner_masked(self):
        layer = PatternLayer(16, 1, n_active=1, n_synapses=2, seed=0)
        layer.sources = np.array([[3, 9]])
        layer.permanences = np.array([[0.5, 0.5]])
        out = layer.masked_reconstruct(Sdr(1, [0]), Sdr(16, [1, 3, 9]))
        expected = [0] * 16
        expected[3] = expected[9] = 1
        assert out.tolist() == expected

    def test_shared_source_sums(self):
        layer = PatternLayer(16, 2, n_active=2, n_synapses=2, seed=0)
        layer.sources = np.array([[3, 7], [7, 11]])
        layer.permanences = np.full((2, 2), 0.5)
        out = layer.masked_reconstruct(Sdr(2, [0, 1]), Sdr(16, [7]))
        assert out[7] == 2
        assert out.sum() == 2

    def test_error_zero_when_covered(self):
        x = Sdr(16, [1, 2])
        x_hat = np.zeros(16)
        x_hat[[1, 2]] = 3
        assert reconstruction_error(x, x_hat) == 0.0

    def test_error_all_missed(self):
        x = Sdr(64, range(40))
        assert reconstruction_error(x, np.zeros(64)) == 40.0

    def test_error_symmetric_difference(self):
        x = Sdr(16, [1, 2])
        x_hat = np.zeros(16)
        x_hat[[2, 3]] = 1
        assert reconstruction_error(x, x_hat) == 2.0

    def test_error_dimension_check(self):
        with pytest.raises(DimensionError):
            reconstruction_error(Sdr(16, [1]), np.zeros(8))


@pytest.mark.parametrize(
    "call",
    [
        lambda layer, winners: layer.learn(Sdr(16, [1]), winners),
        lambda layer, winners: layer.reconstruct(winners),
    ],
    ids=["learn", "reconstruct"],
)
def test_winner_width_checked(call):
    layer = PatternLayer(16, 4, n_active=1, seed=0)
    before = layer.permanences.copy()
    with pytest.raises(DimensionError, match="winners width 5 != layer size 4"):
        call(layer, Sdr(5, [0]))
    assert np.array_equal(layer.permanences, before)


def test_monotone_reconstruction_on_fixed_input():
    # Fixed input repeated: masked reconstruction error never increases.
    layer = PatternLayer(128, 64, n_active=4, seed=9)
    x = Sdr(128, np.random.default_rng(5).choice(128, 16, replace=False))
    errors = []
    for _ in range(50):
        winners = layer.compute_sdr(x)
        errors.append(reconstruction_error(x, layer.masked_reconstruct(winners, x)))
        layer.learn(x, winners)
    assert all(a >= b for a, b in zip(errors, errors[1:]))


class TestParameterChecks:
    @pytest.mark.parametrize("cls", [PatternLayer, PoolingLayer])
    def test_non_integral_size_rejected(self, cls):
        with pytest.raises(ValueError, match="n_columns must be an integer, got 16.2"):
            cls(64, 16.2, n_active=2, seed=0)

    @pytest.mark.parametrize(
        "cls",
        [
            PatternLayer, PoolingLayer,
            pytest.param(partial(TmLayer, cells_per_column=4), id="TmLayer"),
        ],
    )
    @pytest.mark.parametrize(
        "sizes, name", [((64, 10**400), "n_columns"), ((10**400, 64), "input_size")]
    )
    def test_size_too_large_for_a_float_rejected(self, cls, sizes, name):
        # was an OverflowError from the sparsity and potential_fraction products
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(*sizes, seed=0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            # a fraction is refused even where a count given beside it wins
            (dict(n_active=2, sparsity=7), r"sparsity must be in \(0, 1\), got 7"),
            (dict(n_active=2, sparsity=-1), r"sparsity must be in \(0, 1\), got -1"),
            (dict(n_active=2, sparsity=float("nan")), r"sparsity must be in \(0, 1\), got nan"),
            (dict(sparsity=1.5), r"sparsity must be in \(0, 1\), got 1.5"),
            (dict(potential_fraction=-5), r"potential_fraction must be in \(0, 1\], got -5"),
            (dict(potential_fraction=0.0), r"potential_fraction must be in \(0, 1\], got 0.0"),
            (
                dict(n_synapses=8, potential_fraction=0.0),
                r"potential_fraction must be in \(0, 1\], got 0.0",
            ),
            (dict(input_size=0), "input_size and n_columns must be positive"),
            (dict(input_size=16, n_synapses=17), r"n_synapses must be in \[1, 16\], got 17"),
            (dict(delta_inc=-1), "delta_inc must be >= 0"),
        ],
    )
    def test_rejected(self, kw, message):
        params = dict(input_size=64, n_columns=32, seed=0) | kw
        with pytest.raises(ValueError, match=message):
            PatternLayer(**params)

    def test_integral_float_size_accepted(self):
        layer = PatternLayer(64.0, 16.0, n_active=2.0, n_synapses=8.0, seed=0)
        sizes = (layer.input_size, layer.n_columns, layer.n_active, layer.n_synapses)
        assert sizes == (64, 16, 2, 8)
        assert layer.sources.shape == (16, 8)


class TestOwnArrays:
    """A layer holds the one copy of its proximal arrays, shared with no caller."""

    def test_construction_holds_its_draws(self):
        # A second copy of the drawn sources peaks at 1.36x.
        tracemalloc.start()
        try:
            layer = PatternLayer(2048, 2048, n_active=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (layer.sources.nbytes + layer.permanences.nbytes)

    @pytest.mark.parametrize("cls", [PatternLayer, PoolingLayer])
    def test_from_state_copies_the_callers_arrays(self, cls):
        layer = cls(64, 16, n_active=3, seed=2)
        expected = layer.to_state()
        state = dict(layer.to_state(), sources=layer.sources.copy())
        loaded = cls.from_state(state)
        state["permanences"][:] = 0.5
        state["sources"][:] = np.arange(32)
        np.testing.assert_array_equal(loaded.permanences, expected["permanences"])
        np.testing.assert_array_equal(loaded.sources, expected["sources"])

    @pytest.mark.parametrize("cls", [PatternLayer, PoolingLayer])
    def test_layers_from_one_state_learn_independently(self, cls):
        state = cls(64, 16, n_active=3, seed=2).to_state()
        first, second = cls.from_state(state), cls.from_state(state)
        assert not np.shares_memory(first.permanences, second.permanences)
        x = Sdr(64, range(0, 64, 2))
        for _ in range(5):
            first.learn(x, first.compute_sdr(x))
        assert not np.array_equal(first.permanences, state["permanences"])
        np.testing.assert_array_equal(second.permanences, state["permanences"])
