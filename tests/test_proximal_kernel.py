"""Differential tests: the proximal overlap through the inverse source index
against the dense formula it replaced.

``PatternLayer.raw_overlaps`` reads permanences live through an index built
from ``sources``, so the tests interleave every way the layer's state can
change (``learn``, ``tp_learn``, in-place permanence writes, ``sources``
assignment, a ``to_state`` / ``from_state`` round trip) and compare after
each one. Shapes include one synapse per neuron and ``n_synapses ==
input_size``; thresholds include 0 and 1; inputs include the empty and the
full input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import PatternLayer, PoolingLayer, Sdr
from minicolumn.transition import LayerOutput

# thresholds and permanences: the edges, the default threshold, anything between
UNIT = st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0))


def oracle_overlaps(layer, x):
    connected = layer.permanences >= layer.connect_threshold
    return np.count_nonzero(x.dense()[layer.sources] & connected, axis=1)


def oracle_reconstruct(layer, winners):
    out = np.zeros(layer.input_size, dtype=np.int64)
    if winners.active:
        w = list(winners.active)
        connected = layer.permanences[w] >= layer.connect_threshold
        np.add.at(out, layer.sources[w][connected], 1)
    return out


def random_sources(layer, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [
            rng.choice(layer.input_size, size=layer.n_synapses, replace=False)
            for _ in range(layer.n_columns)
        ]
    )


@st.composite
def layers(draw):
    input_size = draw(st.integers(1, 48))
    n_columns = draw(st.integers(1, 12))
    n_synapses = draw(st.one_of(st.just(1), st.just(input_size), st.integers(1, input_size)))
    cls = draw(st.sampled_from([PatternLayer, PoolingLayer]))
    return cls(
        input_size,
        n_columns,
        n_active=draw(st.integers(1, n_columns)),
        n_synapses=n_synapses,
        connect_threshold=draw(UNIT),
        min_overlap=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
    )


def inputs(universe):
    bits = st.lists(st.integers(0, universe - 1), unique=True)
    return st.one_of(st.just(()), st.just(range(universe)), bits).map(
        lambda active: Sdr(universe, active)
    )


def layer_output(active, predicted):
    cells = active.universe_size
    return LayerOutput(
        active_columns=Sdr(1),
        active_cells=active,
        predicted_cells=predicted,
        burst_cells=Sdr(cells, active.active_set - predicted.active_set),
        winner_cells=Sdr(cells),
        firing_sequence=(),
        predictive_cells_next=Sdr(cells),
        anomaly=0.0,
    )


OPS = ["learn", "tp_learn", "write_one", "write_row", "assign", "round_trip"]


@settings(max_examples=150, deadline=None)
@given(layers(), st.data())
def test_overlaps_match_dense_formula(layer, data):
    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=12)):
        x = data.draw(inputs(layer.input_size))
        if op == "learn":
            layer.learn(x, layer.compute_sdr(x))
        elif op == "tp_learn" and isinstance(layer, PoolingLayer):
            predicted = data.draw(st.sets(st.sampled_from(x.active))) if x.active else ()
            out = layer_output(x, Sdr(layer.input_size, predicted))
            layer.tp_learn(out, layer.tp_step(out))
        elif op == "write_one":
            row = data.draw(st.integers(0, layer.n_columns - 1))
            col = data.draw(st.integers(0, layer.n_synapses - 1))
            layer.permanences[row, col] = data.draw(
                st.one_of(st.just(layer.connect_threshold), UNIT)
            )
        elif op == "write_row":
            row = data.draw(st.integers(0, layer.n_columns - 1))
            layer.permanences[row] = data.draw(UNIT)
        elif op == "assign":
            layer.sources = random_sources(layer, data.draw(st.integers(0, 2**16)))
        elif op == "round_trip":
            layer = type(layer).from_state(layer.to_state())
        probe = data.draw(inputs(layer.input_size))
        got = layer.raw_overlaps(probe)
        assert got.dtype == np.intp
        assert got.tolist() == oracle_overlaps(layer, probe).tolist()
        winners = Sdr(layer.n_columns, data.draw(st.sets(st.integers(0, layer.n_columns - 1))))
        assert layer.reconstruct(winners).tolist() == oracle_reconstruct(layer, winners).tolist()


def test_paper_scale_overlaps_match_dense_formula():
    layer = PatternLayer(2048, 2048, n_active=40, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = Sdr(2048, rng.choice(2048, 40, replace=False))
        assert layer.raw_overlaps(x).tolist() == oracle_overlaps(layer, x).tolist()
        layer.learn(x, layer.compute_sdr(x))


class TestSourcesSetter:
    def test_in_place_write_raises(self):
        layer = PatternLayer(16, 4, n_active=1, n_synapses=4, seed=0)
        with pytest.raises(ValueError):
            layer.sources[0, 0] = 15
        with pytest.raises(ValueError):
            layer.sources.flat[0] = 15

    def test_assignment_is_stored_as_int32_copy(self):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=2, seed=0)
        new = np.array([[1, 2], [3, 4]])
        layer.sources = new
        new[0, 0] = 9
        assert layer.sources.dtype == np.int32
        assert layer.sources.tolist() == [[1, 2], [3, 4]]
        assert np.array_equal(layer.to_state()["sources"], [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "sources, message",
        [
            ([[1, 2, 3], [3, 4, 5], [5, 6, 7]], "shape"),
            ([[1, 2], [4, 5]], "shape"),
            ([[1, 2, 16], [3, 4, 5]], r"\[0, 16\)"),
            ([[-1, 2, 3], [3, 4, 5]], r"\[0, 16\)"),
            ([[2, 2, 3], [3, 4, 5]], "distinct"),
            ([[5, 1, 5], [3, 4, 5]], "distinct"),
            ([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]], "integers"),
            ([[True, False, True], [False, True, False]], "integers"),
        ],
    )
    def test_invalid_sources_rejected(self, sources, message):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=3, seed=0)
        before = layer.sources
        with pytest.raises(ValueError, match=message):
            layer.sources = sources
        assert layer.sources is before

    def test_unsorted_rows_accepted(self):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=3, seed=0)
        layer.sources = [[5, 1, 9], [9, 0, 5]]
        assert layer.sources.tolist() == [[5, 1, 9], [9, 0, 5]]
        x = Sdr(16, [0, 5, 9])
        assert layer.raw_overlaps(x).tolist() == oracle_overlaps(layer, x).tolist()
