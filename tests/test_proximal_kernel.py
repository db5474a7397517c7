"""Differential tests: the proximal overlap through the maintained connection
matrix against the dense formula and the CSR inverse index it replaced
(``oracle_proximal``).

``PatternLayer`` keeps a bool ``[input_size, n_columns]`` matrix of connected
synapses and its C-ordered ``[n_columns, input_size]`` transpose, which
``reconstruct`` reads, both updated by learning and dropped when ``sources``,
``permanences`` or ``connect_threshold`` is assigned. The tests interleave
every way the layer's state can change (``learn``, ``tp_learn``, permanence
and threshold assignment, in-place permanence writes, which must raise,
``sources`` assignment, a ``to_state`` / ``from_state`` round trip) and after
each one compare both matrices with one rebuilt from the public state, the
overlap with the dense formula and the back-projection with a count over the
winners' connected synapses. Shapes include one synapse per neuron and
``n_synapses == input_size``; thresholds include 0 and 1; inputs include the
empty and the full input.

The top-k selection and the Hebbian update are checked the same way, against
the stable-argsort selection and the ``np.where`` formula of the update, and
so are distal punishment and ``tp_learn``, which go through the same update.
``learn`` and ``tp_learn`` decay every winner synapse at a resting rate and
update only the hot ones at their own rates; they are checked against the
update over the winners' whole block, also with equal predicted and bursting
decrements and with inputs that leave no synapse hot. A full-potential layer,
whose rows are all ``arange(input_size)``, finds its hot synapses by input bit
and any other by gathering its winners' sources; both paths are checked, on
layers whose ``sources`` are reassigned between calls.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import PatternLayer, PoolingLayer, Sdr, TmLayer, persistence
from minicolumn.pattern import _hebbian
from minicolumn.transition import LayerOutput

import oracle_proximal

# thresholds and permanences: the edges, the default threshold, anything between
UNIT = st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0))


def oracle_overlaps(layer, x):
    connected = layer.permanences >= layer.connect_threshold
    return np.count_nonzero(x.dense()[layer.sources] & connected, axis=1)


def rebuilt_connections(layer):
    """The connection matrix built afresh from the layer's public state."""
    out = np.zeros((layer.input_size, layer.n_columns), dtype=bool)
    for column, (sources, permanences) in enumerate(zip(layer.sources, layer.permanences)):
        out[sources[permanences >= layer.connect_threshold], column] = True
    return out


def assert_connections_current(layer):
    got = layer._connections()
    expected = rebuilt_connections(layer)
    assert got.dtype == bool and got.shape == (layer.input_size, layer.n_columns)
    assert np.array_equal(got, expected)
    by_column = layer._by_column
    assert by_column.dtype == bool and by_column.flags.c_contiguous
    assert np.array_equal(by_column, expected.T)


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


OPS = [
    "learn", "tp_learn", "write_one", "write_row", "write_in_place", "threshold", "assign",
    "round_trip",
]


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
            permanences = layer.permanences.copy()
            permanences[row, col] = data.draw(st.one_of(st.just(layer.connect_threshold), UNIT))
            layer.permanences = permanences
        elif op == "write_row":
            row = data.draw(st.integers(0, layer.n_columns - 1))
            permanences = layer.permanences.copy()
            permanences[row] = data.draw(UNIT)
            layer.permanences = permanences
        elif op == "write_in_place":
            before = layer.permanences.copy()
            with pytest.raises(ValueError):
                layer.permanences[0, 0] = 1.0 - before[0, 0]
            with pytest.raises(ValueError):
                layer.permanences[0] = 0.5
            assert np.array_equal(layer.permanences, before)
        elif op == "threshold":
            layer.connect_threshold = data.draw(UNIT)
        elif op == "assign":
            layer.sources = random_sources(layer, data.draw(st.integers(0, 2**16)))
        elif op == "round_trip":
            layer = type(layer).from_state(layer.to_state())
        assert_connections_current(layer)
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


@pytest.fixture(scope="module")
def trained_paper_layer():
    """A paper_seq-shaped pattern layer after 200 learning steps over 12 codes."""
    layer = PatternLayer(2048, 2048, n_active=40, delta_inc=0.1, delta_dec=0.05, seed=1)
    rng = np.random.default_rng(1)
    codes = [Sdr(2048, rng.choice(2048, 40, replace=False)) for _ in range(12)]
    for step in range(200):
        # every fifth input is novel, so learning keeps moving synapses across the threshold
        if step % 5:
            x = codes[rng.integers(len(codes))]
        else:
            x = Sdr(2048, rng.choice(2048, 40, replace=False))
        layer.learn(x, layer.compute_sdr(x))
    return layer, codes


def test_connections_current_after_paper_scale_learning(trained_paper_layer):
    layer, _ = trained_paper_layer
    assert_connections_current(layer)


def test_overlaps_match_csr_index_after_learning(trained_paper_layer):
    layer, codes = trained_paper_layer
    index = oracle_proximal.source_index(layer.sources, layer.input_size)
    rng = np.random.default_rng(2)
    probes = codes + [Sdr(2048, rng.choice(2048, n, replace=False)) for n in (0, 1, 40, 400, 2048)]
    for x in probes:
        expected = oracle_proximal.raw_overlaps(layer, x.active, index)
        assert layer.raw_overlaps(x).tolist() == expected.tolist()


def test_connections_current_after_pooling_learning():
    """100 ``tp_learn`` steps of the configs/pool.json stack (4096 cells into 512 columns)."""
    tm = TmLayer(1024, 512, 8, n_active=10, delta_inc=0.1, delta_dec=0.05, seed=7)
    pool = PoolingLayer(
        tm.n_cells, 512, n_active=10, potential_fraction=1.0, persistence=0.9,
        connect_threshold=0.05, delta_dec_pred=0.001, delta_dec_burst=0.005, seed=7,
    )
    rng = np.random.default_rng(7)
    codes = [Sdr(1024, rng.choice(1024, 20, replace=False)) for _ in range(6)]
    pool.raw_overlaps(Sdr(tm.n_cells))  # build the matrix, so learning maintains it
    for step in range(100):
        out = tm.step(codes[step % 6])
        pool.tp_learn(out, pool.tp_step(out))
    assert_connections_current(pool)
    assert pool.raw_overlaps(out.active_cells).tolist() == oracle_proximal.raw_overlaps(
        pool, out.active_cells.active
    ).tolist()


def test_overlap_count_wider_than_16_bits():
    """A column can count up to ``n_synapses`` connected synapses; past
    65535 the accumulator must widen."""
    n = 1 << 16
    layer = PatternLayer(n, 1, n_active=1, n_synapses=n, seed=0)
    layer.permanences = np.ones((1, n))
    assert layer.raw_overlaps(Sdr(n, range(n))).tolist() == [n]
    assert layer.raw_overlaps(Sdr(n, range(n - 1))).tolist() == [n - 1]


@pytest.mark.parametrize(
    "change", ["learn", "tp_learn", "sources", "permanences", "connect_threshold", "save_load"]
)
def test_reconstruct_matches_oracle_after_each_change(change, tmp_path):
    """``reconstruct`` counts through the by-column matrix. Learning keeps it
    current; assigning ``sources``, ``permanences`` or ``connect_threshold``
    drops it, and so does a save and load, so there ``reconstruct`` is the
    first read and builds it. After each change the counts equal the
    oracle's, for no winner, one, some and every column."""
    rng = np.random.default_rng(3)
    if change == "tp_learn":
        layer = PoolingLayer(64, 16, n_active=4, potential_fraction=1.0, seed=3)
        assert layer._full_potential
    else:
        layer = PatternLayer(64, 16, n_active=4, n_synapses=24, seed=3)
    layer.raw_overlaps(Sdr(64))  # build both matrices, so learning maintains them
    some = rng.choice(16, 6, replace=False)
    winner_sets = [Sdr(16), Sdr(16, [5]), Sdr(16, some), Sdr(16, range(16))]
    for step in range(6):
        x = Sdr(64, rng.choice(64, 12, replace=False))
        if change == "learn":
            layer.learn(x, layer.compute_sdr(x))
        elif change == "tp_learn":
            out = layer_output(x, Sdr(64, x.ids[::2]))
            layer.tp_learn(out, layer.tp_step(out))
        elif change == "sources":
            layer.sources = random_sources(layer, step)
        elif change == "permanences":
            layer.permanences = rng.uniform(0.0, 1.0, (16, 24))
        elif change == "connect_threshold":
            layer.connect_threshold = rng.uniform(0.1, 0.3)
        else:
            layer.learn(x, layer.compute_sdr(x))
            persistence.save(layer, tmp_path / "layer.npz")
            layer = persistence.load(tmp_path / "layer.npz")
        dropped = change not in ("learn", "tp_learn")
        assert (layer._connected is None and layer._by_column is None) == dropped
        for winners in winner_sets:
            got = layer.reconstruct(winners)
            assert got.dtype == np.intp
            assert got.tolist() == oracle_reconstruct(layer, winners).tolist()
        assert_connections_current(layer)


class TestPermanencesSetter:
    def test_assignment_is_stored_as_copy(self):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=2, seed=0)
        new = np.array([[0.1, 0.2], [0.3, 0.4]])
        layer.permanences = new
        new[0, 0] = 0.9
        assert layer.permanences.tolist() == [[0.1, 0.2], [0.3, 0.4]]
        assert not layer.permanences.flags.writeable

    @pytest.mark.parametrize(
        "permanences, message",
        [
            ([[0.1, 0.2]], "shape"),
            ([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], "shape"),
            ([[0.1, 1.5], [0.1, 0.2]], r"outside \[0, 1\]"),
            ([[0.1, -0.1], [0.1, 0.2]], r"outside \[0, 1\]"),
            ([[0.1, float("nan")], [0.1, 0.2]], r"outside \[0, 1\]"),
            ([[0, 1], [1, 0]], "float64"),
            (np.full((2, 2), 0.5, dtype=np.float32), "float64"),
        ],
    )
    def test_invalid_permanences_rejected(self, permanences, message):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=2, seed=0)
        before = layer.permanences.copy()
        with pytest.raises(ValueError, match=message):
            layer.permanences = permanences
        assert np.array_equal(layer.permanences, before)

    @pytest.mark.parametrize("threshold", [-0.1, 1.1, float("nan")])
    def test_invalid_threshold_rejected(self, threshold):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=2, connect_threshold=0.3, seed=0)
        with pytest.raises(ValueError, match="connect_threshold"):
            layer.connect_threshold = threshold
        assert layer.connect_threshold == 0.3


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
        before = layer._sources  # the property returns a fresh read-only view
        with pytest.raises(ValueError, match=message):
            layer.sources = sources
        assert layer._sources is before

    @pytest.mark.parametrize("n_synapses", [8, 16])
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda layer: pickle.loads(pickle.dumps(layer))]
    )
    def test_copies_keep_sources_read_only(self, clone, n_synapses):
        """numpy copies drop the read-only flag; the property's view keeps
        it, also for a full-potential layer's one broadcast row."""
        layer = PatternLayer(16, 4, n_active=1, n_synapses=n_synapses, seed=0)
        twin = clone(layer)
        assert np.array_equal(twin.sources, layer.sources)
        with pytest.raises(ValueError):
            twin.sources[0, 0] = 15
        with pytest.raises(ValueError):
            twin.sources[3] = np.arange(n_synapses)
        x = Sdr(16, range(16))
        assert twin.raw_overlaps(x).tolist() == oracle_overlaps(twin, x).tolist()
        twin.learn(x, Sdr(4, [1, 2]))
        assert_connections_current(twin)

    def test_full_potential_sources_are_one_broadcast_row(self):
        layer = PatternLayer(16, 4, n_active=1, n_synapses=16, seed=0)
        assert layer._full_potential
        assert layer.sources.dtype == np.int32 and layer.sources.strides == (0, 4)
        assert layer.sources.tolist() == [list(range(16))] * 4
        assert np.array_equal(PatternLayer.from_state(layer.to_state()).sources, layer.sources)
        layer.sources = np.tile(np.arange(15, -1, -1), (4, 1))  # full, not ascending
        assert not layer._full_potential and layer.sources.strides == (64, 4)
        assert not PatternLayer(16, 4, n_active=1, n_synapses=15, seed=0)._full_potential

    def test_unsorted_rows_accepted(self):
        layer = PatternLayer(16, 2, n_active=1, n_synapses=3, seed=0)
        layer.sources = [[5, 1, 9], [9, 0, 5]]
        assert layer.sources.tolist() == [[5, 1, 9], [9, 0, 5]]
        x = Sdr(16, [0, 5, 9])
        assert layer.raw_overlaps(x).tolist() == oracle_overlaps(layer, x).tolist()


# -- top-k selection ----------------------------------------------------------


def oracle_select(layer, scores, raw):
    """The stable-argsort top-k: highest scores first, ties to the lower index."""
    eligible = np.flatnonzero(raw >= layer.min_overlap)
    order = eligible[np.argsort(-scores[eligible], kind="stable")]
    return np.sort(order[: layer.n_active]).tolist()


# few distinct values, so ties are heavy
SCORES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data())
def test_select_matches_stable_argsort(n_columns, data):
    layer = PatternLayer(
        4,
        n_columns,
        n_active=data.draw(st.integers(1, n_columns)),
        n_synapses=2,
        min_overlap=data.draw(st.integers(0, 3)),
    )
    raw = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n_columns, max_size=n_columns)))
    scores = np.array(data.draw(st.lists(SCORES, min_size=n_columns, max_size=n_columns)))
    scores = data.draw(st.sampled_from([scores, raw.astype(np.float64), raw + 0.5 * scores]))
    got = layer._select(scores, raw)
    assert list(got.active) == oracle_select(layer, scores, raw)


@settings(max_examples=100, deadline=None)
@given(layers(), st.data())
def test_compute_sdr_matches_stable_argsort(layer, data):
    for _ in range(3):
        x = data.draw(inputs(layer.input_size))
        raw = layer.raw_overlaps(x)
        assert list(layer.compute_sdr(x).active) == oracle_select(layer, raw, raw)
        layer.learn(x, layer.compute_sdr(x))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.data())
def test_tp_step_matches_stable_argsort(n_columns, data):
    pool = PoolingLayer(
        16,
        n_columns,
        n_active=data.draw(st.integers(1, n_columns)),
        n_synapses=data.draw(st.integers(1, 16)),
        persistence=data.draw(st.sampled_from([0.25, 0.5, 0.9])),
        min_overlap=data.draw(st.integers(0, 2)),
        seed=data.draw(st.integers(0, 2**16)),
    )
    for _ in range(4):
        x = data.draw(inputs(16))
        predicted = Sdr(16, data.draw(st.sets(st.sampled_from(x.active))) if x.active else ())
        out = layer_output(x, predicted)
        raw = pool.raw_overlaps(x)
        scores = raw.astype(np.float64)
        if pool.active_prev.active and predicted.active:
            prev = list(pool.active_prev.active)
            scores[prev] += pool.persistence * pool.raw_overlaps(predicted)[prev]
        assert list(pool.tp_step(out).active) == oracle_select(pool, scores, raw)


# -- Hebbian update -----------------------------------------------------------


def oracle_hebbian(p, on, inc, dec):
    return np.where(on, np.minimum(1.0, p * (1.0 + inc)), p * (1.0 - dec))


# 0.2 is the default connect threshold; 0.95 * 1.1 > 1; 1.25 was written above 1 in place
PERMANENCE = st.one_of(st.sampled_from([0.0, 0.2, 0.95, 1.0, 1.25]), st.floats(0.0, 1.0))
INCREMENT = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 2.0]), st.floats(0.0, 3.0))
DECREMENT = st.one_of(st.sampled_from([0.0, 0.008, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_hebbian_matches_where_formula(rows, width, data):
    def matrix(elements):
        flat = data.draw(st.lists(elements, min_size=rows * width, max_size=rows * width))
        return np.array(flat, dtype=np.float64).reshape(rows, width)

    p = matrix(PERMANENCE)
    on = matrix(st.booleans()).astype(bool)
    rates = data.draw(st.sampled_from(["scalar", "per-synapse", "punish"]), label="rates")
    if rates == "punish":
        # distal punishment: scale the synapses on active sources by (1 - s),
        # leave the rest; distal permanences never exceed 1
        p = np.minimum(p, 1.0)
        s = data.draw(DECREMENT)
        got = _hebbian(p, on, -s, 0.0)
        assert got.tobytes() == np.where(on, p * (1.0 - s), p).tobytes()
        return
    if rates == "per-synapse":
        inc, dec = matrix(INCREMENT), matrix(DECREMENT)
    else:
        inc, dec = data.draw(INCREMENT), data.draw(DECREMENT)
    got = _hebbian(p, on, inc, dec)
    assert got.dtype == np.float64 and got.shape == p.shape
    assert got.tobytes() == oracle_hebbian(p, on, inc, dec).tobytes()


def oracle_tp_learn(pool, l4, winners):
    """The pooling layer's permanences after ``tp_learn``, by the per-synapse
    rule: each winner's synapse reads whether its source is active and
    whether it is predicted, picks the predicted or the bursting rate pair by
    the latter, and takes the Hebbian update."""
    p = pool.permanences.copy()
    w = list(winners.active)
    sources = pool.sources[w]
    on = l4.active_cells.dense()[sources]
    pred = l4.predicted_cells.dense()[sources]
    inc = np.where(pred, pool.delta_inc_pred, pool.delta_inc_burst)
    dec = np.where(pred, pool.delta_dec_pred, pool.delta_dec_burst)
    p[w] = oracle_hebbian(p[w], on, inc, dec)
    return p


def maybe_assign_sources(layer, data):
    """Before a learning call, maybe assign random rows, which are unsorted
    (per-row permutations when every input bit is sampled) and take the
    gather path, or the same rows sorted, which a full-potential layer learns
    by input bit. Rebuild the matrix, so learning maintains it. Returns the
    sources the layer must read back."""
    how = data.draw(st.sampled_from(["keep", "unsorted", "ascending"]), label="sources")
    if how == "keep":
        return layer.sources.copy()
    sources = random_sources(layer, data.draw(st.integers(0, 2**16)))
    if how == "ascending":
        sources.sort(axis=1)
    layer.sources = sources
    assert np.array_equal(layer.sources, sources)
    ascending = (np.diff(sources, axis=1) > 0).all()
    assert layer._full_potential == (ascending and layer.n_synapses == layer.input_size)
    layer.raw_overlaps(Sdr(layer.input_size))
    return sources


def assert_tp_learn_matches_rule(data, dec_pred, dec_burst):
    """Drive ``tp_learn`` on a random pooling layer with these decrements;
    after each call the permanences equal the per-synapse rule's and the
    connection matrix is current."""
    input_size = data.draw(st.integers(1, 48))
    n_columns = data.draw(st.integers(1, 12))
    inc_burst, inc_pred = sorted(data.draw(st.lists(INCREMENT, min_size=2, max_size=2)))
    pool = PoolingLayer(
        input_size,
        n_columns,
        n_active=data.draw(st.integers(1, n_columns)),
        n_synapses=data.draw(st.one_of(st.just(input_size), st.integers(1, input_size))),
        connect_threshold=data.draw(UNIT),
        delta_inc_pred=inc_pred,
        delta_dec_pred=dec_pred,
        delta_inc_burst=inc_burst,
        delta_dec_burst=dec_burst,
        seed=data.draw(st.integers(0, 2**16)),
    )
    pool.raw_overlaps(Sdr(input_size))  # build the matrix, so learning maintains it
    for _ in range(data.draw(st.integers(1, 4))):
        sources = maybe_assign_sources(pool, data)
        active = data.draw(inputs(input_size))
        # predicted cells may lie outside the active ones
        predicted = data.draw(inputs(input_size))
        l4 = layer_output(active, predicted)
        winners = Sdr(n_columns, data.draw(st.sets(st.integers(0, n_columns - 1))))
        expected = oracle_tp_learn(pool, l4, winners)
        pool.tp_learn(l4, winners)
        assert pool.permanences.tobytes() == expected.tobytes()
        assert_connections_current(pool)
        assert np.array_equal(pool.sources, sources)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tp_learn_matches_per_synapse_rule(data):
    dec_pred, dec_burst = sorted(data.draw(st.lists(DECREMENT, min_size=2, max_size=2)))
    assert_tp_learn_matches_rule(data, dec_pred, dec_burst)


@settings(max_examples=100, deadline=None)
@given(DECREMENT, st.data())
def test_tp_learn_with_equal_decrements_matches_per_synapse_rule(dec, data):
    # Predicted sources that are not active then decay at the resting rate,
    # so ``tp_learn`` leaves them out of the hot synapses; sorted random
    # decrements almost never tie.
    assert_tp_learn_matches_rule(data, dec, dec)


def oracle_learn(layer, x, winners):
    """The pattern layer's permanences after ``learn``: the Hebbian update
    over every synapse of every winner."""
    p = layer.permanences.copy()
    w = list(winners.active)
    on = x.dense()[layer.sources[w]]
    p[w] = oracle_hebbian(p[w], on, layer.delta_inc, layer.delta_dec)
    return p


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_learn_matches_hebbian_over_whole_block(data):
    input_size = data.draw(st.integers(1, 24))
    n_columns = data.draw(st.integers(1, 6))
    n_synapses = data.draw(st.one_of(st.just(input_size), st.integers(1, input_size)))
    layer = PatternLayer(
        input_size,
        n_columns,
        n_active=1,
        n_synapses=n_synapses,
        connect_threshold=data.draw(UNIT),
        delta_inc=data.draw(INCREMENT),
        delta_dec=data.draw(DECREMENT),
        seed=data.draw(st.integers(0, 2**16)),
    )
    size = n_columns * n_synapses
    perms = data.draw(st.lists(UNIT, min_size=size, max_size=size))
    layer.permanences = np.array(perms).reshape(n_columns, n_synapses)
    layer.raw_overlaps(Sdr(input_size))  # build the matrix, so learning maintains it
    for _ in range(data.draw(st.integers(1, 4))):
        sources = maybe_assign_sources(layer, data)
        x = data.draw(inputs(input_size))  # often the empty or the full input
        winners = Sdr(n_columns, data.draw(st.sets(st.integers(0, n_columns - 1))))
        expected = oracle_learn(layer, x, winners)
        layer.learn(x, winners)
        assert layer.permanences.tobytes() == expected.tobytes()
        assert_connections_current(layer)
        assert np.array_equal(layer.sources, sources)


@pytest.mark.parametrize("active", [(), (8, 9, 10)])
@pytest.mark.parametrize("predicted", [(), (11, 12)])
def test_learning_without_a_hot_synapse(active, predicted):
    """Winner 0 samples bits 0-7 and column 1 bits 8-15, where the input and
    the predicted bits lie: no winner synapse is hot, so every one decays at
    the resting rate, and those at the threshold disconnect."""
    for cls in (PatternLayer, PoolingLayer):
        layer = cls(16, 2, n_active=1, n_synapses=8)
        layer.sources = np.arange(16).reshape(2, 8)
        layer.permanences = np.full((2, 8), layer.connect_threshold)
        layer.raw_overlaps(Sdr(16))  # build the matrix, so learning maintains it
        winners = Sdr(2, [0])
        if isinstance(layer, PoolingLayer):
            l4 = layer_output(Sdr(16, active), Sdr(16, predicted))
            expected = oracle_tp_learn(layer, l4, winners)
            rest = layer.delta_dec_burst
            layer.tp_learn(l4, winners)
        else:
            expected = oracle_learn(layer, Sdr(16, active), winners)
            rest = layer.delta_dec
            layer.learn(Sdr(16, active), winners)
        assert layer.permanences.tobytes() == expected.tobytes()
        assert (layer.permanences[0] == layer.connect_threshold * (1.0 - rest)).all()
        assert (layer.permanences[1] == layer.connect_threshold).all()
        assert_connections_current(layer)
        assert not layer._connections()[:8, 0].any()
