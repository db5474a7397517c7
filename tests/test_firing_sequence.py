"""``FiringSequence``: the columnar record ``TmLayer.step`` returns as
``LayerOutput.firing_sequence``, read against the tuple of events it stands
for, on the random layers of ``test_fire_kernel.scenarios``; and the order
``_firing_sequence`` builds, against one lexsort of every event."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minicolumn import FiringSequence, Sdr, TmLayer
from minicolumn.transition import (
    _I_FF,
    _I_PRED,
    _I_SPREAD,
    _P_BURST,
    _P_PRED,
    FiringEvent,
    _firing_sequence,
)

import oracle_fire as oracle
from test_fire_kernel import scenarios


def stepped(scenario):
    """The output of one learning-off step of a scenario's layer."""
    layer, raw, prev_active = scenario
    layer.pattern.raw_overlaps = lambda x_ff: raw
    layer._prev_active = Sdr(layer.n_cells, prev_active)
    return layer.step(Sdr(layer.pattern.input_size), learn=False)


indices = st.none() | st.integers(-12, 12)


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.lists(st.tuples(indices, indices, indices), max_size=5))
def test_indexing_and_slicing_agree_with_the_tuple(scenario, slices):
    record = stepped(scenario).firing_sequence
    events = tuple(record)
    assert len(record) == len(events) > 0
    for i in range(-len(events), len(events)):
        event = record[i]
        assert event == events[i]
        assert type(event) is FiringEvent
        assert [type(field) for field in event] == [int, str, float]
    for i in (len(events), -len(events) - 1):
        with pytest.raises(IndexError):
            record[i]
    for start, stop, step in slices:
        part = slice(start, stop, step or None)
        view = record[part]
        assert isinstance(view, FiringSequence)
        assert tuple(view) == events[part]
        assert len(view) == len(events[part])
        pairs = zip(view._arrays(), record._arrays())
        assert all(np.shares_memory(a, b) for a, b in pairs if a.size)


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_repr_is_the_tuples(scenario):
    record = stepped(scenario).firing_sequence
    for part in (record[:0], record[:1], record):
        assert repr(part) == repr(tuple(part))
    assert repr(record[:0]) == "()"
    assert repr(record[:1]).endswith(",)")


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_equal_records_hash_equal(scenario):
    twin = copy.deepcopy(scenario)
    a, b = stepped(scenario).firing_sequence, stepped(twin).firing_sequence
    assert a.units is not b.units
    copied = FiringSequence(a.units, a.kinds, a.rates)
    for other in (b, copied, pickle.loads(pickle.dumps(a)), a[:]):
        assert a == other
        assert hash(a) == hash(other)
    assert a != tuple(a)
    assert tuple(a) != a


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_records_differing_in_one_field_are_unequal(scenario, data):
    record = stepped(scenario).firing_sequence
    i = data.draw(st.integers(0, len(record) - 1), label="event")
    units, kinds, rates = (a.copy() for a in record._arrays())
    field = data.draw(st.sampled_from(["unit", "kind", "rate"]), label="field")
    if field == "unit":
        units[i] += data.draw(st.sampled_from([-1, 1]))
    elif field == "kind":
        kinds[i] = (kinds[i] + data.draw(st.integers(1, 4))) % len(FiringSequence.KINDS)
    else:
        rates[i] = np.nextafter(rates[i], data.draw(st.sampled_from([-np.inf, np.inf])))
    other = FiringSequence(units, kinds, rates)
    assert record != other
    assert not record == other
    assert tuple(record) != tuple(other)


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_arrays_are_read_only(scenario):
    record = stepped(scenario).firing_sequence
    for part in (record, record[::2], FiringSequence(record.units, record.kinds, record.rates)):
        for array in part._arrays():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                array += 1
    with pytest.raises(AttributeError):
        record.units = record.units.copy()
    with pytest.raises(AttributeError):
        del record.rates


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_layer_output_stays_hashable_and_pickles(scenario):
    out = stepped(scenario)
    loaded = pickle.loads(pickle.dumps(out))
    assert loaded == out
    assert hash(loaded) == hash(out)
    assert isinstance(loaded.firing_sequence, FiringSequence)
    assert not any(a.flags.writeable for a in loaded.firing_sequence._arrays())
    assert repr(loaded.firing_sequence) == repr(out.firing_sequence)


def _no_iteration(self):
    raise AssertionError("FiringSequence.__iter__ was called")


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_hash_eq_and_len_build_no_events(scenario):
    twin = copy.deepcopy(scenario)
    out, other = stepped(scenario), stepped(twin)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiringSequence, "__iter__", _no_iteration)
        record = out.firing_sequence
        assert len(record) == len(other.firing_sequence)
        assert record == other.firing_sequence
        assert hash(record) == hash(other.firing_sequence)
        assert out == other
        assert hash(out) == hash(other)
        with pytest.raises(AssertionError, match="__iter__"):
            tuple(record)


@pytest.mark.parametrize(
    "units, kinds, rates, message",
    [
        ([1, 2], [0], [1.0, 2.0], "equal length"),
        ([1], [5], [1.0], "codes"),
        ([1], [-1], [1.0], "codes"),
        ([1.5], [0], [1.0], "units"),
        ([[1]], [0], [1.0], "units"),
    ],
)
def test_bad_arrays_rejected(units, kinds, rates, message):
    with pytest.raises(ValueError, match=message):
        FiringSequence(units, kinds, rates)


def test_constructor_copies():
    units = np.array([3, 1])
    record = FiringSequence(units, [0, 4], [2.0, 1.0])
    units[0] = 7
    assert tuple(record) == (FiringEvent(3, "P_pred", 2.0), FiringEvent(1, "I_spread", 1.0))
    assert units.flags.writeable


@st.composite
def step_pieces(draw):
    """The pieces of one step's firing sequence, for a sheath rate the layer
    accepts: the fired cells, each active column's sheath, and every column's
    overlap, with many tied overlaps and rates."""
    n_synapses = draw(
        st.integers(1, 12) | st.integers(250, 700) | st.sampled_from([65535, 65536]),
        label="n_synapses",
    )
    alpha = draw(st.sampled_from([1.0, 0.7, 1e-300]))
    gamma_p, gamma_inh = draw(st.sampled_from([1.0, 0.8, 2.0])), draw(st.sampled_from([1.0, 1.3]))
    bound = alpha * gamma_inh / gamma_p
    factor = draw(st.just(1.0) | st.floats(1.0001, 10.0) | st.integers(1, 300).map(10.0.__pow__))
    # at least the next float above the bound
    alpha_inh = max(bound * factor, float(np.nextafter(bound, np.inf)))
    try:  # the layer holds the rule the order relies on
        TmLayer(
            n_synapses, 1, 1, n_active=1, n_synapses=n_synapses, alpha=alpha, gamma_p=gamma_p,
            gamma_inh=gamma_inh, alpha_inh=alpha_inh,
        )
    except ValueError as exc:
        assert "alpha_inh * overlap" in str(exc)
        assume(False)

    n_columns, cells = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    levels = draw(st.lists(st.integers(0, n_synapses), min_size=1, max_size=4))
    raw = draw(st.lists(st.sampled_from(levels), min_size=n_columns, max_size=n_columns))
    raw = np.array(raw, dtype=np.intp)
    every = list(range(n_columns))
    some = st.lists(st.sampled_from(every), unique=True).map(sorted)
    columns = np.array(draw(st.just(every) | st.just([]) | some), dtype=np.intp)
    predicted = draw(st.lists(st.booleans(), min_size=columns.size, max_size=columns.size))
    rates = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    fired = [
        (m * cells + i, _P_PRED if p else _P_BURST, draw(rates))
        for m, p in zip(columns.tolist(), predicted)
        for i in sorted(draw(st.sets(st.integers(0, cells - 1), min_size=1)))
    ]
    return n_synapses, alpha_inh, raw, columns, predicted, fired


@settings(max_examples=300, deadline=None)
@given(step_pieces())
def test_firing_sequence_is_one_lexsort_of_every_event(pieces):
    n_synapses, alpha_inh, raw, columns, predicted, fired = pieces
    n_columns = raw.size
    sheath = alpha_inh * raw
    inactive = np.ones(n_columns, dtype=bool)
    inactive[columns] = False
    cells = np.array([c for c, _, _ in fired], dtype=np.int64)
    cell_kinds = np.array([k for _, k, _ in fired], dtype=np.uint8)
    cell_rates = np.array([r for _, _, r in fired], dtype=np.float64)
    column_kinds = np.array([_I_PRED if p else _I_FF for p in predicted], dtype=np.uint8)
    record = _firing_sequence(
        np.concatenate((cells, columns)),
        np.concatenate((cell_kinds, column_kinds)),
        np.concatenate((cell_rates, sheath[columns])),
        raw, n_synapses, sheath, inactive,
    )

    sheath_kinds = np.full(n_columns, _I_SPREAD, dtype=np.uint8)
    sheath_kinds[columns] = column_kinds
    expected = oracle.lexsorted(
        np.concatenate((cells, np.arange(n_columns))),
        np.concatenate((cell_kinds, sheath_kinds)),
        np.concatenate((cell_rates, sheath)),
    )
    assert [a.dtype for a in record._arrays()] == [np.int64, np.uint8, np.float64]
    assert record._key() == tuple(a.tobytes() for a in expected)
