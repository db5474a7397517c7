"""``FiringSequence``: the columnar record ``TmLayer.step`` returns as
``LayerOutput.firing_sequence``, read against the tuple of events it stands
for, on the random layers of ``test_fire_kernel.scenarios``."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import FiringSequence, Sdr
from minicolumn.transition import FiringEvent

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
