"""Differential tests: ``TmLayer.step``'s block-form column selection, firing,
firing sequence and anomaly score against the column-at-a-time reference in
``oracle_fire``.

Random layers cover predictive thresholds down to 0, ``beta`` and
``beta_sub`` at 0 and above, ``dtau_vert`` finite, infinite and narrower
than the sheath margin, both ``blank_winner`` modes, ``min_overlap`` 0
(active columns with a zero sheath rate), all-zero feedforward input, and
ties in cell potentials, raw segment matches, segment counts and sheath
rates.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import Sdr, TmLayer, firing_time
from minicolumn.transition import P_BURST, P_PRED, _firing_times

import oracle_fire as oracle

SPIKES = [1.0, 0.5, 0.25, 0.75, 1.5]


@st.composite
def scenarios(draw):
    """A layer with random segments and the inputs of one step."""
    n_columns = draw(st.integers(1, 6))
    cells = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([1.0, 0.7]))
    gamma_p = draw(st.sampled_from([1.0, 0.8]))
    gamma_inh = draw(st.sampled_from([1.0, 1.3]))
    layer = TmLayer(
        16,
        n_columns,
        cells,
        n_active=draw(st.integers(1, n_columns)),
        n_synapses=8,
        min_overlap=draw(st.integers(0, 2)),
        alpha=alpha,
        beta=draw(st.sampled_from([0.0, 0.5, 2.0])),
        beta_sub=draw(st.sampled_from([0.0, 0.3, 1.0])),
        gamma_p=gamma_p,
        gamma_inh=gamma_inh,
        # from just above the bound, where a little sub-threshold drive beats the sheath
        alpha_inh=alpha * gamma_inh / gamma_p * draw(st.sampled_from([1.01, 1.5, 3.0])),
        dtau_vert=draw(st.sampled_from([math.inf, 1e-9, 0.005, 0.05, 0.4, 2.0])),
        predictive_threshold=draw(st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0])),
        synapses_per_segment=draw(st.integers(1, 4)),
        segments_per_cell=draw(st.integers(1, 3)),
        activation_threshold=draw(st.integers(1, 3)),
        min_match_threshold=draw(st.integers(0, 3)),
        blank_winner=draw(st.sampled_from(["random", "lowest"])),
        seed=draw(st.integers(0, 2**16)),
    )
    n_cells = layer.n_cells
    cell_sets = st.lists(st.integers(0, n_cells - 1), unique=True)
    # often most cells, so that segments are active and cells predicted
    busy_sets = st.one_of(
        cell_sets, cell_sets.map(lambda off: sorted(set(range(n_cells)) - set(off)))
    )
    for cell in draw(busy_sets):
        for _ in range(draw(st.integers(1, layer.segments_per_cell))):
            others = [c for c in range(n_cells) if c != cell]
            sources = draw(
                st.lists(st.sampled_from(others), unique=True, max_size=layer.synapses_per_segment)
                if others
                else st.just([])
            )
            perms = draw(
                st.lists(
                    st.sampled_from([0.1, 0.2, 0.6, 0.9]),
                    min_size=len(sources),
                    max_size=len(sources),
                )
            )
            layer.add_segment(
                cell, sources, perms, draw(st.integers(1, 3)), draw(st.sampled_from(SPIKES))
            )
    overlaps = st.lists(st.sampled_from([1, 2, 3, 4, 0]), min_size=n_columns, max_size=n_columns)
    # about one draw in four: no input bit reaches any column
    raw = draw(st.one_of(st.just([0] * n_columns), overlaps, overlaps, overlaps))
    return layer, np.array(raw, dtype=np.int64), draw(busy_sets)


def check_step(layer, raw, prev_active):
    """Step ``layer`` with learning off on feedforward overlaps ``raw`` after
    ``prev_active``, and compare it with the oracle. Returns the output."""
    raw = np.asarray(raw, dtype=np.int64)
    layer.pattern.raw_overlaps = lambda x_ff: raw
    layer._prev_active = Sdr(layer.n_cells, prev_active)
    evals = layer._eval_segments(prev_active)

    start = layer._rng.bit_generator.state
    columns = oracle.select_columns(layer, raw, evals)
    fired = oracle.fire(layer, columns, raw, evals)
    predicted, burst, winners = fired[:3]
    sequence = oracle.firing_sequence(layer, columns, raw, fired)
    anomaly = oracle.anomaly(layer, columns)
    after = layer._rng.bit_generator.state

    layer._rng.bit_generator.state = start
    out = layer.step(Sdr(layer.pattern.input_size), learn=False)
    assert layer._rng.bit_generator.state == after
    assert out.active_columns.active == tuple(columns)
    assert out.predicted_cells.active == tuple(predicted)
    assert out.burst_cells.active == tuple(burst)
    assert out.active_cells.active == tuple(sorted(predicted + burst))
    assert out.winner_cells.active == tuple(winners)
    assert tuple(out.firing_sequence) == sequence
    # same types too: a numpy scalar would change the repr
    assert repr(out.firing_sequence) == repr(sequence)
    assert out.anomaly == anomaly
    for sdr in (out.active_columns, out.active_cells, out.winner_cells, out.predictive_cells_next):
        assert all(type(i) is int for i in sdr.active)
    return out


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_step_matches_oracle(scenario):
    check_step(*scenario)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_depolarisation_rates_are_the_fired_rates(scenario):
    layer, raw, prev_active = scenario
    layer.pattern.raw_overlaps = lambda x_ff: raw
    x_ff = Sdr(layer.pattern.input_size)
    d_cells, d_sheaths = layer.depolarisation_rates(x_ff, Sdr(layer.n_cells, prev_active))
    layer._prev_active = Sdr(layer.n_cells, prev_active)
    for event in layer.step(x_ff, learn=False).firing_sequence:
        rates = d_cells if event.kind in (P_PRED, P_BURST) else d_sheaths
        assert event.rate == rates[event.unit]


def reference_depolarisation_rates(layer, x_ff, prev_active):
    """``TmLayer.depolarisation_rates`` as written before it shared ``_drive``
    with ``_fire``: per-cell arrays built from a float copy of the overlaps."""
    raw = layer.pattern.raw_overlaps(x_ff).astype(np.float64)
    o_ff = np.repeat(layer.alpha * raw, layer.cells_per_column)
    evals = layer._eval_segments(layer._cell_ids(prev_active))
    at = evals.lookup(np.arange(layer.n_cells))
    d_cells = np.where(
        evals.predictive[at],
        o_ff + layer.beta * evals.o_pred[at],
        o_ff + layer.beta_sub * evals.o_sub[at],
    )
    return d_cells, layer.alpha_inh * raw


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_depolarisation_rates_match_the_replaced_code_and_fire(scenario):
    layer, raw, prev_active = scenario
    layer.pattern.raw_overlaps = lambda x_ff: raw
    x_ff, prev = Sdr(layer.pattern.input_size), Sdr(layer.n_cells, prev_active)
    d_cells, d_sheaths = layer.depolarisation_rates(x_ff, prev)
    expected = reference_depolarisation_rates(layer, x_ff, prev)
    for got, want in zip((d_cells, d_sheaths), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # _fire's rates on the cells it fires, for every column active at once
    evals = layer._eval_segments(prev_active)
    cells, _, rates = layer._fire(np.arange(layer.n_columns), raw, d_sheaths, evals)[:3]
    assert rates.tobytes() == d_cells[cells].tobytes()


RATES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(RATES, max_size=12), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)
def test_firing_times_match_the_scalar_rule(rates, gamma):
    """The one firing-time rule, gamma / rate and infinite at a rate not
    above 0, on arrays and through ``firing_time`` against Python floats."""
    expected = np.array([gamma / r if r > 0.0 else math.inf for r in rates], dtype=np.float64)
    with np.errstate(over="ignore"):  # a subnormal rate overflows to inf, as in Python
        times = _firing_times(gamma, np.array(rates, dtype=np.float64))
    assert times.tobytes() == expected.tobytes()
    assert np.array([firing_time(r, gamma) for r in rates]).tobytes() == expected.tobytes()


def fixed_layer(**kw):
    return TmLayer(16, 2, 4, n_active=1, n_synapses=8, seed=0, **kw)


def test_tied_potentials_pick_the_lower_cell():
    layer = fixed_layer(activation_threshold=1)
    for cell in (5, 6, 7):
        layer.add_segment(cell, [0], [0.9])
    out = check_step(layer, [0, 3], [0])
    assert out.predicted_cells.active == (5, 6, 7)
    assert out.winner_cells.active == (5,)


def test_predicted_winner_is_the_largest_potential_when_beta_is_0():
    # With beta 0 both predicted cells fire at the same rate alpha * raw;
    # the winner is still the one with the larger o_pred, cell 6.
    layer = fixed_layer(beta=0.0, activation_threshold=1)
    layer.add_segment(5, [0], [0.9], spike_size=1.0)
    layer.add_segment(6, [0], [0.9], spike_size=1.5)
    out = check_step(layer, [0, 3], [0])
    assert out.predicted_cells.active == (5, 6)
    assert [event.rate for event in out.firing_sequence[:2]] == [3.0, 3.0]
    assert out.winner_cells.active == (6,)


def test_vertical_window_fires_only_the_subthreshold_cells():
    # Cell 1's segment sees one of two connected sources: half threshold.
    # Its drive 2 + 1 fires at 1/3, inside the sheath's 1/3 + 0.01; the
    # other cells' drive 2 fires at 1/2, outside it.
    layer = fixed_layer(
        beta_sub=1.0, alpha_inh=1.5, dtau_vert=0.01, activation_threshold=2,
        min_match_threshold=1,
    )
    layer.add_segment(1, [4, 5], [0.9, 0.9])
    out = check_step(layer, [2, 0], [4])
    assert out.burst_cells.active == (1,)
    assert out.winner_cells.active == (1,)


def test_tied_matches_pick_the_lower_cell():
    # Cells 5 and 7 match two sources each through unconnected synapses.
    layer = fixed_layer(activation_threshold=2, min_match_threshold=2)
    for cell in (5, 7):
        layer.add_segment(cell, [0, 1], [0.1, 0.1])
    out = check_step(layer, [0, 3], [0, 1])
    assert out.burst_cells.active == (4, 5, 6, 7)
    assert out.winner_cells.active == (5,)

