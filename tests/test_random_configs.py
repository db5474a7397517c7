"""Small random configs, run through ``ExperimentConfig.from_dict`` and
``build_model`` for a few steps: every step keeps the step invariants of
acceptance test 10, and every firing sequence is ordered as the paper's
paCLA emits it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import FiringSequence
from minicolumn.experiments import ExperimentConfig, build_model
from minicolumn.transition import P_BURST, P_PRED

P_CODES = [FiringSequence.KINDS.index(P_PRED), FiringSequence.KINDS.index(P_BURST)]


@st.composite
def configs(draw):
    scalar = draw(st.booleans())
    encoder = {
        "type": "scalar" if scalar else "category",
        "universe_size": draw(st.integers(32, 96)),
        "active_bits": draw(st.integers(2, 8)),
    }
    if scalar:
        encoder.update(min_value=0, max_value=10)
    n_columns = draw(st.integers(4, 32))
    alpha = draw(st.sampled_from([1.0, 0.7]))
    gamma_p, gamma_inh = draw(st.sampled_from([1.0, 0.8])), draw(st.sampled_from([1.0, 1.3]))
    # from just above the rule alpha_inh > alpha * gamma_inh / gamma_p up to 10 times it
    factor = draw(st.just(1.0001) | st.floats(1.0001, 10.0))
    layer = {
        "n_columns": n_columns,
        "cells_per_column": draw(st.integers(1, 4)),
        "n_active": draw(st.integers(1, min(n_columns, 4))),
        "alpha": alpha,
        "gamma_p": gamma_p,
        "gamma_inh": gamma_inh,
        "alpha_inh": alpha * gamma_inh / gamma_p * factor,
        "beta": draw(st.floats(0.0, 2.0)),
        # a subnormal beta_sub is refused: gamma_p / (beta_sub * spike_size) overflows
        "beta_sub": draw(st.floats(0.0, 2.0, allow_subnormal=False)),
        "dtau_vert": draw(st.just("inf") | st.floats(1e-6, 2.0)),
        "blank_winner": draw(st.sampled_from(["random", "lowest"])),
        "synapses_per_segment": draw(st.integers(1, 6)),
        "activation_threshold": draw(st.integers(1, 3)),
        "min_match_threshold": draw(st.integers(0, 3)),
    }
    tokens = [1, 2, 3, 4] if scalar else ["A", "B", "C", "D"]
    length = draw(st.integers(2, 4))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "encoder": encoder,
        "layer": layer,
        "sequences": [{"tokens": tokens[:length], "repeats": 1}],
    }


def check_firing_sequence(out, n_columns):
    sequence = out.firing_sequence
    units, kinds, rates = sequence.units, sequence.kinds, sequence.rates
    cells = np.isin(kinds, P_CODES)
    # every column's sheath once, the cells the active cells
    assert sorted(units[~cells].tolist()) == list(range(n_columns))
    assert sorted(units[cells].tolist()) == list(out.active_cells.active)
    # kinds in emission order; within a kind, fastest first, ties to the lower unit
    assert (np.diff(kinds.astype(np.int64)) >= 0).all()
    same = kinds[1:] == kinds[:-1]
    slower = rates[1:] < rates[:-1]
    tie = (rates[1:] == rates[:-1]) & (units[1:] > units[:-1])
    assert (~same | slower | tie).all()


@settings(max_examples=200, deadline=None)
@given(configs(), st.integers(6, 12))
def test_random_config_steps_keep_invariants(raw, steps):
    config = ExperimentConfig.from_dict(raw)
    model = build_model(config)
    tm = model.tm
    n = tm.cells_per_column
    tokens = config.sequences[0].tokens
    prev_predictive = set()
    for t in range(steps):
        out = tm.step(model.encode(tokens[t % len(tokens)]))
        predicted, burst = set(out.predicted_cells), set(out.burst_cells)
        assert not predicted & burst
        assert set(out.active_cells) == predicted | burst
        assert len(out.active_columns) <= tm.pattern.n_active
        assert all(tm.column_of(c) in out.active_columns.active_set for c in out.active_cells)
        assert predicted <= prev_predictive
        for m in out.active_columns:
            column = set(range(m * n, m * n + n))
            assert bool(column & predicted) == bool(column & prev_predictive)
            assert len(column & set(out.winner_cells)) == 1
        check_firing_sequence(out, tm.n_columns)
        prev_predictive = set(out.predictive_cells_next)
