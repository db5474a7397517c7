"""``experiments.decode_prediction`` against the probe it was first built
with: one ``Sdr`` constructor call over the columns and over the voted bits,
matched by a loop over the symbols sorted by ``str``."""

import copy
import functools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import Sdr, overlap
from minicolumn.experiments import ExperimentConfig, decode_prediction, run_sequence

CONFIG = {
    "seed": 5,
    "encoder": {"type": "category", "universe_size": 512, "active_bits": 16},
    "layer": {"n_columns": 256, "cells_per_column": 8, "n_active": 8},
    "sequences": [
        {"tokens": ["A", "B", "C", "D"], "repeats": 12},
        {"tokens": ["X", "B", "C", "Y"], "repeats": 12},
    ],
}
SCALAR_CONFIG = {
    "encoder": {
        "type": "scalar", "universe_size": 512, "active_bits": 16, "min_value": 0, "max_value": 100,
    },
    "layer": {"n_columns": 256, "cells_per_column": 8, "n_active": 8},
    "sequences": [{"tokens": [10, 40, 70, 95], "repeats": 15}],
}


def reference_decode(model, output, codes):
    """The decode of ``output`` against ``codes``, a dict of symbol to code."""
    cells = output.predictive_cells_next
    if not cells.active:
        return None, 0
    tm = model.tm
    columns = sorted({tm.column_of(c) for c in cells})
    estimate = tm.pattern.reconstruct(Sdr(tm.n_columns, columns))
    probe = Sdr(model.encoder.universe_size, np.nonzero(estimate)[0])
    best_symbol, best_overlap = None, -1
    for symbol in sorted(codes, key=str):
        ov = overlap(codes[symbol], probe)
        if ov > best_overlap:
            best_symbol, best_overlap = symbol, ov
    return best_symbol, best_overlap


@functools.cache
def _trained(config_json):
    return run_sequence(ExperimentConfig.from_dict(json.loads(config_json)))[1]


def trained(config):
    """A copy of the model ``run_sequence`` trains on ``config``; each config
    is trained once per test run."""
    return copy.deepcopy(_trained(json.dumps(config)))


def test_decode_matches_the_reference_probe_on_a_trained_model():
    model = trained(CONFIG)
    tm = model.tm
    answers = []
    for tokens in (["A", "B", "C"], ["X", "B", "C"], ["D", "A", "Y", "B"]):
        tm.reset()
        for token in tokens:
            output = tm.step(model.encode(token), learn=False)
            answer = decode_prediction(model, output)
            assert answer == reference_decode(model, output, dict(model.encoder.symbol_table))
            assert type(answer[1]) is int
            answers.append(answer)
    # the trained model predicts, and some steps predict nothing
    assert {"B", "C", "Y"} <= {symbol for symbol, _ in answers}
    assert (None, 0) in answers


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["A", "B", "C", "D", "X", "Y", "new1", "new2"]), max_size=5))
def test_decode_matches_the_reference_after_any_prefix(tokens):
    """Unseen tokens add symbols to the table between decodes."""
    model = trained(CONFIG)
    tm = model.tm
    tm.reset()
    for token in tokens:
        output = tm.step(model.encode(token), learn=False)
        assert decode_prediction(model, output) == reference_decode(
            model, output, dict(model.encoder.symbol_table)
        )


def test_scalar_decode_matches_the_reference_over_the_run_tokens():
    model = trained(SCALAR_CONFIG)
    tm = model.tm
    values = [10, 40, 70, 95]
    codes = {v: model.encode(v) for v in values}
    answers = []
    for prefix in ([10], [10, 40], [10, 40, 70], [95, 10], [70, 70]):
        tm.reset()
        for value in prefix:
            output = tm.step(model.encode(value), learn=False)
            answer = decode_prediction(model, output, values)
            assert answer == reference_decode(model, output, codes)
            answers.append(answer)
    assert (95, 16) in answers
