"""``experiments.decode_prediction`` against the probe it was first built
with: one ``Sdr`` constructor call over the columns and over the voted bits."""

import numpy as np

from minicolumn import Sdr
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


def reference_decode(model, output):
    cells = output.predictive_cells_next
    if not cells.active:
        return None, 0
    tm = model.tm
    columns = sorted({tm.column_of(c) for c in cells})
    estimate = tm.pattern.reconstruct(Sdr(tm.n_columns, columns))
    probe = Sdr(model.encoder.universe_size, np.nonzero(estimate)[0])
    return model.encoder.best_match(probe)


def test_decode_matches_the_reference_probe_on_a_trained_model():
    _, model, _ = run_sequence(ExperimentConfig.from_dict(CONFIG))
    tm = model.tm
    answers = []
    for tokens in (["A", "B", "C"], ["X", "B", "C"], ["D", "A", "Y", "B"]):
        tm.reset()
        for token in tokens:
            output = tm.step(model.encode(token), learn=False)
            answer = decode_prediction(model, output)
            assert answer == reference_decode(model, output)
            assert type(answer[1]) is int
            answers.append(answer)
    # the trained model predicts, and some steps predict nothing
    assert {"B", "C", "Y"} <= {symbol for symbol, _ in answers}
    assert (None, 0) in answers
