import json

import numpy as np
import pytest

from minicolumn import (
    DimensionError,
    RunReport,
    Sdr,
    TmLayer,
    prediction_accuracy,
    sdr_overlap_curve,
)


class TestPredictionAccuracy:
    def test_equals_one_minus_anomaly_over_a_run(self):
        layer = TmLayer(64, 16, 4, n_active=3, seed=1)
        rng = np.random.default_rng(8)
        inputs = [Sdr(64, rng.choice(64, 12, replace=False)) for _ in range(4)]
        prev = None
        for t in range(40):
            out = layer.step(inputs[t % 4])
            if prev is not None:
                assert prediction_accuracy(prev, out) == pytest.approx(1.0 - out.anomaly)
            prev = out

    def test_first_step_is_zero(self):
        layer = TmLayer(64, 16, 4, n_active=3, seed=1)
        empty = layer.step(Sdr(64))  # produces an all-empty output
        real = layer.step(Sdr(64, range(12)))
        assert prediction_accuracy(empty, real) == 0.0

    def test_step_without_active_columns_is_zero(self):
        # no input bit reaches min_overlap: no column is active, and the
        # anomaly is 0.0, so 1 - anomaly would be 1.0
        layer = TmLayer(64, 16, 4, n_active=3, min_overlap=5)
        prev = layer.step(Sdr(64, range(20)))
        out = layer.step(Sdr(64))
        assert not out.active_columns.active
        assert out.anomaly == 0.0
        assert prediction_accuracy(prev, out) == 0.0

    def test_counts_predicted_columns(self):
        layer = TmLayer(64, 16, 4, n_active=4, seed=2, blank_winner="lowest")
        a, b = Sdr(64, range(12)), Sdr(64, range(30, 42))
        for _ in range(6):
            layer.step(a)
            layer.step(b)
        prev = layer.step(a, learn=False)
        out = layer.step(b, learn=False)
        n = layer.cells_per_column
        predicted_columns = {c // n for c in prev.predictive_cells_next}
        hits = sum(1 for m in out.active_columns if m in predicted_columns)
        assert prediction_accuracy(prev, out) == pytest.approx(
            hits / len(out.active_columns)
        )


class TestOverlapCurve:
    def test_identity_probe(self):
        ref = Sdr(64, range(10))
        assert sdr_overlap_curve(ref, [ref]) == [1.0]

    def test_disjoint_probe(self):
        ref = Sdr(64, range(10))
        assert sdr_overlap_curve(ref, [Sdr(64, range(20, 30))]) == [0.0]

    def test_half_missing(self):
        ref = Sdr(64, range(10))
        assert sdr_overlap_curve(ref, [Sdr(64, range(5))]) == [0.5]

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            sdr_overlap_curve(Sdr(64, [1]), [Sdr(32, [1])])

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference must have at least one active bit"):
            sdr_overlap_curve(Sdr(64), [Sdr(64, [1])])


class TestRunReport:
    def test_summary_aggregates(self):
        report = RunReport()
        for t, anomaly in enumerate([1.0, 0.5, 0.0]):
            report.add({"t": t, "anomaly": anomaly, "token": "x"})
        report.finalize()
        assert report.summary["anomaly"] == {
            "mean": 0.5,
            "min": 0.0,
            "max": 1.0,
            "final": 0.0,
        }

    def test_write_round_trip(self, tmp_path):
        report = RunReport()
        report.add({"t": 0, "anomaly": 1.0, "active_columns": [1, 2]})
        report.finalize()
        records_path, summary_path = report.write(tmp_path, "demo")
        lines = records_path.read_text().splitlines()
        assert json.loads(lines[0]) == {"t": 0, "anomaly": 1.0, "active_columns": [1, 2]}
        assert "anomaly" in json.loads(summary_path.read_text())
