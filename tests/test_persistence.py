import json
from pathlib import Path

import numpy as np
import pytest

from minicolumn import (
    CategoryEncoder,
    PatternLayer,
    PoolingLayer,
    Sdr,
    TmLayer,
)
from minicolumn import persistence
from minicolumn.experiments import SequenceModel
from minicolumn.persistence import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotValidationError,
)


FORMAT1_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "format1_model.json"


def format1_layer_doc(layer: str) -> dict:
    """The fixture's transition or pooling layer as a standalone format-1
    snapshot, as format 1 saved such a layer on its own."""
    state = json.loads(FORMAT1_FIXTURE.read_text())["state"][layer]
    kind = {"tm": "tm_layer", "pool": "pooling_layer"}[layer]
    return {"format_version": 1, "kind": kind, "state": state}


def format1_pattern(doc: dict) -> dict:
    """The pattern-layer state inside a standalone layer snapshot."""
    state = doc["state"]
    return state["pattern"] if doc["kind"] == "tm_layer" else state


def rand_sdr(rng, universe, k):
    return Sdr(universe, rng.choice(universe, k, replace=False))


def trained_tm(seed=4, steps=25):
    layer = TmLayer(128, 32, 4, n_active=4, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        layer.step(rand_sdr(rng, 128, 16))
    return layer


class TestRoundTrip:
    def test_fresh_tm_resumes_identically(self, tmp_path):
        path = tmp_path / "fresh.json"
        a = TmLayer(128, 32, 4, n_active=4, seed=11)
        persistence.save(a, path)
        b = persistence.load(path)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rand_sdr(rng, 128, 16)
            oa, ob = a.step(x), b.step(x)
            assert oa.active_cells == ob.active_cells
            assert oa.winner_cells == ob.winner_cells
            assert oa.anomaly == ob.anomaly

    def test_mid_training_resume_matches_uninterrupted(self, tmp_path):
        path = tmp_path / "mid.json"
        uninterrupted = trained_tm(seed=4, steps=25)
        resumed = trained_tm(seed=4, steps=25)
        persistence.save(resumed, path)
        resumed = persistence.load(path)
        rng = np.random.default_rng(99)
        for _ in range(10):
            x = rand_sdr(rng, 128, 16)
            oa = uninterrupted.step(x)
            ob = resumed.step(x)
            assert oa.active_cells == ob.active_cells
            assert oa.winner_cells == ob.winner_cells
            assert oa.firing_sequence == ob.firing_sequence

    def test_grown_segments_survive(self, tmp_path):
        path = tmp_path / "segments.json"
        layer = trained_tm()
        persistence.save(layer, path)
        loaded = persistence.load(path)
        assert set(loaded.segments) == set(layer.segments)
        for cell in layer.segments:
            for sa, sb in zip(layer.segments[cell], loaded.segments[cell]):
                assert sa.sources == sb.sources
                assert sa.permanences == sb.permanences

    def test_full_precision_permanence(self, tmp_path):
        path = tmp_path / "precision.json"
        layer = PatternLayer(16, 4, n_active=1, n_synapses=2, seed=0)
        layer.permanences[0, 0] = 0.123456789
        layer.permanences[1, 1] = 1 / 3
        persistence.save(layer, path)
        loaded = persistence.load(path)
        assert loaded.permanences[0, 0] == 0.123456789
        assert loaded.permanences[1, 1] == 1 / 3

    def test_pattern_layer_round_trip(self, tmp_path):
        path = tmp_path / "pattern.json"
        layer = PatternLayer(64, 16, n_active=3, seed=2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rand_sdr(rng, 64, 10)
            layer.learn(x, layer.compute_sdr(x))
        persistence.save(layer, path)
        loaded = persistence.load(path)
        x = rand_sdr(rng, 64, 10)
        assert loaded.compute_sdr(x) == layer.compute_sdr(x)
        assert np.array_equal(loaded.permanences, layer.permanences)

    def test_pooling_layer_round_trip(self, tmp_path):
        path = tmp_path / "pool.json"
        pool = PoolingLayer(64, 16, n_active=3, seed=2)
        pool.active_prev = Sdr(16, [1, 5])
        persistence.save(pool, path)
        loaded = persistence.load(path)
        assert isinstance(loaded, PoolingLayer)
        assert loaded.persistence == pool.persistence
        assert loaded.active_prev == pool.active_prev

    def test_encoder_round_trip(self, tmp_path):
        path = tmp_path / "encoder.json"
        enc = CategoryEncoder(256, 12, rng_seed=5)
        enc.encode("A")
        enc.encode("B")
        persistence.save(enc, path)
        loaded = persistence.load(path)
        assert loaded.symbol_table == enc.symbol_table
        assert loaded.encode("C") == enc.encode("C")  # rng state carried over

    def test_sequence_model_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        enc = CategoryEncoder(128, 10, rng_seed=1)
        model = SequenceModel(encoder=enc, tm=TmLayer(128, 32, 4, n_active=4, seed=3))
        for sym in "ABAB":
            model.tm.step(model.encode(sym))
        persistence.save(model, path)
        loaded = persistence.load(path)
        oa = model.tm.step(model.encode("A"))
        ob = loaded.tm.step(loaded.encode("A"))
        assert oa.active_cells == ob.active_cells

    def test_random_models_property(self, tmp_path):
        rng = np.random.default_rng(31)
        for trial in range(6):
            seed = int(rng.integers(1_000_000))
            layer = TmLayer(64, 16, 3, n_active=3, seed=seed)
            for _ in range(int(rng.integers(0, 20))):
                layer.step(rand_sdr(rng, 64, 10))
            path = tmp_path / f"model_{trial}.json"
            persistence.save(layer, path)
            loaded = persistence.load(path)
            for _ in range(5):
                x = rand_sdr(rng, 64, 10)
                assert layer.step(x).active_cells == loaded.step(x).active_cells


class TestValidation:
    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad_version.json"
        layer = PatternLayer(16, 4, n_active=1, seed=0)
        persistence.save(layer, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError):
            persistence.load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad_kind.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "nope", "state": {}}))
        with pytest.raises(SnapshotFormatError):
            persistence.load(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,\n  "kind": ???}')
        with pytest.raises(SnapshotError, match="line 2"):
            persistence.load(path)

    def test_out_of_range_permanence_rejected(self, tmp_path):
        path = tmp_path / "bad_perm.json"
        layer = PatternLayer(16, 4, n_active=1, seed=0)
        persistence.save(layer, path)
        doc = json.loads(path.read_text())
        doc["state"]["permanences"][0][0] = 1.7
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotValidationError):
            persistence.load(path)

    def test_bad_segment_permanence_rejected(self, tmp_path):
        path = tmp_path / "bad_segment.json"
        layer = trained_tm()
        persistence.save(layer, path)
        doc = json.loads(path.read_text())
        assert doc["state"]["segments"], "trained layer should have segments"
        doc["state"]["segments"][0][1][0]["permanences"][0] = -0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotValidationError):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    @pytest.mark.parametrize(
        "field, mutate",
        [
            ("sources", lambda rows: rows[:-1]),
            ("sources", lambda rows: [row[:-1] for row in rows]),
            ("sources", lambda rows: [row[:-1] for row in rows[:1]] + rows[1:]),
            ("sources", lambda rows: [[-1] + rows[0][1:]] + rows[1:]),
            ("sources", lambda rows: [rows[0][:-1] + [10**6]] + rows[1:]),
            ("sources", lambda rows: [[rows[0][1]] + rows[0][1:]] + rows[1:]),
            ("sources", lambda rows: [[rows[0][0] + 0.5] + rows[0][1:]] + rows[1:]),
            ("permanences", lambda rows: rows[:-1]),
            ("permanences", lambda rows: [row + [0.5] for row in rows]),
            ("permanences", lambda rows: [[None] + rows[0][1:]] + rows[1:]),
        ],
    )
    def test_mutated_format1_pattern_state_rejected(self, tmp_path, layer, field, mutate):
        doc = json.loads(FORMAT1_FIXTURE.read_text())
        state = doc["state"][layer]
        if layer == "tm":
            state = state["pattern"]
        state[field] = mutate(state[field])
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotValidationError, match=field):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_format1_layer_snapshot_upgrades(self, tmp_path, layer):
        doc = format1_layer_doc(layer)
        path = tmp_path / "format1.json"
        path.write_text(json.dumps(doc))
        persistence.save(persistence.load(path), path)
        state = doc["state"]
        pattern = format1_pattern(doc)
        if layer == "tm":
            del state["params"]["column_score_mode"]
            del state["params"]["boost_strength"], state["params"]["duty_period"]
        del pattern["params"]["boost_strength"], pattern["params"]["duty_period"]
        del pattern["boost"], pattern["active_duty"], pattern["overlap_duty"]
        assert json.loads(path.read_text()) == dict(doc, format_version=2)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_format1_boost_other_than_one_rejected(self, tmp_path, layer):
        doc = format1_layer_doc(layer)
        format1_pattern(doc)["boost"][3] = 1.5
        path = tmp_path / "boosted.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="boost"):
            persistence.load(path)

    def test_format1_summed_column_scores_rejected(self, tmp_path):
        doc = format1_layer_doc("tm")
        doc["state"]["params"]["column_score_mode"] = "sum"
        path = tmp_path / "summed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="column_score_mode 'sum'"):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_format_version_3_rejected(self, tmp_path, layer):
        doc = dict(format1_layer_doc(layer), format_version=3)
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="format_version 3"):
            persistence.load(path)

    def test_missing_file_surfaces_path(self, tmp_path):
        with pytest.raises(SnapshotError, match="nope.json"):
            persistence.load(tmp_path / "nope.json")


class TestCrashSafeSave:
    def saved(self, tmp_path):
        path = tmp_path / "model.json"
        layer = trained_tm()
        persistence.save(layer, path)
        return layer, path, path.read_bytes()

    def test_to_state_failure_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        layer, path, before = self.saved(tmp_path)

        def broken():
            raise RuntimeError("to_state failed")

        monkeypatch.setattr(layer, "to_state", broken)
        with pytest.raises(RuntimeError, match="to_state failed"):
            persistence.save(layer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failure_mid_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        layer, path, before = self.saved(tmp_path)
        layer.step(Sdr(128, range(16)))
        state = layer.to_state()
        state["rng"] = object()  # serialised last, after everything else
        monkeypatch.setattr(layer, "to_state", lambda: state)
        with pytest.raises(TypeError):
            persistence.save(layer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert isinstance(persistence.load(path), TmLayer)

    def test_unwritable_directory_reports_path(self, tmp_path):
        target = tmp_path / "missing" / "model.json"
        with pytest.raises(SnapshotError, match="missing"):
            persistence.save(trained_tm(), target)
