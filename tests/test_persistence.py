import json
import math
import pickle
import re
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import (
    CategoryEncoder,
    PatternLayer,
    PoolingLayer,
    Sdr,
    TmLayer,
)
from minicolumn import persistence
from minicolumn.encoders import ScalarEncoder
from minicolumn.experiments import ExperimentConfig, SequenceModel, build_model
from minicolumn.persistence import (
    SnapshotError,
    SnapshotFormatError,
    SnapshotValidationError,
)

import snapshot_mutations as mutations
from test_random_configs import configs


FORMAT1_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "format1_model.json"


def plain(value):
    """``value`` with every array turned into nested lists, as JSON holds it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def format2_doc(model) -> dict:
    """The format-2 JSON document of ``model``, as format 2 was saved."""
    kind = persistence._kind_of(model)
    return {"format_version": 2, "kind": kind, "state": plain(model.to_state())}


def edited_snapshot(tmp_path, model, change) -> Path:
    """A zip snapshot of ``model`` whose members ``change`` rewrote."""
    path = tmp_path / "model.npz"
    persistence.save(model, path)
    members = mutations.read_members(path)
    change(members)
    mutations.write_members(path, members)
    return path


def rand_sdr(rng, universe, k):
    return Sdr(universe, rng.choice(universe, k, replace=False))


def trained_tm(seed=4, steps=25):
    layer = TmLayer(128, 32, 4, n_active=4, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        layer.step(rand_sdr(rng, 128, 16))
    return layer


# What load says, after "snapshot <path>: ", of every file that is not a zip.
NOT_A_ZIP = (
    "not a zip snapshot; JSON snapshots (formats 1 and 2) are read by minicolumn 0.1.0, "
    "which saves them as format 4"
)
# (id, contents) of such files: both JSON formats, an empty file and bytes that are not text
NOT_ZIPS = [
    ("format-1-fixture", FORMAT1_FIXTURE.read_bytes),
    ("format-2", lambda: json.dumps(format2_doc(trained_tm())).encode()),
    ("empty", lambda: b""),
    ("not-text", lambda: b"\xff\xfe\x00"),
]


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
        permanences = layer.permanences.copy()
        permanences[0, 0] = 0.123456789
        permanences[1, 1] = 1 / 3
        layer.permanences = permanences
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

    def test_scalar_sequence_model_resumes_like_uninterrupted(self, tmp_path):
        config = ExperimentConfig.from_dict(
            {
                "seed": 3,
                "encoder": {
                    "type": "scalar", "universe_size": 128, "active_bits": 10,
                    "min_value": 0, "max_value": 5,
                },
                "layer": {"n_columns": 32, "cells_per_column": 4, "n_active": 4},
                "sequences": [{"tokens": [0, 1]}],
            }
        )
        values = [0.5 * (i % 7) for i in range(40)]
        uninterrupted, resumed = build_model(config), build_model(config)
        expected = step_all(uninterrupted, values)
        outputs = step_all(resumed, values[:20])
        persistence.save(resumed, tmp_path / "half.json")
        resumed = persistence.load(tmp_path / "half.json")
        assert isinstance(resumed.encoder, ScalarEncoder)
        outputs += step_all(resumed, values[20:])
        assert outputs == expected
        persistence.save(uninterrupted, tmp_path / "a.json")
        persistence.save(resumed, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_add_segment_between_steps_resumes_identically(self, tmp_path):
        layer = TmLayer(64, 16, 4, n_active=2, activation_threshold=2, seed=5)
        rng = np.random.default_rng(8)
        layer.step(rand_sdr(rng, 64, 12))
        x = rand_sdr(rng, 64, 12)
        # a cell of a column the next input activates, predicted by nothing yet
        cell = layer.pattern.compute_sdr(x).active[0] * layer.cells_per_column
        assert not layer.prev_predictive.active
        sources = [c for c in layer.prev_active.active if c != cell][:2]
        layer.add_segment(cell, sources, [0.9, 0.9])
        assert layer.prev_predictive.active == (cell,)
        persistence.save(layer, tmp_path / "m.json")
        loaded = persistence.load(tmp_path / "m.json")
        out = layer.step(x)
        assert out.predicted_cells.active == (cell,)
        assert out == loaded.step(x)
        for _ in range(2):
            x = rand_sdr(rng, 64, 12)
            assert layer.step(x) == loaded.step(x)
        persistence.save(layer, tmp_path / "a.json")
        persistence.save(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

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
    @pytest.mark.parametrize(
        "encoder",
        [CategoryEncoder(256, 12, rng_seed=1), ScalarEncoder(0.0, 10.0, 256, 12)],
        ids=["category_encoder", "scalar_encoder"],
    )
    @pytest.mark.parametrize(
        "key, value",
        [("universe_size", 256.5), ("universe_size", True), ("active_bits", 12.5),
         ("active_bits", True)],
    )
    def test_edited_encoder_width_rejected(self, tmp_path, encoder, key, value):
        # a scalar encoder edited to width 256.5 loaded and encoded an
        # Sdr(universe_size=256.5, ...)
        path = tmp_path / "encoder.npz"
        if isinstance(encoder, CategoryEncoder):
            encoder.encode("A")
        persistence.save(encoder, path)
        members = mutations.read_members(path)
        mutations.edit_header(lambda s: s["params"].update({key: value}))(members)
        mutations.write_members(path, members)
        with pytest.raises(SnapshotValidationError, match=f"{key} must"):
            persistence.load(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = edited_snapshot(
            tmp_path, PatternLayer(16, 4, n_active=1, seed=0),
            lambda m: mutations.set_header(m, dict(mutations.header(m), format_version=99)),
        )
        with pytest.raises(SnapshotFormatError):
            persistence.load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad_kind.npz"
        members = {}
        mutations.set_header(members, {"format_version": 4, "kind": "nope", "state": {}})
        mutations.write_members(path, members)
        with pytest.raises(SnapshotFormatError):
            persistence.load(path)

    def test_out_of_range_permanence_rejected(self, tmp_path):
        path = edited_snapshot(
            tmp_path, PatternLayer(16, 4, n_active=1, seed=0),
            mutations.edit_array("state.permanences", lambda a: mutations.assigned(a, (0, 0), 1.7)),
        )
        with pytest.raises(SnapshotValidationError):
            persistence.load(path)

    @pytest.mark.parametrize(
        "name, value",
        [("cells_per_column", 4.5), ("synapses_per_segment", 32.9), ("activation_threshold", 7.5)],
    )
    def test_non_integral_count_rejected(self, tmp_path, name, value):
        path = edited_snapshot(
            tmp_path, trained_tm(), mutations.edit_header(lambda s: s["params"].update({name: value}))
        )
        with pytest.raises(SnapshotValidationError, match=f"{name} must be an integer"):
            persistence.load(path)

    def test_layer_too_large_to_allocate_rejected(self, tmp_path):
        path = edited_snapshot(
            tmp_path, trained_tm(),
            mutations.edit_header(lambda s: s["params"].update(cells_per_column=2**45)),
        )
        with pytest.raises(SnapshotValidationError, match="allocate"):
            persistence.load(path)

    @pytest.mark.parametrize("value", [2**63, 1e300])
    def test_threshold_beyond_int64_rejected(self, tmp_path, value):
        # such a layer loaded, and the first segment it grew could not hold it
        path = edited_snapshot(
            tmp_path, trained_tm(),
            mutations.edit_header(lambda s: s["params"].update(activation_threshold=value)),
        )
        with pytest.raises(SnapshotValidationError, match=r"activation_threshold must be < 2\*\*63"):
            persistence.load(path)

    def test_bad_segment_permanence_rejected(self, tmp_path):
        layer = trained_tm()
        assert layer.distal_counts()["segments"], "trained layer should have segments"
        path = edited_snapshot(
            tmp_path, layer,
            mutations.edit_array("state.distal.permanences", lambda a: mutations.assigned(a, 0, -0.5)),
        )
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
    def test_mutated_pattern_state_rejected(self, tmp_path, layer, field, mutate):
        # The member moves into the header as nested lists, so rows can be ragged.
        prefix = "state.tm.pattern." if layer == "tm" else "state.pool."

        def inline(members):
            rows = mutate(members.pop(prefix + field).tolist())

            def edit(state):
                state = state["tm"]["pattern"] if layer == "tm" else state["pool"]
                state[field] = rows

            mutations.edit_header(edit)(members)

        path = edited_snapshot(tmp_path, fixture_model(), inline)
        with pytest.raises(SnapshotValidationError, match=field):
            persistence.load(path)

    @pytest.mark.parametrize("version", [True, 1.0, 3.0, 4.0])
    def test_version_not_an_int_rejected_in_zip(self, tmp_path, version):
        path = tmp_path / "model.npz"
        persistence.save(fixture_model(), path)
        members = mutations.read_members(path)
        mutations.set_header(members, dict(mutations.header(members), format_version=version))
        mutations.write_members(path, members)
        with pytest.raises(SnapshotFormatError, match=f"format_version {version!r}"):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_format_version_5_rejected(self, tmp_path, layer):
        path = edited_snapshot(
            tmp_path, getattr(fixture_model(), layer),
            lambda m: mutations.set_header(m, dict(mutations.header(m), format_version=5)),
        )
        with pytest.raises(SnapshotFormatError, match="format_version 5"):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_boost_strength_rejected(self, tmp_path, layer):
        # format 2 removed boosting; a header that still sets it is refused
        def boost(state):
            state = state["pattern"] if layer == "tm" else state
            state["params"]["boost_strength"] = 1.0

        path = edited_snapshot(tmp_path, getattr(fixture_model(), layer), mutations.edit_header(boost))
        with pytest.raises(SnapshotValidationError, match="boost_strength"):
            persistence.load(path)

    def test_column_score_mode_rejected(self, tmp_path):
        path = edited_snapshot(
            tmp_path, fixture_model().tm,
            mutations.edit_header(lambda s: s["params"].update(column_score_mode="sum")),
        )
        with pytest.raises(SnapshotValidationError, match="column_score_mode"):
            persistence.load(path)

    def test_header_parse_error_reports_location(self, tmp_path):
        path = edited_snapshot(
            tmp_path, PatternLayer(16, 4, n_active=1, seed=0),
            lambda m: m.update(header=np.frombuffer(b'{"format_version": 4,\n  "kind": ???}', np.uint8)),
        )
        with pytest.raises(SnapshotFormatError, match="line 2"):
            persistence.load(path)

    @pytest.mark.parametrize("layer", ["tm", "pool"])
    def test_fixture_layer_saved_alone_round_trips(self, tmp_path, layer):
        model = getattr(fixture_model(), layer)
        state = plain(model.to_state())
        path = tmp_path / "layer.npz"
        persistence.save(model, path)
        persistence.save(persistence.load(path), path)
        assert plain(persistence.load(path).to_state()) == state

    def test_missing_file_surfaces_path(self, tmp_path):
        with pytest.raises(SnapshotError, match="nope.json"):
            persistence.load(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "contents", [case[1] for case in NOT_ZIPS], ids=[case[0] for case in NOT_ZIPS]
    )
    def test_file_that_is_not_a_zip_refused(self, tmp_path, contents):
        path = tmp_path / "model.json"
        path.write_bytes(contents())
        with pytest.raises(SnapshotFormatError) as refused:
            persistence.load(path)
        assert str(refused.value) == f"snapshot {path}: {NOT_A_ZIP}"

    def test_reference_to_a_member_that_is_not_npy_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        persistence.save(fixture_model(), path)
        members = mutations.read_members(path)
        notes = {"$array": "notes"}
        mutations.edit_header(lambda s: s["tm"]["pattern"].update(sources=notes))(members)
        mutations.write_members(path, members)
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("notes", b"not an array")
        with pytest.raises(SnapshotFormatError, match="member 'notes' is not an .npy array"):
            persistence.load(path)


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

    def test_object_of_no_snapshot_kind_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot snapshot object of type object"):
            persistence.save(object(), tmp_path / "model")
        assert not any(tmp_path.iterdir())

    def test_unwritable_directory_reports_path(self, tmp_path):
        target = tmp_path / "missing" / "model.json"
        with pytest.raises(SnapshotError, match="missing"):
            persistence.save(trained_tm(), target)


def fixture_model():
    """The format-3 fixture's encoder + transition + pool model."""
    return persistence.load(mutations.FORMAT3_FIXTURE)


def step_all(model, tokens) -> list:
    """Step ``model`` (a ``SequenceModel``, its pool included) over ``tokens``
    with learning on. Returns each step's output and pooled SDR (None
    without a pool)."""
    steps = []
    for token in tokens:
        out = model.tm.step(model.encode(token))
        pooled = None
        if model.pool is not None:
            pooled = model.pool.tp_step(out)
            model.pool.tp_learn(out, pooled)
        steps.append((out, pooled))
    return steps


@st.composite
def resume_configs(draw):
    """A random config whose run draws from the rng (random blank winners),
    meets the segment budget (1 to 3 per cell), and sometimes adds a pool,
    sometimes at full potential."""
    raw = draw(configs())
    raw["layer"].update(blank_winner="random", segments_per_cell=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        n_columns = draw(st.integers(4, 16))
        raw["pool"] = {
            "n_columns": n_columns,
            "n_active": draw(st.integers(1, min(n_columns, 4))),
            "potential_fraction": draw(st.sampled_from([0.5, 1.0])),
            "persistence": draw(st.sampled_from([0.0, 0.9])),
        }
    return raw


@settings(max_examples=100, deadline=None)
@given(resume_configs(), st.lists(st.integers(0, 3), min_size=2, max_size=24), st.data())
def test_resumed_model_steps_like_the_uninterrupted_one(tmp_path_factory, raw, picks, data):
    config = ExperimentConfig.from_dict(raw)
    model = build_model(config, with_pool="pool" in raw)
    symbols = config.sequences[0].tokens
    tokens = [symbols[i % len(symbols)] for i in picks]
    k = data.draw(st.integers(1, len(tokens) - 1), label="k")
    step_all(model, tokens[:k])
    path = tmp_path_factory.mktemp("resume") / "model"
    persistence.save(model, path)
    resumed = persistence.load(path)
    assert step_all(resumed, tokens[k:]) == step_all(model, tokens[k:])
    persistence.save(resumed, path.with_name("resumed"))
    persistence.save(model, path.with_name("uninterrupted"))
    assert path.with_name("resumed").read_bytes() == path.with_name("uninterrupted").read_bytes()


class TestFormat3:
    @pytest.mark.parametrize("name", ["m.json", "m"])
    def test_writes_exactly_the_given_path(self, tmp_path, name):
        persistence.save(trained_tm(), tmp_path / name)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_bytes()[:4] == b"PK\x03\x04"
        assert isinstance(persistence.load(tmp_path / name), TmLayer)

    def test_two_saves_are_byte_identical(self, tmp_path):
        model = fixture_model()
        persistence.save(model, tmp_path / "a")
        persistence.save(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_members_keep_the_layers_dtypes(self, tmp_path):
        path = tmp_path / "m"
        persistence.save(fixture_model(), path)
        members = mutations.read_members(path)
        dtypes = {name: array.dtype for name, array in members.items()}
        assert dtypes == {
            "header": np.uint8,
            "state.tm.pattern.sources": np.int32,
            "state.tm.pattern.permanences": np.float64,
            "state.tm.distal.cells": np.int32,
            "state.tm.distal.lengths": np.int32,
            "state.tm.distal.sources": np.int32,
            "state.tm.distal.permanences": np.float64,
            "state.tm.distal.activation_threshold": np.int64,
            "state.tm.distal.spike_size": np.float64,
            "state.pool.sources": np.int32,
            "state.pool.permanences": np.float64,
        }
        document = mutations.header(members)
        assert (document["format_version"], document["kind"]) == (4, "sequence_model")
        assert document["state"]["pool"]["permanences"] == {"$array": "state.pool.permanences"}

    def test_no_segment_field_reaches_the_header(self, tmp_path):
        layer = trained_tm()
        path = tmp_path / "m"
        persistence.save(layer, path)
        members = mutations.read_members(path)
        state = mutations.header(members)["state"]
        assert "segments" not in state
        assert state["distal"] == {
            name: {"$array": f"state.distal.{name}"}
            for name in ("cells", "lengths", "sources", "permanences", "activation_threshold",
                         "spike_size")
        }
        # the members hold the documented list, segment after segment
        segments = layer.to_state()["segments"]
        segs = [seg for _, cell_segs in segments for seg in cell_segs]
        assert segs
        assert members["state.distal.cells"].tolist() == [
            cell for cell, cell_segs in segments for _ in cell_segs
        ]
        assert members["state.distal.lengths"].tolist() == [len(seg["sources"]) for seg in segs]
        assert members["state.distal.sources"].tolist() == [
            source for seg in segs for source in seg["sources"]
        ]
        assert members["state.distal.permanences"].tolist() == [
            p for seg in segs for p in seg["permanences"]
        ]
        # and to_state() keeps that list, in its documented shape
        assert persistence.load(path).to_state()["segments"] == segments
        for cell, cell_segs in segments:
            assert type(cell) is int
            for seg in cell_segs:
                assert set(seg) == {"sources", "permanences", "activation_threshold", "spike_size"}
                assert all(type(s) is int for s in seg["sources"])
                assert all(type(p) is float for p in seg["permanences"])
                assert type(seg["activation_threshold"]) is int
                assert type(seg["spike_size"]) is float

    @pytest.mark.parametrize("potential_fraction, rows", [(1.0, 1), (0.5, 16)])
    def test_full_potential_sources_are_one_row(self, tmp_path, potential_fraction, rows):
        pool = PoolingLayer(64, 16, n_active=3, potential_fraction=potential_fraction, seed=2)
        path = tmp_path / "m"
        persistence.save(pool, path)
        sources = mutations.read_members(path)["state.sources"]
        assert sources.shape == (rows, pool.n_synapses)
        loaded = persistence.load(path)
        assert np.array_equal(loaded.sources, pool.sources)
        assert loaded._full_potential == pool._full_potential

    def test_loaded_model_learns_like_the_original(self, tmp_path):
        path = tmp_path / "m"
        model = fixture_model()
        persistence.save(model, path)
        loaded = persistence.load(path)
        assert step_all(loaded, "ABCDXBCY") == step_all(model, "ABCDXBCY")
        assert np.array_equal(loaded.tm.pattern.permanences, model.tm.pattern.permanences)
        assert np.array_equal(loaded.pool.permanences, model.pool.permanences)
        assert loaded.tm.segments == model.tm.segments

    def test_segments_keep_their_documented_shape(self, tmp_path):
        path = tmp_path / "m"
        persistence.save(trained_tm(), path)
        segments = persistence.load(path).to_state()["segments"]
        assert segments == trained_tm().to_state()["segments"]
        assert segments
        for cell, segs in segments:
            assert type(cell) is int
            for seg in segs:
                assert set(seg) == {"sources", "permanences", "activation_threshold", "spike_size"}
                assert all(type(s) is int for s in seg["sources"])
                assert all(type(p) is float for p in seg["permanences"])

    def test_paper_scale_top_cell_source_round_trips(self, tmp_path):
        # 65536 cells: the padding source id does not fit in 16 bits.
        layer = TmLayer(2048, 2048, 32, n_active=40, n_synapses=32, seed=1)
        top = layer.n_cells - 1
        layer.add_segment(0, [top, 5], [0.5, 0.25], activation_threshold=1)
        layer.add_segment(top, [0, top - 1], [1.0, 0.0], activation_threshold=1)
        path = tmp_path / "paper"
        persistence.save(layer, path)
        loaded = persistence.load(path)
        assert loaded.segments == layer.segments
        assert loaded.distal_counts() == layer.distal_counts()
        x = Sdr(2048, range(0, 2048, 50))
        assert loaded.step(x) == layer.step(x)


def layer_arrays(layer) -> list:
    return [value for value in vars(layer).values() if isinstance(value, np.ndarray)]


class TestLoadHoldsWhatItReads:
    """A load hands each array it reads to one layer, which holds it uncopied."""

    def test_paper_scale_load_peaks_near_the_file_size(self, tmp_path):
        # Copying every array the load reads peaks at about 2.1x.
        model = SequenceModel(
            encoder=CategoryEncoder(2048, 40), tm=TmLayer(2048, 2048, 32, n_active=40, seed=1)
        )
        step_all(model, "ABCDABCD")
        path = tmp_path / "paper"
        persistence.save(model, path)
        tracemalloc.start()
        try:
            loaded = persistence.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step_all(loaded, "ABCD") == step_all(model, "ABCD")
        assert peak <= 1.5 * path.stat().st_size

    def test_no_two_layers_share_memory(self, tmp_path):
        path = tmp_path / "m"
        persistence.save(fixture_model(), path)
        loaded = persistence.load(path)
        layers = [loaded.tm.pattern, loaded.tm, loaded.pool]
        for i, layer in enumerate(layers):
            for other in layers[i + 1:]:
                for a in layer_arrays(layer):
                    assert not any(np.shares_memory(a, b) for b in layer_arrays(other))

    def test_fortran_permanences_and_int64_sources_load_through_a_copy(self, tmp_path):
        def change(members):
            members[mutations.PERMANENCES] = np.asfortranarray(members[mutations.PERMANENCES])
            members[mutations.SOURCES] = members[mutations.SOURCES].astype(np.int64)

        model = fixture_model()
        path = edited_snapshot(tmp_path, model, change)
        members = mutations.read_members(path)
        assert not members[mutations.PERMANENCES].flags.c_contiguous
        assert members[mutations.SOURCES].dtype == np.int64
        loaded = persistence.load(path)
        assert loaded.tm.pattern._permanences.flags.c_contiguous
        assert loaded.tm.pattern._sources.dtype == np.int32
        assert step_all(loaded, "ABCDXBCY") == step_all(model, "ABCDXBCY")
        assert np.array_equal(loaded.tm.pattern.permanences, model.tm.pattern.permanences)

    def test_an_sdr_built_from_a_member_holds_a_plain_array(self, tmp_path):
        # Only a layer's own sources and permanences may be snapshot arrays.
        def change(members):
            doc = mutations.header(members)
            members["prev"] = np.array(doc["state"]["tm"]["prev_active"], dtype=np.int64)
            doc["state"]["tm"]["prev_active"] = {"$array": "prev"}
            mutations.set_header(members, doc)

        loaded = persistence.load(edited_snapshot(tmp_path, fixture_model(), change))
        assert type(loaded.tm._prev_active.ids) is np.ndarray


class _Tripwire(np.random.Generator):
    """A generator that fails on the draws a layer constructor makes."""

    def choice(self, *args, **kwargs):
        raise AssertionError("load drew a random sources matrix")

    def uniform(self, *args, **kwargs):
        raise AssertionError("load drew a random permanences matrix")


@pytest.mark.parametrize(
    "make",
    [
        lambda: PatternLayer(64, 16, n_active=3, seed=2),
        lambda: PoolingLayer(64, 16, n_active=3, seed=2),
        trained_tm,
        fixture_model,
    ],
    ids=["pattern_layer", "pooling_layer", "tm_layer", "sequence_model"],
)
def test_load_makes_no_random_draws(tmp_path, monkeypatch, make):
    model = make()
    path = tmp_path / "m"
    persistence.save(model, path)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _Tripwire(np.random.PCG64(seed)))
    assert plain(persistence.load(path).to_state()) == plain(model.to_state())


def _refuse_unpickling(*args, **kwargs):
    raise AssertionError("a snapshot member was unpickled")


@pytest.mark.parametrize("case", mutations.CASES, ids=mutations.IDS)
def test_hostile_format3_snapshot_rejected(tmp_path, monkeypatch, case):
    case_id, _, error, fragment = case
    path = tmp_path / "model.npz"
    path.write_bytes(mutations.FORMAT3_FIXTURE.read_bytes())
    mutations.apply(path, case_id)
    monkeypatch.setattr(pickle, "load", _refuse_unpickling)
    monkeypatch.setattr(pickle, "loads", _refuse_unpickling)
    with pytest.raises(error, match=re.escape(fragment)):
        persistence.load(path)


@pytest.mark.parametrize("case", mutations.FORMAT4_CASES, ids=mutations.FORMAT4_IDS)
def test_hostile_format4_snapshot_rejected(tmp_path, monkeypatch, case):
    case_id, _, error, fragment = case
    path = tmp_path / "model.npz"
    persistence.save(mutations.format4_model(), path)
    assert isinstance(persistence.load(path), SequenceModel)
    mutations.apply(path, case_id)
    monkeypatch.setattr(pickle, "load", _refuse_unpickling)
    monkeypatch.setattr(pickle, "loads", _refuse_unpickling)
    with pytest.raises(error, match=re.escape(fragment)):
        persistence.load(path)


_BASE = {}


def base_members(tmp_path_factory) -> dict:
    """Members of the fixture model's format-3 snapshot, read once."""
    if not _BASE:
        path = tmp_path_factory.mktemp("base") / "model"
        persistence.save(fixture_model(), path)
        _BASE.update(mutations.read_members(path))
    return dict(_BASE)


DTYPES = [np.int8, np.uint16, np.int32, np.int64, np.float16, np.float32, np.float64,
          np.bool_, np.complex128, "U4"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_members_load_into_a_working_model_or_raise(tmp_path_factory, data):
    members = base_members(tmp_path_factory)
    name = data.draw(st.sampled_from(sorted(members)), label="member")
    array = members[name]
    op = data.draw(st.sampled_from(["set", "astype", "reshape", "drop", "byte"]), label="op")
    if op == "drop":
        del members[name]
    elif op == "astype":
        members[name] = array.astype(data.draw(st.sampled_from(DTYPES), label="dtype"))
    elif op == "reshape":
        shapes = [array[:-1], array[..., :-1], array.T, array.ravel(), array[None], array[:0]]
        members[name] = data.draw(st.sampled_from(shapes), label="reshaped")
    elif op == "set":
        array = array.copy()
        index = data.draw(st.integers(0, array.size - 1), label="index")
        if array.dtype == np.uint8:  # a byte of the JSON header
            value = data.draw(st.integers(0, 255), label="byte")
        elif array.dtype.kind == "i":
            value = data.draw(st.integers(-(2**31), 2**31 - 1), label="int")
        else:
            value = data.draw(st.floats() | st.sampled_from([0.0, 0.2, 1.0]), label="float")
        array.flat[index] = value
        members[name] = array
    path = tmp_path_factory.mktemp("mutated") / "model"
    mutations.write_members(path, members)
    if op == "byte":  # any byte of the file: zip records, .npy headers or data
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1), label="at")] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(raw))
    try:
        model = persistence.load(path)
    except (SnapshotFormatError, SnapshotValidationError):
        return
    step_all(model, "ABCDXBCYA")


_HEADER = {}


def format3_members(tmp_path_factory) -> dict:
    """Members of the format-3 fixture, read once; each call returns a fresh
    dict. The first call checks that its header, written back unmutated,
    loads into a working model."""
    if not _HEADER:
        members = mutations.read_members(mutations.FORMAT3_FIXTURE)
        mutations.set_header(members, mutations.header(members))
        path = tmp_path_factory.mktemp("header") / "model"
        mutations.write_members(path, members)
        step_all(persistence.load(path), "ABCDXBCYA")
        _HEADER.update(members)
    return dict(_HEADER)


# Numbers are either small, or beyond int64 so that converting them fails
# before anything is allocated. A size field set in between (a pooling layer's
# input_size, a transition layer's cells_per_column or synapses_per_segment)
# declares a valid layer of gigabytes, which the test would then build.
JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 1000)
    | st.sampled_from([2**63, 2**64, 2**70, -(2**63) - 1, 0.5, 1.5, -0.5, 1e300, -1e300])
    | st.floats(-1e3, 1e3)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=3)
    | st.lists(st.integers(-3, 70) | st.floats(-1, 2), max_size=3)
    | st.just({})
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_format3_header_loads_into_a_working_model_or_raises(tmp_path_factory, data):
    members = format3_members(tmp_path_factory)
    # The header's state holds the params, the distal segments, prev_* and
    # the rng states; the arrays stay members. The explicit tests above cover
    # its format_version and kind.
    doc = mutations.header(members)
    # One field, chosen one level at a time: a part of the state, then at
    # each level either the container reached so far (one time in four) or
    # one of its items.
    parent, key = doc["state"], data.draw(st.sampled_from(sorted(doc["state"])), label="key")
    while (
        isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.integers(0, 3)) > 0
    ):
        node = parent[key]
        parent, key = node, data.draw(
            st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))),
            label="key",
        )
    op = data.draw(st.sampled_from(["set", "drop", "nudge", "insert"]), label="op")
    value = parent[key]
    # A key that no to_state writes, inserted beside the chosen one, is always refused.
    inserted = op == "insert" and isinstance(parent, dict)
    if inserted:
        stray = data.draw(st.text(max_size=3).filter(lambda name: name not in parent), label="new")
        parent[stray] = data.draw(JSON_VALUES, label="value")
    elif op == "drop":
        del parent[key]
    elif op == "nudge" and isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = data.draw(st.sampled_from([value + 1, value - 1, -value, 2 * value]))
    else:
        parent[key] = data.draw(JSON_VALUES, label="value")
    mutations.set_header(members, doc)
    path = tmp_path_factory.mktemp("format3") / "model"
    mutations.write_members(path, members)
    if inserted:
        with pytest.raises((SnapshotFormatError, SnapshotValidationError)):
            persistence.load(path)
        return
    try:
        model = persistence.load(path)
    except (SnapshotFormatError, SnapshotValidationError):
        return
    step_all(model, "ABCDXBCYA")
