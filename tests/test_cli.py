import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minicolumn
from minicolumn import PatternLayer, PoolingLayer, TmLayer, persistence
from minicolumn.cli import main
from minicolumn.experiments import ConfigError, ExperimentConfig, build_model, run_sequence

import snapshot_mutations as mutations

FORMAT1_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "format1_model.json"


BASE_CONFIG = {
    "seed": 7,
    "encoder": {"type": "category", "universe_size": 256, "active_bits": 12},
    "layer": {"n_columns": 64, "cells_per_column": 4, "n_active": 4},
    "sequences": [{"tokens": ["A", "B", "C"], "repeats": 5}],
}


SCALAR_ENCODER = {
    "type": "scalar",
    "universe_size": 256,
    "active_bits": 12,
    "min_value": 0,
    "max_value": 10,
}
# a scalar encoder's config sequences hold numbers
SCALAR_SEQUENCES = [{"tokens": [1, 2, 3], "repeats": 5}]


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigValidation:
    def test_valid_config_parses(self):
        config = ExperimentConfig.from_dict(BASE_CONFIG)
        assert config.seed == 7
        assert config.sequences[0].tokens == ["A", "B", "C"]

    def test_errors_reported_all_at_once(self):
        raw = {
            "seed": "nope",
            "encoder": {"type": "bogus"},
            "layer": {"n_columns": "x"},
            "sequences": [],
            "typo_key": 1,
        }
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        messages = err.value.errors
        assert len(messages) >= 5
        joined = "\n".join(messages)
        assert "seed" in joined
        assert "encoder.type" in joined
        assert "n_columns" in joined
        assert "sequences" in joined
        assert "typo_key" in joined

    def test_empty_sequences_rejected(self):
        raw = dict(BASE_CONFIG, sequences=[])
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentConfig.from_dict(raw)

    def test_short_sequence_rejected(self):
        raw = dict(BASE_CONFIG, sequences=[{"tokens": ["A"], "repeats": 1}])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_layer_key_rejected(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["layer"]["columns"] = 64
        with pytest.raises(ConfigError, match="columns"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"noise": 0.1}, "noise section must be an object"),
            ({"noise": {"flip_fraction": 0.1, "rate": 1}}, "unknown noise key 'rate'"),
            ({"noise": {"flip_fraction": 1.5}}, "noise.flip_fraction must be a number in [0, 1]"),
            ({"noise": {"flip_fraction": -0.1}}, "noise.flip_fraction must be a number in [0, 1]"),
            ({"eval_cycles": 1}, "eval_cycles must be an integer >= 2"),
            ({"sequences": [["A", "B"]]}, "sequences[0] must be an object"),
            (
                {"sequences": [{"tokens": ["A", "B"], "repeats": 0}]},
                "sequences[0].repeats must be a positive integer",
            ),
            (
                {"sequences": [{"tokens": ["A", "B"], "repeats": "2"}]},
                "sequences[0].repeats must be a positive integer",
            ),
            (
                {"sequences": [{"tokens": ["A", "B"], "repeats": True}]},
                "sequences[0].repeats must be a positive integer",
            ),
            (
                {"sequences": [{"tokens": [[1], [2]]}]},
                "sequences[0].tokens[0] must not be a list or object\n"
                "sequences[0].tokens[1] must not be a list or object",
            ),
            (
                {"sequences": [{"tokens": ["A", "B"]}, {"tokens": ["A", {"a": 1}]}]},
                "sequences[1].tokens[1] must not be a list or object",
            ),
            (
                {"encoder": SCALAR_ENCODER, "sequences": [{"tokens": [1, "a"]}]},
                "sequences[0].tokens[1] must be a finite number, got 'a'",
            ),
            (
                {"encoder": SCALAR_ENCODER, "sequences": [{"tokens": [True, 2.5]}]},
                "sequences[0].tokens[0] must be a finite number, got True",
            ),
            (
                {"encoder": SCALAR_ENCODER, "sequences": [{"tokens": [1, math.inf]}]},
                "sequences[0].tokens[1] must be a finite number, got inf",
            ),
            (
                {"encoder": SCALAR_ENCODER, "sequences": [{"tokens": [10**400, None]}]},
                f"sequences[0].tokens[0] must be a finite number, got {10**400!r}\n"
                "sequences[0].tokens[1] must be a finite number, got None",
            ),
            ({"pool": [64]}, "pool section must be an object"),
            (
                {"encoder": {"type": "category", "universe_size": True, "active_bits": True}},
                "encoder.universe_size must be an integer\nencoder.active_bits must be an integer",
            ),
            (
                {"encoder": dict(SCALAR_ENCODER, min_value=False, max_value=True),
                 "sequences": SCALAR_SEQUENCES},
                "encoder.min_value must be a number\nencoder.max_value must be a number",
            ),
            (
                {"layer": {"n_columns": True, "cells_per_column": True}},
                "layer.n_columns must be an integer\nlayer.cells_per_column must be an integer",
            ),
            (
                {"layer": dict(BASE_CONFIG["layer"], n_active=True, alpha=False)},
                "layer.alpha must not be a boolean\nlayer.n_active must not be a boolean",
            ),
            ({"pool": {"n_columns": True}}, "pool.n_columns must be an integer"),
            (
                {"pool": {"n_columns": 32, "persistence": False, "sparsity": True}},
                "pool.persistence must not be a boolean\npool.sparsity must not be a boolean",
            ),
            ({"eval_cycles": True}, "eval_cycles must be an integer >= 2"),
            (
                {"noise": {"flip_fraction": True}},
                "noise.flip_fraction must be a number in [0, 1]",
            ),
            (
                {"noise": {"flip_fraction": 0.1, "seed": "x"}},
                "noise.seed must be a non-negative integer, got 'x'",
            ),
            (
                {"noise": {"flip_fraction": 0.1, "seed": -5}},
                "noise.seed must be a non-negative integer, got -5",
            ),
            (
                {"noise": {"flip_fraction": 0.1, "seed": 1.5}},
                "noise.seed must be a non-negative integer, got 1.5",
            ),
            (
                {"noise": {"flip_fraction": 0.1, "seed": True}},
                "noise.seed must be a non-negative integer, got True",
            ),
        ],
    )
    def test_bad_section_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(dict(BASE_CONFIG, **overrides))
        assert err.value.errors == message.split("\n")


def keyword_defaults(*classes) -> dict:
    """Every constructor keyword with a default, except ``seed``; a later
    class's default wins."""
    return {
        name: param.default
        for cls in classes
        for name, param in inspect.signature(cls).parameters.items()
        if param.default is not param.empty and name != "seed"
    }


class TestConfigKeys:
    def test_every_constructor_keyword_accepted(self):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["layer"] = {**keyword_defaults(PatternLayer, TmLayer), **raw["layer"]}
        raw["pool"] = {**keyword_defaults(PatternLayer, PoolingLayer), "n_columns": 32}
        assert set(raw["layer"]) == (
            set(inspect.signature(PatternLayer).parameters)
            | set(inspect.signature(TmLayer).parameters)
        ) - {"input_size", "seed", "kwargs"}
        assert set(raw["pool"]) == (
            set(inspect.signature(PatternLayer).parameters)
            | set(inspect.signature(PoolingLayer).parameters)
        ) - {"input_size", "seed", "kwargs"}
        model = build_model(ExperimentConfig.from_dict(raw), with_pool=True)
        assert model.pool.n_columns == 32

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("layer", "boost_strength", 0.0),
            ("layer", "duty_period", 1000),
            ("layer", "column_score_mode", "max"),
            ("pool", "boost_strength", 0.0),
            ("pool", "duty_period", 1000),
        ],
    )
    def test_removed_keys_unknown(self, tmp_path, capsys, section, key, value):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["pool"] = {"n_columns": 32}
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"unknown {section} key {key!r}"):
            ExperimentConfig.from_dict(raw)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["sequence", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


def sequence_run(**overrides):
    """Reports and evaluations of ``run_sequence`` on the base config."""
    config = ExperimentConfig.from_dict(dict(BASE_CONFIG, **overrides))
    report, _, evaluations = run_sequence(config)
    return report.steps, evaluations


class TestConfigFeatures:
    SEQUENCES = [
        {"tokens": ["A", "B", "C", "D"], "repeats": 6},
        {"tokens": ["X", "B", "C", "Y"], "repeats": 6},
        {"tokens": ["E", "F", "G"], "repeats": 6},
    ]

    # segments that can activate with 6 active columns, so evaluations predict
    LAYER = dict(BASE_CONFIG["layer"], n_active=6, activation_threshold=3, min_match_threshold=2)

    def test_noise_flips_evaluation_inputs(self):
        run = dict(sequences=self.SEQUENCES, layer=self.LAYER)
        noise = {"flip_fraction": 0.75, "seed": 3}
        noisy = sequence_run(**run, noise=noise)
        assert noisy == sequence_run(**run, noise=noise)
        clean_steps, clean_evals = sequence_run(**run)
        # training never sees the noise; only the evaluations do
        assert noisy[0] == clean_steps
        assert any(a["overlap"] != b["overlap"] for a, b in zip(noisy[1], clean_evals))

    def test_infinite_dtau_vert_builds_the_default_model(self, tmp_path):
        paths = []
        for name, layer in (
            ("inf", dict(BASE_CONFIG["layer"], dtau_vert="inf")),
            ("inf-again", dict(BASE_CONFIG["layer"], dtau_vert="inf")),
            ("default", BASE_CONFIG["layer"]),
        ):
            model = build_model(ExperimentConfig.from_dict(dict(BASE_CONFIG, layer=layer)))
            assert model.tm.dtau_vert == math.inf
            paths.append(tmp_path / name)
            persistence.save(model, paths[-1])
        assert len({path.read_bytes() for path in paths}) == 1

    def test_unequal_repeats_record_each_sequence_its_repeats(self):
        sequences = [
            {"tokens": ["A", "B", "C"], "repeats": 2},
            {"tokens": ["X", "Y"], "repeats": 5},
        ]
        steps, _ = sequence_run(sequences=sequences)
        assert steps == sequence_run(sequences=sequences)[0]
        for s, spec in enumerate(sequences):
            mine = [r for r in steps if r["sequence"] == s]
            assert len(mine) == spec["repeats"] * len(spec["tokens"])
            assert [r["token"] for r in mine] == spec["tokens"] * spec["repeats"]
            assert sorted({r["repeat"] for r in mine}) == list(range(spec["repeats"]))


class TestCapacityCommand:
    def test_prints_published_values(self, capsys):
        assert main(["capacity", "--columns", "2048", "--active", "40", "--cells", "32"]) == 0
        out = capsys.readouterr().out
        assert "2.37178e+84" in out
        assert "1.60694e+60" in out
        assert "3.8113" in out and "e+144" in out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--columns", "10", "--active", "20"], "k must be <= n_cols"),
            (["--columns", "-5", "--active", "2"], "k must be <= n_cols"),
            (["--columns", "10", "--active", "2", "--cells", "0"], "cells >= 1"),
            (["--columns", "10", "--active", "-1"], "k >= 0"),
        ],
    )
    def test_out_of_range_arguments_exit_2(self, capsys, args, message):
        assert main(["capacity", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


class TestSequenceCommand:
    def test_smoke_run_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["sequence", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "sequence_records.jsonl").exists()
        summary = json.loads((out_dir / "sequence_summary.json").read_text())
        assert "anomaly" in summary
        assert "eval_accuracy" in summary
        record = json.loads(
            (out_dir / "sequence_records.jsonl").read_text().splitlines()[0]
        )
        for field in ("t", "active_columns", "pred_cells", "burst_cells", "anomaly"):
            assert field in record

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            main(["sequence", "--config", str(config), "--seed", "3", "--out", str(out_dir)])
            outs.append(
                (out_dir / "sequence_records.jsonl").read_bytes()
                + (out_dir / "sequence_summary.json").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_rejected_layer_value_exits_2(self, tmp_path, capsys):
        layer = dict(BASE_CONFIG["layer"], n_active=0)
        config = write_config(tmp_path, {"layer": layer})
        assert main(["sequence", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "layer: n_active must be in [1, 64], got 0" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("delta_dec", "1.5", "delta_dec must be in [0, 1], got 1.5"),
            ("beta", "NaN", "beta must be finite, got nan"),
            ("spike_size", "Infinity", "spike_size must be positive and finite"),
            ("activation_threshold", "Infinity", "activation_threshold must be finite, got inf"),
            ("connect_threshold", "1.5", "connect_threshold must be in [0, 1], got 1.5"),
            ("connect_threshold", "NaN", "connect_threshold must be in [0, 1], got nan"),
            (
                "connect_threshold",
                "0.97",
                "initial_segment_permanence must be in [0, 1], got 1.02, derived from "
                "connect_threshold 0.97 + 0.05",
            ),
            (
                "alpha_inh",
                "1e308",
                "alpha_inh * overlap must be finite and rise strictly for overlaps 0 to "
                "n_synapses=128, with gamma_inh / alpha_inh finite; got alpha_inh=1e+308",
            ),
            (
                # a subnormal alpha passes the alpha_inh rule, but a bursting
                # cell's firing time gamma_p / alpha overflows
                "alpha",
                '5e-324, "gamma_p": 2.0, "alpha_inh": 1e-308',
                "alpha * n_synapses and gamma_p / alpha must be finite; got alpha=5e-324 with "
                "n_synapses=128, gamma_p=2.0",
            ),
            (
                # a bursting cell in a column without feedforward overlap
                # times as gamma_p / (beta_sub * o_sub), which overflows
                "beta_sub",
                "5e-324",
                "gamma_p / (beta_sub * spike_size) must be finite; got beta_sub=5e-324 with "
                "spike_size=1.0, gamma_p=1.0",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_value_the_model_cannot_use_exits_2(self, tmp_path, capsys, key, value, message):
        # JSON has no NaN or Infinity, but Python's parser reads both.
        text = json.dumps(BASE_CONFIG).replace('"n_active": 4', f'"n_active": 4, "{key}": {value}')
        config = tmp_path / "config.json"
        config.write_text(text)
        snap = tmp_path / "model.json"
        assert main(["sequence", "--config", str(config), "--snapshot", str(snap)]) == 2
        err = capsys.readouterr().err
        assert f"layer: {message}" in err
        assert "Traceback" not in err
        assert not snap.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("n_active", 3.5), ("synapses_per_segment", 32.9), ("activation_threshold", 7.5)],
    )
    def test_non_integral_count_exits_2(self, tmp_path, capsys, key, value):
        layer = dict(BASE_CONFIG["layer"], **{key: value})
        config = write_config(tmp_path, {"layer": layer})
        assert main(["sequence", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"layer: {key} must be an integer, got {value}" in err
        assert "Traceback" not in err

    def test_rejected_encoder_value_exits_2(self, tmp_path, capsys):
        encoder = dict(SCALAR_ENCODER, min_value=5, max_value=5)
        config = write_config(tmp_path, {"encoder": encoder, "sequences": SCALAR_SEQUENCES})
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0\n")
        assert main(["anomaly", "--config", str(config), str(stream)]) == 2
        assert "encoder: need min_value < max_value" in capsys.readouterr().err

    def test_invalid_config_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sequences": []})
        assert main(["sequence", "--config", str(config)]) == 2
        assert "sequences" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 7, "name": "\xff"}')
        assert main(["sequence", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config {config}: not UTF-8 at byte offset 21" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_scalar_encoder_decodes_to_the_run_tokens(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "encoder": dict(SCALAR_ENCODER, universe_size=512, active_bits=16, max_value=100),
                "layer": {"n_columns": 256, "cells_per_column": 8, "n_active": 8},
                "sequences": [{"tokens": [10, 40, 70, 95], "repeats": 15}],
            },
        )
        out_dir = tmp_path / "out"
        assert main(["sequence", "--config", str(config), "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "[ok] 10 40 70 -> predicted 95 (expected 95, overlap 16)" in captured.out
        summary = json.loads((out_dir / "sequence_summary.json").read_text())
        assert summary["evaluations"][0]["predicted"] == "95"
        assert summary["eval_accuracy"] == 1.0

    def test_snapshot_and_resume(self, tmp_path):
        config = write_config(tmp_path)
        snap = tmp_path / "model.json"
        assert main(["sequence", "--config", str(config), "--snapshot", str(snap)]) == 0
        assert snap.exists()
        assert main(["sequence", "--config", str(config), "--resume", str(snap)]) == 0


class TestAnomalyCommand:
    def test_stream_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        stream = tmp_path / "stream.txt"
        stream.write_text("\n".join(["A", "B", "C"] * 10) + "\n")
        out_dir = tmp_path / "out"
        assert main(["anomaly", "--config", str(config), "--out", str(out_dir), str(stream)]) == 0
        records = (out_dir / "anomaly_records.jsonl").read_text().splitlines()
        assert len(records) == 30
        assert json.loads(records[0])["anomaly"] == 1.0

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_stream_exits_2(self, tmp_path, capsys, monkeypatch, source):
        config = write_config(tmp_path)
        stream = tmp_path / "stream.txt"
        stream.write_bytes(b"A\nB\n\xff\xfe\n")
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream.read_bytes())))
            name, arg = "stdin", "-"
        else:
            name = arg = str(stream)
        assert main(["anomaly", "--config", str(config), arg]) == 2
        err = capsys.readouterr().err
        assert f"stream {name}: not UTF-8 at byte offset 4" in err
        assert "Traceback" not in err

    def test_stdin_stream_run(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"A\r\nB\nC\n")))
        assert main(["anomaly", "--config", str(config), "-"]) == 0
        assert capsys.readouterr().out.startswith("steps: 3 ")

    def test_missing_stream_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        missing = tmp_path / "missing.txt"
        assert main(["anomaly", "--config", str(config), str(missing)]) == 2
        assert f"cannot read stream {missing}" in capsys.readouterr().err

    def test_unparseable_scalar_line_reports_number(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "encoder": {
                    "type": "scalar",
                    "universe_size": 256,
                    "active_bits": 12,
                    "min_value": 0,
                    "max_value": 1,
                },
                "sequences": SCALAR_SEQUENCES,
            },
        )
        stream = tmp_path / "stream.txt"
        stream.write_text("0.5\n0.6\nbogus\n")
        assert main(["anomaly", "--config", str(config), str(stream)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_nan_scalar_line_reports_number(self, tmp_path, capsys):
        config = write_config(tmp_path, {"encoder": SCALAR_ENCODER, "sequences": SCALAR_SEQUENCES})
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0\n2.0\nnan\n3.0\n")
        assert main(["anomaly", "--config", str(config), str(stream)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "finite" in err
        assert "Traceback" not in err


HOSTILE_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "inf", "-inf", "nan", "-nan", "1e400", "-0", "1_000", "0x10"]),
    st.floats().map(repr),
    st.text(max_size=12),
    # very long lines
    st.builds(str.__mul__, st.sampled_from(["9", "A", "\u00e9", " 1"]), st.integers(1000, 20000)),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(["category", "scalar"]), st.lists(HOSTILE_LINES, max_size=12))
def test_hostile_stream_exits_0_or_2(tmp_path, capsys, kind, lines):
    """Any UTF-8 stream, however odd its lines, is run or refused with a
    message: never a traceback."""
    encoder = {"type": "category", "universe_size": 64, "active_bits": 4}
    if kind == "scalar":
        encoder = dict(encoder, type="scalar", min_value=0, max_value=10)
    layer = {"n_columns": 16, "cells_per_column": 2, "n_active": 2, "synapses_per_segment": 4}
    config = write_config(
        tmp_path, {"encoder": encoder, "layer": layer, "sequences": SCALAR_SEQUENCES}
    )
    stream = tmp_path / "stream.txt"
    stream.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["anomaly", "--config", str(config), str(stream)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


class TestPoolCommand:
    def test_pool_run_reports_stability(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "pool": {"n_columns": 64, "n_active": 4, "potential_fraction": 1.0},
                "sequences": [{"tokens": ["A", "B", "C", "D"], "repeats": 10}],
                "eval_cycles": 3,
            },
        )
        assert main(["pool", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "stability pooled" in out
        assert "stability l4" in out

    def test_pool_requires_pool_section(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["pool", "--config", str(config)]) == 2
        assert "pool" in capsys.readouterr().err


class TestInspectCommand:
    def test_inspect_snapshot(self, tmp_path, capsys):
        config = write_config(tmp_path)
        snap = tmp_path / "model.json"
        main(["sequence", "--config", str(config), "--snapshot", str(snap)])
        assert main(["inspect", "--snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "SequenceModel" in out
        counts = persistence.load(snap).tm.distal_counts()
        assert counts["segments"] > 0
        assert f"total segments: {counts['segments']}" in out
        assert f"total distal synapses: {counts['synapses']}" in out

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", "--snapshot", str(tmp_path / "none.json")]) == 2

    def test_closed_pipe_exits_without_traceback(self):
        # The reader is gone before the command writes a byte, as when
        # ``| head -1`` has what it wanted.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "minicolumn.cli", "inspect", "--snapshot", str(FORMAT1_FIXTURE)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(Path(minicolumn.__file__).parent.parent)),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""

    def test_inspect_format1_fixture(self, capsys):
        assert main(["inspect", "--snapshot", str(FORMAT1_FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "SequenceModel" in out
        assert "column_score_mode" not in out and "boost_strength" not in out


def set_boost(state):
    state["boost"][0] = 1.5


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: set_boost(doc["state"]["tm"]["pattern"]),
        lambda doc: set_boost(doc["state"]["pool"]),
        lambda doc: doc["state"]["tm"]["params"].update(column_score_mode="sum"),
        lambda doc: doc.update(format_version=3),
    ],
    ids=["tm-boost", "pool-boost", "column-score-sum", "format-3"],
)
def test_unreadable_format1_snapshot_exits_2(tmp_path, capsys, mutate):
    doc = json.loads(FORMAT1_FIXTURE.read_text())
    mutate(doc)
    snap = tmp_path / "model.json"
    snap.write_text(json.dumps(doc))
    config = write_config(tmp_path)
    assert main(["inspect", "--snapshot", str(snap)]) == 2
    assert main(["sequence", "--config", str(config), "--resume", str(snap)]) == 2
    err = capsys.readouterr().err
    assert "model.json" in err and "Traceback" not in err


@pytest.mark.parametrize("case_id", mutations.IDS)
def test_hostile_format3_snapshot_exits_2(tmp_path, capsys, case_id):
    snap = tmp_path / "model.json"
    persistence.save(persistence.load(FORMAT1_FIXTURE), snap)
    mutations.apply(snap, case_id)
    config = write_config(tmp_path)
    assert main(["inspect", "--snapshot", str(snap)]) == 2
    assert main(["sequence", "--config", str(config), "--resume", str(snap)]) == 2
    err = capsys.readouterr().err
    assert "model.json" in err and "Traceback" not in err


def _tm_snapshot(tmp_path) -> str:
    path = tmp_path / "tm.npz"
    persistence.save(TmLayer(256, 64, 4, n_active=4), path)
    return str(path)


def _written(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# (id, argv from tmp_path with the base config at tmp_path / "config.json", message)
CLI_ERRORS = [
    (
        "empty-stream-line",
        lambda t: ["anomaly", "--config", str(t / "config.json"), _written(t, "s", "A\n\nB\n")],
        "stream line 2: empty line",
    ),
    (
        "empty-stream",
        lambda t: ["anomaly", "--config", str(t / "config.json"), _written(t, "s", "")],
        "stream is empty",
    ),
    (
        "unreadable-config",
        lambda t: ["sequence", "--config", str(t / "missing.json")],
        "cannot read config",
    ),
    (
        "config-parse-error",
        lambda t: ["sequence", "--config", _written(t, "bad.json", '{"seed": 7,\n')],
        "parse error at line 2",
    ),
    (
        "seed-on-non-object",
        lambda t: ["sequence", "--config", _written(t, "list.json", "[1, 2]"), "--seed", "3"],
        "config must be a JSON object",
    ),
    (
        "resume-tm-layer",
        lambda t: ["sequence", "--config", str(t / "config.json"), "--resume", _tm_snapshot(t)],
        "--resume expects a sequence_model snapshot, got TmLayer",
    ),
]


@pytest.mark.parametrize(
    "make_argv, message", [case[1:] for case in CLI_ERRORS], ids=[case[0] for case in CLI_ERRORS]
)
def test_bad_cli_input_exits_2(tmp_path, capsys, make_argv, message):
    write_config(tmp_path)
    assert main(make_argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


ENCODER_OVERRIDES = {
    "category": None,
    "scalar": {"encoder": SCALAR_ENCODER, "sequences": SCALAR_SEQUENCES},
}


@pytest.mark.parametrize(
    "command, saved_kind, config_kind",
    [
        ("sequence", "scalar", "category"),
        ("anomaly", "scalar", "category"),
        ("anomaly", "category", "scalar"),
        ("sequence", "category", "scalar"),
    ],
)
def test_resume_with_another_encoder_kind_exits_2(
    tmp_path, capsys, command, saved_kind, config_kind
):
    saved = write_config(tmp_path, ENCODER_OVERRIDES[saved_kind], name="saved.json")
    config = write_config(tmp_path, ENCODER_OVERRIDES[config_kind])
    snap = tmp_path / "model.npz"
    assert main(["sequence", "--config", str(saved), "--snapshot", str(snap)]) == 0
    argv = [command, "--config", str(config), "--resume", str(snap)]
    if command == "anomaly":
        argv.append(_written(tmp_path, "stream.txt", "1\n2\n3\n"))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"has a {saved_kind} encoder, but the config's encoder.type is '{config_kind}'" in err
    assert "Traceback" not in err
