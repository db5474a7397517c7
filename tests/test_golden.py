"""Golden traces: fixed configs and seeds must keep producing the same bits.

Each run hashes (sha256) the repr of every ``LayerOutput`` field of every
step, ``firing_sequence`` and ``anomaly`` included, and then the bytes of the
final ``persistence.save`` snapshot. The outputs digests below were recorded
with the object-graph distal segment store that preceded the flat-array one;
any change to an output bit, a float's last digit or a value's type shows
here. The snapshot digests were recorded again for format 4; each format-4
snapshot loads to the same state as the format-3 snapshot it replaced, and
both resume to the same outputs.

``fixtures/format1_model.json`` is a format-1 snapshot written by that same
earlier code; JSON snapshots no longer load, so it is read here as JSON
only. ``fixtures/format3_model.npz`` is the same model saved as format 3. It
must load, save and load back to the format-1 state without the fields
format 2 removed, and step on exactly as the model it was taken from did.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from minicolumn import CategoryEncoder, TmLayer, persistence
from minicolumn.experiments import (
    ExperimentConfig,
    SequenceModel,
    build_model,
    run_anomaly,
    run_pool,
    run_sequence,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "format1_model.json"
FORMAT3_FIXTURE = FIXTURE.with_name("format3_model.npz")

# (outputs digest, final snapshot digest) per run.
GOLDEN = {
    "sequence": (
        "e158cd8491ce8ad8a05333f8f091c2322bcac1a151f315a47607386273bb8c45",
        "bd03ba5a0f358e8764dc5945023ec504e90ae56830752ff1ef80ee1aca76862e",
    ),
    "pool": (
        "81748c80a5940750f0c59e91443735228ec23cec90a9d40e89b77a689b87bef3",
        "b4c684776cb6d216d5691405828c940e1d5152b73f832f62612edc4cf64471f5",
    ),
    "pool_full": (
        "6263633cf6a34a83b42fab0623bef0a3ce0df9b1b2b23b13a38c79ff8beacf46",
        "3d2763d2e6501e2128db7ca0276af72460653605a647a26b6aa49ddc63db6293",
    ),
    "paper": (
        "16397f39f1b384c420f9762b873d9562e4e67d6ad27015e7f8e05622e45301d6",
        "d3cfbb15bc33dd46af3107577f1c3e80fb4a6abb27e042cae4906038783ce2b3",
    ),
    "scalar": (
        "85b3610292ddd01b13f3712ae5b0119974f28daac36d46348b58cbffdfdb0aed",
        "1e57b17718ae5d1456cc0ba88041c5c38a82f5d11e9cc46d0fec45e83a37111f",
    ),
    "fixture_resume": (
        "1be1a010320f8d09882d5506339ea2ab8d01d91daf952ae6341ee947b2ddf255",
        "23eee012933e402b062faad368e88e2914987d501570fe3948fa6b4490c923f8",
    ),
}


def hash_outputs(h, outputs) -> None:
    for out in outputs:
        for f in dataclasses.fields(out):
            h.update(f.name.encode())
            h.update(repr(getattr(out, f.name)).encode())


def record_steps(tm: TmLayer) -> list:
    """Collect every output of ``tm.step`` from here on."""
    outputs = []
    step = tm.step

    def recording(*args, **kwargs):
        out = step(*args, **kwargs)
        outputs.append(out)
        return out

    tm.step = recording
    return outputs


def snapshot_digest(model, path) -> str:
    if isinstance(model, SequenceModel):
        model.tm.__dict__.pop("step", None)  # drop the recording wrapper
    persistence.save(model, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sequence_run(tmp_path):
    config = ExperimentConfig.from_dict(json.loads((ROOT / "configs" / "sequence.json").read_text()))
    model = build_model(config)
    outputs = record_steps(model.tm)
    _, model, evaluations = run_sequence(config, model=model)
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    h.update(repr([(e["predicted"], e["overlap"]) for e in evaluations]).encode())
    return h.hexdigest(), snapshot_digest(model, tmp_path / "sequence.json")


def pool_run(tmp_path):
    # The configs/pool.json stack with fewer cycles and a smaller proximal
    # fan-in, so that the run and its snapshot stay small.
    raw = json.loads((ROOT / "configs" / "pool.json").read_text())
    raw["layer"]["n_synapses"] = 64
    raw["pool"]["n_synapses"] = 128
    raw["sequences"][0]["repeats"] = 8
    raw["eval_cycles"] = 2
    config = ExperimentConfig.from_dict(raw)
    model = build_model(config, with_pool=True)
    outputs = record_steps(model.tm)
    report, model = run_pool(config, model=model)
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    h.update(repr([r["pooled"] for r in report.steps]).encode())
    h.update(repr((report.summary["stability_pooled"], report.summary["stability_l4"])).encode())
    return h.hexdigest(), snapshot_digest(model, tmp_path / "pool.json")


def pool_full_run(tmp_path):
    # The configs/pool.json stack as shipped, with fewer cycles: every pooling
    # column samples all 4096 input cells (potential_fraction 1.0).
    raw = json.loads((ROOT / "configs" / "pool.json").read_text())
    raw["sequences"][0]["repeats"] = 10
    raw["eval_cycles"] = 2
    config = ExperimentConfig.from_dict(raw)
    model = build_model(config, with_pool=True)
    assert model.pool.n_synapses == model.pool.input_size
    outputs = record_steps(model.tm)
    report, model = run_pool(config, model=model)
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    h.update(repr([r["pooled"] for r in report.steps]).encode())
    h.update(repr((report.summary["stability_pooled"], report.summary["stability_l4"])).encode())
    return h.hexdigest(), snapshot_digest(model, tmp_path / "pool_full.json")


def paper_run(tmp_path):
    # Paper scale: 2048 columns x 32 cells, 40 active. Proximal fan-in is cut
    # to 32 so the final snapshot stays small.
    enc = CategoryEncoder(2048, 40, rng_seed=1)
    tm = TmLayer(
        2048, 2048, 32, n_active=40, n_synapses=32,
        delta_inc=0.1, delta_dec=0.05, sigma_punish=0.05, seed=1,
    )
    sequences = ["h1 m1 m2 m3 t1", "h2 m1 m2 m3 t2", "h3 n1 n2 n3 t3", "h4 n1 n2 n3 t4"]
    outputs = []
    for _ in range(5):
        for seq in sequences:
            tm.reset()
            outputs += [tm.step(enc.encode(tok)) for tok in seq.split()]
    for seq in sequences:
        tm.reset()
        outputs += [tm.step(enc.encode(tok), learn=False) for tok in seq.split()[:-1]]
    assert len(outputs) <= 150
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    return h.hexdigest(), snapshot_digest(SequenceModel(enc, tm), tmp_path / "paper.json")


def scalar_run(tmp_path):
    # A scalar-encoder anomaly stream at desk scale, as in the benchmark's
    # scalar_stream: a period of grid levels with off-grid values injected.
    config = ExperimentConfig.from_dict(
        {
            "seed": 3,
            "encoder": {
                "type": "scalar", "universe_size": 1024, "active_bits": 20,
                "min_value": 0.0, "max_value": 100.0,
            },
            "layer": {
                "n_columns": 512, "cells_per_column": 8, "n_active": 10,
                "delta_inc": 0.1, "delta_dec": 0.05, "sigma_punish": 0.05,
            },
            "sequences": [{"tokens": [0, 0], "repeats": 1}],
        }
    )
    values = [5.0, 65.0, 25.0, 95.0, 45.0, 15.0, 85.0, 35.0] * 20
    for t, value in ((90, 50.0), (121, 20.0), (140, 100.0)):
        values[t] = value
    model = build_model(config)
    outputs = record_steps(model.tm)
    report, model = run_anomaly(config, values, model=model)
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    h.update(repr((report.steps, report.summary)).encode())
    return h.hexdigest(), snapshot_digest(model, tmp_path / "scalar.json")


def test_sequence_config_trace(tmp_path):
    assert sequence_run(tmp_path) == GOLDEN["sequence"]


def test_pool_config_trace(tmp_path):
    assert pool_run(tmp_path) == GOLDEN["pool"]


def test_full_potential_pool_config_trace(tmp_path):
    assert pool_full_run(tmp_path) == GOLDEN["pool_full"]


def test_paper_scale_trace(tmp_path):
    assert paper_run(tmp_path) == GOLDEN["paper"]


def test_scalar_anomaly_trace(tmp_path):
    assert scalar_run(tmp_path) == GOLDEN["scalar"]


def format2_of_fixture() -> dict:
    """The fixture's state as format 2 holds it: without the pattern layers'
    homeostasis fields and the transition layer's column scoring switch."""
    doc = json.loads(FIXTURE.read_text())
    tm, pool = doc["state"]["tm"], doc["state"]["pool"]
    for name in ("boost_strength", "duty_period", "column_score_mode"):
        del tm["params"][name]
    for pattern in (tm["pattern"], pool):
        for name in ("boost_strength", "duty_period"):
            del pattern["params"][name]
        for name in ("boost", "active_duty", "overlap_duty"):
            del pattern[name]
    return doc["state"]


def plain(value):
    """``value`` with every array turned into nested lists, as JSON holds it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def fixture_resume(tmp_path, fixture):
    model = persistence.load(fixture)
    resaved = tmp_path / "resaved.json"
    persistence.save(model, resaved)
    assert plain(persistence.load(resaved).to_state()) == format2_of_fixture()
    outputs = []
    for token in "ABCDXBCYABCD":
        out = model.tm.step(model.encode(token))
        outputs.append(out)
        model.pool.tp_learn(out, model.pool.tp_step(out))
    outputs += [model.tm.step(model.encode(token), learn=False) for token in "XBC"]
    h = hashlib.sha256()
    hash_outputs(h, outputs)
    return h.hexdigest(), snapshot_digest(model, tmp_path / "after.json")


def test_format3_fixture_loads_and_resumes_bit_exactly(tmp_path):
    # the format-1 fixture saved as format 3: the same model, so the same
    # state, outputs and format-4 snapshot
    assert fixture_resume(tmp_path, FORMAT3_FIXTURE) == GOLDEN["fixture_resume"]


def make_fixture(path) -> None:
    """Write the fixture: a small trained encoder + transition + pool model.

    Non-default ``activation_threshold`` and ``spike_size`` make the
    per-segment fields in the snapshot differ from the usual defaults.
    """
    config = ExperimentConfig.from_dict(
        {
            "seed": 5,
            "encoder": {"type": "category", "universe_size": 128, "active_bits": 8},
            "layer": {
                "n_columns": 32, "cells_per_column": 4, "n_active": 4, "n_synapses": 16,
                "synapses_per_segment": 6, "segments_per_cell": 3,
                "activation_threshold": 3, "min_match_threshold": 2, "spike_size": 0.75,
                "predictive_threshold": 0.75, "delta_inc": 0.1, "delta_dec": 0.05,
                "sigma_punish": 0.05,
            },
            "pool": {"n_columns": 16, "n_active": 3, "n_synapses": 24},
            "sequences": [
                {"tokens": list("ABCD"), "repeats": 6},
                {"tokens": list("XBCY"), "repeats": 6},
            ],
        }
    )
    model = build_model(config, with_pool=True)
    run_sequence(config, model=model)
    persistence.save(model, path)
