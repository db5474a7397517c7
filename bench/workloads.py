"""The benchmark's three workloads and the run protocol they share.

A run builds the model ``SETUP_REPS`` times, then runs ``seconds / ROUND_S``
whole rounds (at least one), ``ROUND_S`` being a round's duration on the
reference host; the work of a run depends on ``seconds`` only, never on how
fast the host happens to be. A round builds a fresh model, feeds the
workload's training stream with learning on, then its read-out stream with
learning off. Every round of a run gets the same inputs, so every round must
produce the same outputs. After the last round the trained model is saved and
loaded ``CHECKPOINT_REPS`` times, and the loaded copy and the original must
step identically. Steps, decodes, saves, loads and builds are timed one at a
time; the checks between them are not timed.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np

from minicolumn import experiments, metrics, persistence

import checks
from refclock import RefClock

SETUP_REPS = 5
# Proximal overlaps are recomputed (a full matrix pass) on every n-th step.
OVERLAP_SAMPLE_EVERY = 4


@dataclass
class Run:
    """Timed pieces, operation counts and checks of one benchmark run."""

    clock: RefClock
    tracer: object = None
    checker: checks.Checker = field(default_factory=checks.Checker)
    pieces: dict = field(default_factory=dict)
    ops: dict = field(default_factory=lambda: {"learn": 0, "infer": 0, "decode": 0, "checkpoint": 0})
    # steps, active cells, bursting cells, firing events of the current round
    totals: list = field(default_factory=lambda: [0, 0, 0, 0])

    def timed(self, kind: str, fn, *args, **kwargs):
        mark = self.clock.mark()
        result = fn(*args, **kwargs)
        self.pieces.setdefault(kind, []).append(self.clock.since(mark))
        return result

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


class Workload:
    """Inputs, model and streams of one workload."""

    name = ""
    with_pool = False
    ROUND_S = 10.0
    CHECKPOINT_REPS = 1

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def inputs(self, seed: int):
        raise NotImplementedError

    def build(self, seed: int) -> experiments.SequenceModel:
        config = experiments.ExperimentConfig.from_dict(self.config(seed))
        return experiments.build_model(config, with_pool=self.with_pool)

    def round(self, run: Run, model, inputs) -> int:
        """Learn and infer once; returns a hash of every output."""
        raise NotImplementedError

    def resume_steps(self, model, inputs) -> list:
        """Outputs of a few learning steps past the checkpoint."""
        raise NotImplementedError

    # -- shared step with checks ------------------------------------------

    def tm_step(self, run: Run, model, token, learn: bool, prev_predictive, where: str):
        """One timed encode + step, with its invariants checked untimed."""
        tm = model.tm
        kind = "learn" if learn else "infer"
        x = run.timed(kind, model.encode, token)
        sampled = run.ops[kind] % OVERLAP_SAMPLE_EVERY == 0
        if sampled:
            with run.untraced():
                expected = checks.proximal_overlaps(tm.pattern, x.active)
                program = tm.pattern.raw_overlaps(x)
        out = run.timed(kind, tm.step, x, learn=learn)
        run.ops[kind] += 1
        checks.step_invariants(run.checker, tm, out, prev_predictive, where)
        if sampled:
            checks.column_count(run.checker, tm.pattern, expected, program, out.active_columns, where)
        totals = run.totals
        totals[0] += 1
        totals[1] += len(out.active_cells)
        totals[2] += len(out.burst_cells)
        totals[3] += len(out.firing_sequence)
        return out


# -- paper_seq -------------------------------------------------------------


class PaperSeq(Workload):
    """Paper scale: pairs of high-order sequences sharing a middle.

    2048-bit category codes with 40 bits on feed 2048 columns x 32 cells
    with 40 active. Each pair is ``H1 M1 M2 M3 T1`` / ``H2 M1 M2 M3 T2``, so
    the tail can only be predicted from the head seen four steps back.
    """

    name = "paper_seq"
    ROUND_S = 20.0
    PAIRS = 6
    # Fewer than ~10 repeats leave some heads predicting both tails.
    REPEATS = 12
    # Read-out passes over every prefix; with learning off each pass repeats.
    INFER_PASSES = 8

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "encoder": {"type": "category", "universe_size": 2048, "active_bits": 40},
            "layer": {
                "n_columns": 2048,
                "cells_per_column": 32,
                "n_active": 40,
                "delta_inc": 0.1,
                "delta_dec": 0.05,
                "sigma_punish": 0.05,
            },
            # ExperimentConfig requires a sequence; the workload feeds its own.
            "sequences": [{"tokens": ["unused", "unused"], "repeats": 1}],
        }

    def inputs(self, seed: int) -> list[list[str]]:
        rng = np.random.default_rng([seed, 1])
        names = [f"s{i:03d}" for i in rng.permutation(1000)[: 7 * self.PAIRS]]
        sequences = []
        for p in range(self.PAIRS):
            h1, h2, m1, m2, m3, t1, t2 = names[7 * p : 7 * p + 7]
            sequences += [[h1, m1, m2, m3, t1], [h2, m1, m2, m3, t2]]
        return sequences

    def round(self, run, model, sequences) -> int:
        tm = model.tm
        digest = []
        for rep in range(self.REPEATS):
            for s, seq in enumerate(sequences):
                tm.reset()
                prev = ()
                for k, token in enumerate(seq):
                    out = self.tm_step(run, model, token, True, prev, f"learn rep {rep} seq {s} step {k}")
                    prev = out.predictive_cells_next.active
                    digest.append(hash(checks.outputs_digest(out)))
        for p in range(self.INFER_PASSES):
            for s, seq in enumerate(sequences):
                tm.reset()
                prev = ()
                for k, token in enumerate(seq[:-1]):
                    out = self.tm_step(run, model, token, False, prev, f"infer pass {p} seq {s} step {k}")
                    prev = out.predictive_cells_next.active
                    digest.append(hash(checks.outputs_digest(out)))
                symbol, ov = run.timed("infer", experiments.decode_prediction, model, out)
                run.ops["decode"] += 1
                digest.append(hash((symbol, ov)))
                self.check_decode(run, model, out, seq[-1], symbol, ov, f"decode pass {p} seq {s}")
        return hash(tuple(digest))

    def check_decode(self, run, model, out, expected, symbol, ov, where) -> None:
        with run.untraced():
            mine, probe = checks.back_projection_decode(
                model.tm.pattern, model.encoder, out.predictive_cells_next.active, model.tm.cells_per_column
            )
        run.checker.check(mine == expected, f"{where}: back-projection decodes {mine}, expected {expected}")
        # decode_prediction probes with every voted bit; its answer must have
        # the best overlap with that probe.
        best = max(len(code.active_set & probe) for code in model.encoder.symbol_table.values())
        code = model.encoder.symbol_table.get(symbol)
        run.checker.check(
            (symbol, ov) == (None, 0) if not probe
            else ov == best and code is not None and len(code.active_set & probe) == ov,
            f"{where}: decode_prediction returned ({symbol}, {ov}), best overlap is {best}",
        )

    def resume_steps(self, model, sequences) -> list:
        model.tm.reset()
        return [checks.outputs_digest(model.tm.step(model.encode(t))) for t in sequences[0]]


# -- pool_cycle ------------------------------------------------------------


class PoolCycle(Workload):
    """The ``configs/pool.json`` stack: transition layer feeding a pooling layer.

    A six-token cycle repeats without resets while both layers learn; then
    ``EVAL_CYCLES`` cycles run with learning off and the pooled code must be
    at least twice as stable as the cellular code below it.
    """

    name = "pool_cycle"
    ROUND_S = 10.0
    with_pool = True
    EVAL_CYCLES = 40

    def config(self, seed: int) -> dict:
        # Same stack as configs/pool.json; the benchmark keeps its own copy so
        # that editing the shipped config cannot change the workload.
        return {
            "seed": seed,
            "encoder": {"type": "category", "universe_size": 1024, "active_bits": 20},
            "layer": {
                "n_columns": 512,
                "cells_per_column": 8,
                "n_active": 10,
                "delta_inc": 0.1,
                "delta_dec": 0.05,
                "sigma_punish": 0.05,
                "blank_winner": "lowest",
            },
            "pool": {
                "n_columns": 512,
                "n_active": 10,
                "potential_fraction": 1.0,
                "persistence": 0.9,
                "connect_threshold": 0.05,
                "delta_dec_pred": 0.001,
                "delta_dec_burst": 0.005,
            },
            "sequences": [{"tokens": ["c0", "c1", "c2", "c3", "c4", "c5"], "repeats": 60}],
            "eval_cycles": self.EVAL_CYCLES,
        }

    def inputs(self, seed: int) -> dict:
        return self.config(seed)["sequences"][0]

    def pool_step(self, run, model, out, learn: bool, where: str):
        pool = model.pool
        kind = "learn" if learn else "infer"
        sampled = run.ops[kind] % OVERLAP_SAMPLE_EVERY == 1
        if sampled:
            with run.untraced():
                expected = checks.proximal_overlaps(pool, out.active_cells.active)
                program = pool.raw_overlaps(out.active_cells)
        pooled = run.timed(kind, pool.tp_step, out)
        if learn:
            run.timed(kind, pool.tp_learn, out, pooled)
        if sampled:
            checks.column_count(run.checker, pool, expected, program, pooled, where + " (pool)")
        return pooled

    def round(self, run, model, spec) -> int:
        digest = []
        prev = ()
        for rep in range(spec["repeats"]):
            for k, token in enumerate(spec["tokens"]):
                where = f"learn cycle {rep} step {k}"
                out = self.tm_step(run, model, token, True, prev, where)
                pooled = self.pool_step(run, model, out, True, where)
                prev = out.predictive_cells_next.active
                digest.append(hash((checks.outputs_digest(out), pooled.active)))
        cellular, pooled_history = [], []
        for rep in range(self.EVAL_CYCLES):
            for k, token in enumerate(spec["tokens"]):
                where = f"eval cycle {rep} step {k}"
                out = self.tm_step(run, model, token, False, prev, where)
                pooled = self.pool_step(run, model, out, False, where)
                prev = out.predictive_cells_next.active
                cellular.append(out.active_cells)
                pooled_history.append(pooled)
                digest.append(hash((checks.outputs_digest(out), pooled.active)))
        s_pool = checks.stability(pooled_history, model.pool.n_active)
        s_cell = checks.stability(cellular, max(len(c) for c in cellular))
        run.checker.check(
            s_pool <= 0.5 * s_cell,
            f"pooled stability {s_pool:.3f} must be <= half the cellular {s_cell:.3f}",
        )
        return hash(tuple(digest))

    def resume_steps(self, model, spec) -> list:
        steps = []
        for token in spec["tokens"]:
            out = model.tm.step(model.encode(token))
            pooled = model.pool.tp_step(out)
            model.pool.tp_learn(out, pooled)
            steps.append((checks.outputs_digest(out), pooled.active))
        return steps


# -- scalar_stream ---------------------------------------------------------


class ScalarStream(Workload):
    """Desk scale anomaly scoring of a periodic scalar signal.

    A period of ``PERIOD`` distinct levels repeats ``PERIODS`` times as one
    continuous stream with learning on, scored step by step the way
    ``experiments.run_anomaly`` does it. ``len(INJECT_AT)`` values late in the
    stream are replaced by off-grid values the layer never saw; each must
    raise the anomaly, and clean steps near the end must score low.
    """

    name = "scalar_stream"
    ROUND_S = 4.0
    CHECKPOINT_REPS = 7
    PERIOD = 8
    PERIODS = 100
    INJECT_AT = (62, 70, 78, 86)  # periods holding one off-grid value
    REPLAY_PERIODS = 80
    SPIKE_MIN = 0.5
    LATE_CLEAN_MAX = 0.1

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "encoder": {
                "type": "scalar",
                "universe_size": 1024,
                "active_bits": 20,
                "min_value": 0.0,
                "max_value": 100.0,
            },
            "layer": {
                "n_columns": 512,
                "cells_per_column": 8,
                "n_active": 10,
                "delta_inc": 0.1,
                "delta_dec": 0.05,
                "sigma_punish": 0.05,
            },
            # ExperimentConfig requires a sequence; the workload feeds its own.
            "sequences": [{"tokens": [0, 0], "repeats": 1}],
        }

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        # Grid levels 5, 15, ..., 95 sit 100 bits apart; off-grid values
        # 10, 20, ..., 90 share no bit with any level.
        levels = [5.0 + 10.0 * i for i in rng.permutation(10)[: self.PERIOD]]
        values = levels * self.PERIODS
        injected = []
        for p in self.INJECT_AT:
            t = p * self.PERIOD + int(rng.integers(self.PERIOD))
            values[t] = 10.0 * int(rng.integers(1, 10))
            injected.append(t)
        return {"values": values, "injected": injected, "levels": levels}

    def round(self, run, model, data) -> int:
        values, injected = data["values"], data["injected"]
        report = metrics.RunReport()
        digest = []
        prev_out = None
        anomalies = []
        for t, value in enumerate(values):
            prev = prev_out.predictive_cells_next.active if prev_out is not None else ()
            out = self.tm_step(run, model, value, True, prev, f"stream step {t}")
            record = run.timed("learn", experiments._layer_record, t, out, prev_out)
            record["token"] = str(value)
            run.timed("learn", report.add, record)
            anomalies.append(out.anomaly)
            digest.append(hash(checks.outputs_digest(out)))
            prev_out = out
        run.timed("learn", report.finalize)
        for t in injected:
            run.checker.check(
                anomalies[t] >= self.SPIKE_MIN,
                f"anomaly {anomalies[t]:.2f} at injected step {t} must be >= {self.SPIKE_MIN}",
            )
        late = [
            a
            for t, a in enumerate(anomalies)
            if t >= self.INJECT_AT[0] * self.PERIOD
            and not any(0 <= t - i <= 2 * self.PERIOD for i in injected)
        ]
        run.checker.check(
            sum(late) / len(late) <= self.LATE_CLEAN_MAX,
            f"mean anomaly {sum(late) / len(late):.3f} on late clean steps must be <= {self.LATE_CLEAN_MAX}",
        )
        prev = prev_out.predictive_cells_next.active
        for t, value in enumerate(data["levels"] * self.REPLAY_PERIODS):
            out = self.tm_step(run, model, value, False, prev, f"replay step {t}")
            prev = out.predictive_cells_next.active
            digest.append(hash(checks.outputs_digest(out)))
        return hash(tuple(digest))

    def resume_steps(self, model, data) -> list:
        return [checks.outputs_digest(model.tm.step(model.encode(v))) for v in data["levels"]]


WORKLOADS = {w.name: w for w in (PaperSeq(), PoolCycle(), ScalarStream())}


# -- run protocol ----------------------------------------------------------


def checkpoint(run: Run, workload: Workload, model, inputs, out_dir: str) -> float:
    """Save and load the trained model ``CHECKPOINT_REPS`` times; the last
    loaded copy and the original must then step identically.

    Returns the snapshot size in MB.
    """
    path = os.path.join(out_dir, f"snapshot-{workload.name}-{os.getpid()}.json")
    try:
        for _ in range(workload.CHECKPOINT_REPS):
            run.timed("save", persistence.save, model, path)
            size_mb = os.path.getsize(path) / 1e6
            loaded = None  # keep one loaded copy alive, not two
            loaded = run.timed("load", persistence.load, path)
            run.ops["checkpoint"] += 2
    finally:
        if os.path.exists(path):
            os.remove(path)
    with run.untraced():
        original = workload.resume_steps(model, inputs)
        resumed = workload.resume_steps(loaded, inputs)
    run.checker.check(original == resumed, "loaded model must step exactly like the original")
    return size_mb


def run_workload(workload: Workload, seed: int, seconds: float, run: Run, out_dir: str) -> dict:
    """Execute one run; returns raw facts the caller turns into metrics."""
    inputs = workload.inputs(seed)
    for _ in range(SETUP_REPS):
        model = run.timed("setup", workload.build, seed)
    rounds = max(1, round(seconds / workload.ROUND_S))
    first_digest = None
    counts = None
    for r in range(rounds):
        if r:
            model = run.timed("setup", workload.build, seed)
        digest = workload.round(run, model, inputs)
        if first_digest is None:
            first_digest = digest
            steps, active, burst, events = run.totals
            counts = {
                "transition.active_cells_per_step": active / steps,
                "transition.burst_fraction": burst / active,
                "transition.firing_events_per_step": events / steps,
            }
        run.totals = [0, 0, 0, 0]
        run.checker.check(digest == first_digest, f"round {r + 1} must repeat round 1's outputs")
    if run.tracer is not None:
        with run.untraced():
            counts.update(model_counts(model.tm))
    size_mb = checkpoint(run, workload, model, inputs, out_dir)
    return {"rounds": rounds, "snapshot_mb": size_mb, "counts": counts}


def model_counts(tm) -> dict:
    """Distal segments and synapses, read from the documented snapshot state."""
    segments = [seg for _, segs in tm.to_state()["segments"] for seg in segs]
    return {
        "transition.segments": len(segments),
        "transition.synapses": sum(len(seg["sources"]) for seg in segments),
    }
