"""Benchmark entry point: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload paper_seq --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``. The line before it
holds the raw figures of the run (times before scaling to reference speed,
reference kernel times, rounds). Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def per_round_rate(seconds, steps: int, rounds: int) -> float:
    """Median over rounds of steps per second; every round does the same steps."""
    per_round = np.asarray(seconds).reshape(rounds, -1).sum(axis=1)
    return float(np.median(steps / rounds / per_round))


def end_to_end(run, facts) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, plus the same figures in raw wall time."""
    scale = run.clock.scale
    rounds = facts["rounds"]
    setup = scale(run.pieces["setup"])
    checkpoints = scale(run.pieces["save"]) + scale(run.pieces["load"])
    values = {
        "setup_s": (float(statistics.median(setup)), "s"),
        "learn_steps_per_s": (per_round_rate(scale(run.pieces["learn"]), run.ops["learn"], rounds), "1/s"),
        "infer_steps_per_s": (per_round_rate(scale(run.pieces["infer"]), run.ops["infer"], rounds), "1/s"),
        "checkpoint_s": (float(statistics.median(checkpoints)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "snapshot_mb": (facts["snapshot_mb"], "MB"),
    }
    def wall(kind):
        return [end - start for start, end, _ in run.pieces[kind]]

    raw_wall = {
        "setup_s": statistics.median(wall("setup")),
        "learn_steps_per_s": per_round_rate(wall("learn"), run.ops["learn"], rounds),
        "infer_steps_per_s": per_round_rate(wall("infer"), run.ops["infer"], rounds),
        "checkpoint_s": statistics.median(s + l for s, l in zip(wall("save"), wall("load"))),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, raw_wall


# Per-module metrics: (name, unit, span name, unit factor). Times are per call.
SPAN_METRICS = [
    ("encoders.encode_us", "us", "encoders.encode", 1e6),
    ("pattern.raw_overlaps_ms", "ms", "pattern.raw_overlaps", 1e3),
    ("pattern.pool_raw_overlaps_ms", "ms", "pattern.pool_raw_overlaps", 1e3),
    ("pattern.learn_ms", "ms", "pattern.learn", 1e3),
    ("pattern.reconstruct_ms", "ms", "pattern.reconstruct", 1e3),
    ("transition.learn_step_self_ms", "ms", "transition.learn_step", 1e3),
    ("transition.infer_step_self_ms", "ms", "transition.infer_step", 1e3),
    ("pooling.tp_step_ms", "ms", "pooling.tp_step", 1e3),
    ("pooling.tp_learn_ms", "ms", "pooling.tp_learn", 1e3),
    ("persistence.save_s", "s", "persistence.save", 1.0),
    ("persistence.load_s", "s", "persistence.load", 1.0),
    ("experiments.decode_ms", "ms", "experiments.decode", 1e3),
]
COUNT_METRICS = [
    "transition.segments",
    "transition.synapses",
    "transition.active_cells_per_step",
    "transition.burst_fraction",
    "transition.firing_events_per_step",
]


def per_layer(run, facts) -> tuple[dict, dict]:
    """Per-module metrics from the spans; calls per span as the second value."""
    by_name: dict[str, list] = {}
    for name, t0, t1, seconds in run.tracer.spans:
        by_name.setdefault(name, []).append((t0, t1, seconds))
    calls = {name: len(spans) for name, spans in by_name.items()}
    out = {}
    for metric, unit, span, factor in SPAN_METRICS:
        spans = by_name.get(span, [])
        value = factor * float(run.clock.scale(spans).mean()) if spans else 0.0
        out[metric] = {"value": value, "unit": unit}
    out["pattern.raw_overlaps_calls"] = {
        "value": (calls.get("pattern.raw_overlaps", 0) + calls.get("pattern.pool_raw_overlaps", 0)) / facts["rounds"],
        "unit": "count",
    }
    units = {"transition.burst_fraction": "fraction"}
    for metric in COUNT_METRICS:
        out[metric] = {"value": facts["counts"][metric], "unit": units.get(metric, "count")}
    return out, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "minicolumn" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src}/minicolumn)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import minicolumn

    if Path(minicolumn.__file__).resolve().parent != (src / "minicolumn").resolve():
        print(f"error: imported minicolumn from {minicolumn.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from refclock import RefClock

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    with RefClock() as clock:
        run = workloads.Run(clock)
        if args.trace:
            from tracing import Tracer

            run.tracer = Tracer(clock)
            run.tracer.install()
        try:
            facts = workloads.run_workload(workload, args.seed, args.seconds, run, str(OUT_DIR))
        finally:
            if run.tracer is not None:
                run.tracer.uninstall()
        e2e, raw = end_to_end(run, facts)
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "rounds": facts["rounds"],
            "elapsed_s": time.perf_counter() - started,
            "raw_wall": raw,
            "ops": run.ops,
            **clock.summary(),
        }
        metrics = e2e
        if run.tracer is not None:
            metrics, calls = per_layer(run, facts)
            detail["end_to_end"] = {k: v["value"] for k, v in e2e.items()}
            trace_file = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
            with trace_file.open("w") as fh:
                json.dump(
                    {
                        "detail": detail,
                        "calls": calls,
                        "metrics": metrics,
                        "spans": run.tracer.spans,
                        "ref_samples": [clock.times, clock.durations],
                    },
                    fh,
                )
                fh.write("\n")

    checker = run.checker
    attempted = checker.attempted + sum(run.ops.values())
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
