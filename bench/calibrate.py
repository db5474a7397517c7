"""Steadiness check: two sets of runs per workload, compared against the bounds.

    python3 bench/calibrate.py

For every workload in BENCHMARK.json this runs ``bench/run.py`` untraced
``RUNS`` times with seeds 1..RUNS (set A), then again with seeds
101..100+RUNS (set B), one process at a time, with ``run_seconds`` from
BENCHMARK.json. It prints every run's metrics beside its reference-kernel
time, then each set's median and quartiles per metric, the quartile spread
as a share of the median, and whether the sets agree: every spread within
the metric's bound, the medians within the bound of each other, and the same
share of failed operations. ``TRACE_RUNS`` traced runs of seed 1 follow;
their count metrics must repeat exactly, and their end-to-end figures minus
set A's seed-1 run give the tracing overhead. Everything is also written to
``bench/out/calibrate.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
TRACE_RUNS = 2


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = SPEC["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(set_a: list[dict], set_b: list[dict]) -> tuple[list[str], bool]:
    lines, agree = [], True
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        qa = quartiles([r["metrics"][name]["value"] for r in set_a])
        qb = quartiles([r["metrics"][name]["value"] for r in set_b])
        drift = abs(qb["median"] - qa["median"]) / qa["median"]
        spread = max(qa["spread"], qb["spread"])
        ok = drift <= bound and spread <= bound
        steady = spread < bound / 3
        agree &= ok
        lines.append(
            f"  {name:18s} A {qa['median']:.5g} [{qa['q1']:.5g}, {qa['q3']:.5g}] spread {qa['spread']:.3f} | "
            f"B {qb['median']:.5g} [{qb['q1']:.5g}, {qb['q3']:.5g}] spread {qb['spread']:.3f} | "
            f"drift {drift:.3f} bound {bound} {'agree' if ok else 'DISAGREE'}"
            f"{'' if steady else ' (spread above a third of the bound)'}"
        )
    share_a = [r["failed"] / r["attempted"] for r in set_a]
    share_b = [r["failed"] / r["attempted"] for r in set_b]
    same_share = len(set(share_a + share_b)) == 1
    agree &= same_share
    lines.append(f"  failed share {'identical' if same_share else 'DIFFERS'}: {sorted(set(share_a + share_b))}")
    return lines, agree


def main() -> int:
    report = {}
    all_agree = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        sets = {}
        for label, first_seed in (("A", 1), ("B", 101)):
            results = []
            for seed in range(first_seed, first_seed + RUNS):
                detail, result = run_once(workload, seed, 0)
                values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                print(
                    f"{workload} set {label} seed {seed}: ref_kernel_ms {detail['ref_kernel_ms']:.4f} "
                    f"rounds {detail['rounds']} elapsed {detail['elapsed_s']:.1f}s "
                    f"attempted {result['attempted']} failed {result['failed']} {values}",
                    flush=True,
                )
                results.append({**result, "detail": detail})
            sets[label] = results
        lines, agree = compare(sets["A"], sets["B"])
        all_agree &= agree
        print(f"{workload}: sets {'agree' if agree else 'DISAGREE'}")
        print("\n".join(lines), flush=True)

        traced = [run_once(workload, 1, 1) for _ in range(TRACE_RUNS)]
        counts = [
            {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "fraction")}
            for _, result in traced
        ]
        repeat = all(c == counts[0] for c in counts)
        all_agree &= repeat
        untraced = {k: v["value"] for k, v in sets["A"][0]["metrics"].items()}
        overhead = {
            k: statistics.median(d["end_to_end"][k] for d, _ in traced) - untraced[k]
            for k in untraced
        }
        print(f"{workload}: traced counts {'repeat exactly' if repeat else 'DIFFER'}: {counts[0]}")
        print(f"{workload}: tracing overhead (traced - untraced, seed 1): {overhead}", flush=True)
        report[workload] = {
            "sets": sets,
            "summary": lines,
            "agree": agree,
            "traced": [{"detail": d, **r} for d, r in traced],
            "trace_overhead": overhead,
        }

    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / "calibrate.json").write_text(json.dumps(report, indent=1) + "\n")
    print("all workloads agree" if all_agree else "NOT all workloads agree")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
