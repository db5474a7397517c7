"""Run-level evaluation: accuracy, anomaly aggregates, overlap curves."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .sdr import Sdr, _check_width, overlap
from .transition import LayerOutput

__all__ = ["RunReport", "prediction_accuracy", "sdr_overlap_curve"]


@dataclass
class RunReport:
    """Per-step records plus summary aggregates of the numeric fields."""

    steps: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, record: dict) -> None:
        self.steps.append(record)

    def finalize(self) -> "RunReport":
        """Compute mean/min/max/final for every numeric step field."""
        numeric: dict[str, list[float]] = {}
        for record in self.steps:
            for key, value in record.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                numeric.setdefault(key, []).append(float(value))
        self.summary = {
            key: {
                "mean": sum(vals) / len(vals),
                "min": min(vals),
                "max": max(vals),
                "final": vals[-1],
            }
            for key, vals in numeric.items()
        }
        return self

    def write(self, out_dir: str | Path, name: str = "run") -> tuple[Path, Path]:
        """Write line-delimited step records and a summary document."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        records_path = out_dir / f"{name}_records.jsonl"
        summary_path = out_dir / f"{name}_summary.json"
        with records_path.open("w") as fh:
            for record in self.steps:
                fh.write(json.dumps(record) + "\n")
        with summary_path.open("w") as fh:
            json.dump(self.summary, fh, indent=2)
            fh.write("\n")
        return records_path, summary_path


def prediction_accuracy(prev_output: LayerOutput, cur_output: LayerOutput) -> float:
    """Fraction of currently active columns that were predicted last step.

    Column-level on purpose: bursting and anomaly are columnar phenomena.
    When the step has active columns, equals 1 - anomaly up to rounding. A
    step with no active column gives 0.0, while its anomaly is 0.0 too.
    """
    active = cur_output.active_columns
    if not active:
        return 0.0
    n = cur_output.active_cells.universe_size // cur_output.active_columns.universe_size
    predicted_columns = {c // n for c in prev_output.predictive_cells_next}
    hits = sum(1 for m in active if m in predicted_columns)
    return hits / len(active)


def sdr_overlap_curve(reference: Sdr, probes: Sequence[Sdr]) -> list[float]:
    """Overlap of each probe with the reference, as a fraction of it."""
    if not reference:
        raise ValueError("reference must have at least one active bit")
    curve = []
    for probe in probes:
        _check_width(probe, reference.universe_size, "probe", "reference width")
        curve.append(overlap(reference, probe) / len(reference))
    return curve
