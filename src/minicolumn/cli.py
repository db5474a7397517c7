"""Command-line front end.

Subcommands: sequence, anomaly, capacity, pool, inspect. Every run is fully
determined by config + seed; two invocations with the same inputs produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import persistence
from .experiments import (
    ConfigError,
    ExperimentConfig,
    SequenceModel,
    run_anomaly,
    run_pool,
    run_sequence,
)
from .transition import TmLayer, capacity

__all__ = ["main"]


def _decode(data: bytes, what: str) -> str:
    """``data`` as strict UTF-8; anything else is a ``ConfigError`` naming
    the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{what}: not UTF-8 at byte offset {exc.start}"]) from None


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        raw = json.loads(_decode(data, f"config {path}"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config {path}: parse error at line {exc.lineno}: {exc.msg}"]
        ) from exc
    if seed_override is not None:
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        raw = dict(raw)
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


def _read_stream(path: str, scalar: bool) -> list:
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError([f"cannot read stream {path}: {exc}"]) from exc
    text = _decode(data, "stream stdin" if path == "-" else f"stream {path}")
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            raise ConfigError([f"stream line {lineno}: empty line"])
        if scalar:
            try:
                value = float(token)
            except ValueError:
                raise ConfigError(
                    [f"stream line {lineno}: cannot parse {token!r} as a number"]
                ) from None
            if not math.isfinite(value):
                raise ConfigError([f"stream line {lineno}: {token!r} is not a finite number"])
            tokens.append(value)
        else:
            tokens.append(token)
    if not tokens:
        raise ConfigError(["stream is empty"])
    return tokens


def _finish(report, model, args, name: str) -> None:
    if args.out:
        records_path, summary_path = report.write(args.out, name)
        print(f"records: {records_path}")
        print(f"summary: {summary_path}")
    if getattr(args, "snapshot", None):
        persistence.save(model, args.snapshot)
        print(f"snapshot: {args.snapshot}")


def _resumed_model(args, config: ExperimentConfig):
    """The snapshot named by ``--resume``, or None. Refuses anything but a
    sequence model whose encoder kind is the config's ``encoder.type``."""
    if getattr(args, "resume", None) is None:
        return None
    model = persistence.load(args.resume)
    if not isinstance(model, SequenceModel):
        raise ConfigError(
            [f"--resume expects a sequence_model snapshot, got {type(model).__name__}"]
        )
    if model.encoder_kind != config.encoder_type:
        raise ConfigError(
            [f"--resume snapshot {args.resume} has a {model.encoder_kind} encoder, but the "
             f"config's encoder.type is {config.encoder_type!r}"]
        )
    return model


def _cmd_sequence(args) -> int:
    config = _load_config(args.config, args.seed)
    report, model, evaluations = run_sequence(config, model=_resumed_model(args, config))
    for ev in evaluations:
        status = "ok" if ev["correct"] else "MISS"
        print(
            f"[{status}] {' '.join(ev['tokens'][:-1])} -> predicted "
            f"{ev['predicted']} (expected {ev['expected']}, overlap {ev['overlap']})"
        )
    print(f"eval accuracy: {report.summary['eval_accuracy']:.3f}")
    mean_anom = report.summary.get("anomaly", {}).get("mean", float("nan"))
    print(f"mean training anomaly: {mean_anom:.4f}")
    _finish(report, model, args, "sequence")
    return 0


def _cmd_anomaly(args) -> int:
    config = _load_config(args.config, args.seed)
    scalar = config.encoder_type == "scalar"
    tokens = _read_stream(args.stream, scalar)
    report, model = run_anomaly(config, tokens, model=_resumed_model(args, config))
    summary = report.summary["anomaly"]
    print(
        f"steps: {len(report.steps)}  anomaly mean {summary['mean']:.4f} "
        f"max {summary['max']:.4f} final {summary['final']:.4f}"
    )
    _finish(report, model, args, "anomaly")
    return 0


def _cmd_capacity(args) -> int:
    try:
        result = capacity(args.columns, args.active, args.cells)
    except ValueError as exc:
        given = f"--columns {args.columns} --active {args.active} --cells {args.cells}"
        print(f"capacity {given}: {exc}", file=sys.stderr)
        return 2
    print(f"{'representation':<12} {'log10':>14} {'count':>16}")
    for name in ("columnar", "contexts", "cellular"):
        log10 = result[name]
        exponent = math.floor(log10)
        mantissa = 10.0 ** (log10 - exponent)
        print(f"{name:<12} {log10:>14.5f} {mantissa:>10.5f}e+{exponent}")
    return 0


def _cmd_pool(args) -> int:
    config = _load_config(args.config, args.seed)
    report, model = run_pool(config, model=_resumed_model(args, config))
    pooled = report.summary["stability_pooled"]
    l4 = report.summary["stability_l4"]
    print(f"stability pooled: {pooled:.4f}")
    print(f"stability l4 cellular: {l4:.4f}")
    ratio = pooled / l4 if l4 > 0 else float("inf")
    print(f"ratio: {ratio:.4f}")
    _finish(report, model, args, "pool")
    return 0


def _cmd_inspect(args) -> int:
    model = persistence.load(args.snapshot)
    kind = type(model).__name__
    print(f"kind: {kind}")
    tm = getattr(model, "tm", model)
    params = tm.params() if isinstance(tm, TmLayer) else model.to_state()["params"]
    for key in sorted(params):
        print(f"  {key}: {params[key]}")
    if isinstance(tm, TmLayer):
        counts = tm.distal_counts()
        print(f"  cells with segments: {counts['cells_with_segments']}")
        print(f"  total segments: {counts['segments']}")
        print(f"  total distal synapses: {counts['synapses']}")
    encoder = getattr(model, "encoder", model)
    if hasattr(encoder, "symbol_table"):
        print(f"  symbols: {sorted(map(str, encoder.symbol_table))}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minicolumn",
        description="Sequence memory experiments over sparse distributed codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, snapshot=True):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="directory for report files")
        if snapshot:
            p.add_argument("--snapshot", default=None, help="save model here after the run")
            p.add_argument("--resume", default=None, help="continue from a saved model snapshot")

    p_seq = sub.add_parser("sequence", help="train on sequences, decode next-step predictions")
    common(p_seq)
    p_seq.set_defaults(func=_cmd_sequence)

    p_anom = sub.add_parser("anomaly", help="score a token stream, one per line")
    common(p_anom)
    p_anom.add_argument("stream", help="token stream file, or - for stdin")
    p_anom.set_defaults(func=_cmd_anomaly)

    p_cap = sub.add_parser("capacity", help="representation capacity arithmetic")
    p_cap.add_argument("--columns", type=int, required=True)
    p_cap.add_argument("--active", type=int, required=True)
    p_cap.add_argument("--cells", type=int, default=1)
    p_cap.set_defaults(func=_cmd_capacity)

    p_pool = sub.add_parser("pool", help="train a pooling stack on a cycle")
    common(p_pool)
    p_pool.set_defaults(func=_cmd_pool)

    p_ins = sub.add_parser("inspect", help="summarize a snapshot file")
    p_ins.add_argument("--snapshot", required=True)
    p_ins.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed standard output, as ``| head`` does. Point it at
        # devnull so the flush at exit cannot fail again, and exit with the
        # status of a process that SIGPIPE ended: the run was cut short.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except persistence.SnapshotError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
