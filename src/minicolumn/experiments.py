"""Experiment harness: configs, the encoder+layer stack, and runners.

Everything here is driven by a single config document so that a run is fully
determined by config + seed, with no hidden state. The runners return
RunReports; the command-line front end handles file I/O around them.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from typing import Sequence

from .encoders import CategoryEncoder, ScalarEncoder
from .metrics import RunReport, prediction_accuracy
from .pattern import PatternLayer
from .pooling import PoolingLayer, stability
from .sdr import Sdr, _check_keys, flip_noise
from .transition import LayerOutput, TmLayer, _columns_of, _read_dtau_vert

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SequenceModel",
    "build_model",
    "decode_prediction",
    "run_sequence",
    "run_anomaly",
    "run_pool",
]


class ConfigError(ValueError):
    """Invalid experiment config; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))


# Encoder classes by kind: a config's ``encoder.type`` and a snapshot's
# ``encoder_kind``.
_ENCODERS = {"category": CategoryEncoder, "scalar": ScalarEncoder}


def _keywords(*classes) -> frozenset:
    """Constructor keywords a config section may set; ``build_model``
    supplies ``input_size``, ``seed`` and ``rng_seed`` itself."""
    names = {name for cls in classes for name in inspect.signature(cls).parameters}
    return frozenset(names - {"input_size", "seed", "rng_seed", "kwargs"})


_ENCODER_KEYS = {kind: _keywords(cls) | {"type"} for kind, cls in _ENCODERS.items()}
_LAYER_KEYS = _keywords(TmLayer, PatternLayer)
# The runners train a pooling layer with tp_learn alone, which never reads
# the pattern layer's delta_inc and delta_dec.
_POOL_KEYS = _keywords(PoolingLayer, PatternLayer) - {"delta_inc", "delta_dec"}


def _is(value, *types) -> bool:
    """Whether a JSON value is one of ``types``; a bool is never a number here."""
    return isinstance(value, types) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """Whether a JSON value is a finite number; an integer too large for a float is not."""
    return _is(value, int, float) and abs(value) <= sys.float_info.max


def _section_errors(
    name: str, section: dict, keys: frozenset, integers: tuple, numbers: tuple = ()
) -> list[str]:
    """Problems with a config section: unknown keys, ``integers`` or
    ``numbers`` that are missing, not integers or not finite numbers, and
    booleans, which no constructor keyword takes."""
    errors = [f"unknown {name} key {key!r}" for key in sorted(set(section) - keys)]
    errors += [
        f"{name}.{key} must be an integer" for key in integers if not _is(section.get(key), int)
    ]
    for key in numbers:
        value = section.get(key)
        if not _is(value, int, float):
            errors.append(f"{name}.{key} must be a number")
        elif not _finite_number(value):
            errors.append(f"{name}.{key} must be finite, got {value!r}")
    errors += [
        f"{name}.{key} must not be a boolean"
        for key in sorted(set(section) & keys - set(integers) - set(numbers))
        if isinstance(section[key], bool)
    ]
    return errors


@dataclass
class SequenceSpec:
    tokens: list
    repeats: int


@dataclass
class ExperimentConfig:
    """Everything a run needs besides the code version."""

    seed: int
    encoder: dict
    layer: dict
    sequences: list[SequenceSpec]
    pool: dict | None = None
    noise: dict | None = None
    eval_cycles: int = 5

    @property
    def encoder_type(self) -> str:
        """The encoder kind, ``category`` unless the config says otherwise."""
        return self.encoder.get("type", "category")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors: list[str] = []
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])

        known_top = {"seed", "encoder", "layer", "pool", "sequences", "noise", "eval_cycles"}
        for key in sorted(set(raw) - known_top):
            errors.append(f"unknown top-level key {key!r}")

        seed = raw.get("seed", 0)
        if not _is(seed, int):
            errors.append(f"seed must be an integer, got {seed!r}")
            seed = 0

        encoder = raw.get("encoder")
        enc_type = None  # unknown: tokens go unchecked
        if not isinstance(encoder, dict):
            errors.append("encoder section is required and must be an object")
            encoder = {}
        else:
            enc_type = encoder.get("type", "category")
            if enc_type not in _ENCODERS:
                errors.append(f"encoder.type must be 'category' or 'scalar', got {enc_type!r}")
            else:
                integers = ("universe_size", "active_bits")
                numbers = ("min_value", "max_value") if enc_type == "scalar" else ()
                errors += _section_errors(
                    "encoder", encoder, _ENCODER_KEYS[enc_type], integers, numbers
                )

        layer = raw.get("layer")
        if not isinstance(layer, dict):
            errors.append("layer section is required and must be an object")
            layer = {}
        else:
            integers = ("n_columns", "cells_per_column")
            errors += _section_errors("layer", layer, _LAYER_KEYS, integers)

        pool = raw.get("pool")
        if pool is not None:
            if not isinstance(pool, dict):
                errors.append("pool section must be an object")
                pool = None
            else:
                errors += _section_errors("pool", pool, _POOL_KEYS, ("n_columns",))

        sequences: list[SequenceSpec] = []
        raw_sequences = raw.get("sequences")
        if not isinstance(raw_sequences, list) or not raw_sequences:
            errors.append("sequences must be a non-empty list")
        else:
            for i, spec in enumerate(raw_sequences):
                if not isinstance(spec, dict):
                    errors.append(f"sequences[{i}] must be an object")
                    continue
                tokens = spec.get("tokens")
                repeats = spec.get("repeats", 1)
                if not isinstance(tokens, list) or len(tokens) < 2:
                    errors.append(f"sequences[{i}].tokens must be a list of >= 2 tokens")
                    continue
                if not _is(repeats, int) or repeats < 1:
                    errors.append(f"sequences[{i}].repeats must be a positive integer")
                    continue
                for key in sorted(set(spec) - {"tokens", "repeats"}):
                    errors.append(f"unknown sequences[{i}] key {key!r}")
                for j, token in enumerate(tokens):
                    where = f"sequences[{i}].tokens[{j}]"
                    if enc_type == "category" and isinstance(token, (list, dict)):
                        errors.append(f"{where} must not be a list or object")
                    elif enc_type == "scalar" and not _finite_number(token):
                        errors.append(f"{where} must be a finite number, got {token!r}")
                sequences.append(SequenceSpec(tokens=list(tokens), repeats=repeats))

        noise = raw.get("noise")
        if noise is not None:
            if not isinstance(noise, dict):
                errors.append("noise section must be an object")
                noise = None
            else:
                for key in sorted(set(noise) - {"flip_fraction", "seed"}):
                    errors.append(f"unknown noise key {key!r}")
                frac = noise.get("flip_fraction")
                if not _is(frac, int, float) or not 0.0 <= frac <= 1.0:
                    errors.append("noise.flip_fraction must be a number in [0, 1]")
                noise_seed = noise.get("seed", 0)
                if not _is(noise_seed, int) or noise_seed < 0:
                    errors.append(f"noise.seed must be a non-negative integer, got {noise_seed!r}")

        eval_cycles = raw.get("eval_cycles", 5)
        if not _is(eval_cycles, int) or eval_cycles < 2:
            errors.append("eval_cycles must be an integer >= 2")
            eval_cycles = 5

        if errors:
            raise ConfigError(errors)
        return cls(
            seed=seed,
            encoder=encoder,
            layer=layer,
            sequences=sequences,
            pool=pool,
            noise=noise,
            eval_cycles=eval_cycles,
        )


@dataclass
class SequenceModel:
    """Encoder + transition layer (+ optional pooling layer) bundle."""

    encoder: CategoryEncoder | ScalarEncoder
    tm: TmLayer
    pool: PoolingLayer | None = None

    def encode(self, token):
        return self.encoder.encode(token)

    @property
    def encoder_kind(self) -> str:
        """The encoder's kind, as ``_ENCODERS`` names it."""
        return next(kind for kind, cls in _ENCODERS.items() if isinstance(self.encoder, cls))

    def to_state(self) -> dict:
        state = {
            "encoder_kind": self.encoder_kind,
            "encoder": self.encoder.to_state(),
            "tm": self.tm.to_state(),
        }
        if self.pool is not None:
            state["pool"] = self.pool.to_state()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "SequenceModel":
        _check_keys(
            "sequence model state", state,
            ("encoder_kind", "encoder", "tm") + (("pool",) if "pool" in state else ()),
        )
        kind = state["encoder_kind"]
        if not (isinstance(kind, str) and kind in _ENCODERS):
            raise ValueError(f"encoder_kind must be one of {sorted(_ENCODERS)}, got {kind!r}")
        model = cls(
            encoder=_ENCODERS[kind].from_state(state["encoder"]),
            tm=TmLayer.from_state(state["tm"]),
            pool=PoolingLayer.from_state(state["pool"]) if "pool" in state else None,
        )
        # The parts must fit together as build_model makes them.
        if model.tm.pattern.input_size != model.encoder.universe_size:
            raise ValueError(
                f"tm input_size {model.tm.pattern.input_size} != encoder universe_size "
                f"{model.encoder.universe_size}"
            )
        if model.pool is not None and model.pool.input_size != model.tm.n_cells:
            raise ValueError(
                f"pool input_size {model.pool.input_size} != tm cell count {model.tm.n_cells}"
            )
        return model


def _construct(section: str, cls, **kwargs):
    """Build one part of the model; a rejected value becomes a ConfigError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError([f"{section}: {exc}"]) from exc


def build_model(config: ExperimentConfig, with_pool: bool = False) -> SequenceModel:
    enc = {key: value for key, value in config.encoder.items() if key != "type"}
    if config.encoder_type == "category":
        enc["rng_seed"] = config.seed
    encoder = _construct("encoder", _ENCODERS[config.encoder_type], **enc)

    layer = _read_dtau_vert(config.layer)
    tm = _construct(
        "layer", TmLayer, input_size=encoder.universe_size, seed=config.seed, **layer
    )

    pool = None
    if with_pool:
        if config.pool is None:
            raise ConfigError(["pool section is required for pooling runs"])
        pool = _construct(
            "pool", PoolingLayer, input_size=tm.n_cells, seed=config.seed + 1, **config.pool
        )
    return SequenceModel(encoder=encoder, tm=tm, pool=pool)


def _layer_record(t: int, output: LayerOutput, prev: LayerOutput | None) -> dict:
    active = len(output.active_cells)
    return {
        "t": t,
        "active_columns": output.active_columns.ids.tolist(),
        "pred_cells": output.predicted_cells.ids.tolist(),
        "burst_cells": output.burst_cells.ids.tolist(),
        "anomaly": output.anomaly,
        "prediction_accuracy": (
            prediction_accuracy(prev, output) if prev is not None else 0.0
        ),
        "active_cell_count": active,
        "burst_fraction": (len(output.burst_cells) / active) if active else 0.0,
    }


def _step(model: SequenceModel, t: int, token, prev: LayerOutput | None, learn=True, **extra):
    """Encode ``token`` and step the layer, returning the output and its
    record: the ``_layer_record`` fields, then ``extra``, then the token."""
    output = model.tm.step(model.encode(token), learn=learn)
    record = _layer_record(t, output, prev)
    record.update(extra, token=str(token))
    return output, record


def decode_prediction(model: SequenceModel, output: LayerOutput, values=None):
    """Read the layer's next-step guess back out as a known symbol.

    The predicted cells' columns are back-projected through their proximal
    synapses into input space, and every input bit with a vote is matched
    against the encoder's codes: a category encoder's table, or for a scalar
    encoder, which keeps none, the codes of ``values``. Returns
    (symbol, overlap) or (None, 0) when nothing is predicted.
    """
    cells = output.predictive_cells_next
    if not cells:
        return None, 0
    tm = model.tm
    # build_model and SequenceModel.from_state make the encoder's universe
    # the layer's input size, which the back-projection spans.
    hits = tm.pattern.reconstruct(_columns_of(cells, tm.n_columns)) > 0
    if isinstance(model.encoder, ScalarEncoder):
        return model.encoder.best_match(hits, values)
    return model.encoder.best_match(hits)


def run_sequence(config: ExperimentConfig, model: SequenceModel | None = None):
    """Train on the configured sequences with resets, then decode predictions.

    Returns (report, model, evaluations). Each evaluation feeds a sequence
    except its last token and records which symbol the layer predicts next.
    Passing a model continues training it instead of building a fresh one.
    """
    if model is None:
        model = build_model(config)
    tm = model.tm
    report = RunReport()
    noise = config.noise or {}
    flip = float(noise.get("flip_fraction", 0.0))
    noise_seed = int(noise.get("seed", config.seed + 17))

    t = 0
    max_repeats = max(spec.repeats for spec in config.sequences)
    for rep in range(max_repeats):
        for s, spec in enumerate(config.sequences):
            if rep >= spec.repeats:
                continue
            tm.reset()
            prev = None
            for token in spec.tokens:
                output, record = _step(model, t, token, prev, sequence=s, repeat=rep)
                report.add(record)
                prev = output
                t += 1

    # A scalar encoder decodes to the run's distinct tokens.
    values = list(dict.fromkeys(token for spec in config.sequences for token in spec.tokens))
    evaluations = []
    for s, spec in enumerate(config.sequences):
        tm.reset()
        output = None
        for k, token in enumerate(spec.tokens[:-1]):
            x = model.encode(token)
            if flip > 0.0:
                x = flip_noise(x, flip, noise_seed + 1000 * s + k)
            output = tm.step(x, learn=False)
        predicted, ov = decode_prediction(model, output, values)
        evaluations.append(
            {
                "sequence": s,
                "tokens": [str(tok) for tok in spec.tokens],
                "expected": str(spec.tokens[-1]),
                "predicted": None if predicted is None else str(predicted),
                "overlap": ov,
                "correct": predicted == spec.tokens[-1],
            }
        )
    report.finalize()
    report.summary["evaluations"] = evaluations
    report.summary["eval_accuracy"] = (
        sum(1 for e in evaluations if e["correct"]) / len(evaluations)
    )
    return report, model, evaluations


def run_anomaly(config: ExperimentConfig, tokens: Sequence, model: SequenceModel | None = None):
    """Feed a continuous token stream with learning on, scoring every step."""
    if model is None:
        model = build_model(config)
    report = RunReport()
    prev = None
    for t, token in enumerate(tokens):
        output, record = _step(model, t, token, prev)
        report.add(record)
        prev = output
    report.finalize()
    return report, model


def run_pool(config: ExperimentConfig, model: SequenceModel | None = None):
    """Train a transition + pooling stack on a cycle, then compare stability.

    The first configured sequence is treated as a cycle: it repeats with no
    resets for ``repeats`` cycles of training, then ``eval_cycles`` cycles run
    with learning off while pooled and cellular SDR histories are collected.
    """
    if model is None:
        model = build_model(config, with_pool=True)
    if model.pool is None:
        raise ConfigError(["pooling runs need a model with a pool layer"])
    pool = model.pool
    spec = config.sequences[0]
    report = RunReport()

    t = 0
    prev = None
    l4_history: list[Sdr] = []
    pooled_history: list[Sdr] = []
    for learn, cycles in ((True, spec.repeats), (False, config.eval_cycles)):
        for _ in range(cycles):
            for token in spec.tokens:
                output, record = _step(model, t, token, prev, learn)
                pooled = pool.tp_step(output)
                record["pooled"] = pooled.ids.tolist()
                if learn:
                    pool.tp_learn(output, pooled)
                else:
                    record["phase"] = "eval"
                    l4_history.append(output.active_cells)
                    pooled_history.append(pooled)
                report.add(record)
                prev = output
                t += 1

    report.finalize()
    report.summary["stability_pooled"] = stability(pooled_history, pool.n_active)
    report.summary["stability_l4"] = stability(
        l4_history, max(len(s) for s in l4_history)
    )
    return report, model
