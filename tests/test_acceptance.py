"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Everything is seeded; reruns produce identical numbers.
"""

import math
import time
from itertools import combinations

import numpy as np

from minicolumn import (
    CategoryEncoder,
    PatternLayer,
    PoolingLayer,
    Sdr,
    TmLayer,
    capacity,
    flip_noise,
    overlap,
)
from minicolumn import persistence
from minicolumn.experiments import ExperimentConfig, run_anomaly, run_pool
from minicolumn.pattern import reconstruction_error


def report(name, elapsed, limit, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s < {limit}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeded {limit}s"


def test_01_capacity():
    start = time.perf_counter()
    result = capacity(2048, 40, 32)
    published = {
        "columnar": math.log10(2.37178) + 84,
        "contexts": math.log10(1.60694) + 60,
        "cellular": math.log10(3.8113) + 144,
    }
    errors = {
        key: abs(result[key] - published[key]) / published[key] for key in published
    }
    elapsed = time.perf_counter() - start
    ok = all(err <= 1e-4 for err in errors.values())
    report(
        "1. CAPACITY",
        elapsed,
        1,
        ok,
        f"log10 rel errors {({k: f'{v:.2e}' for k, v in errors.items()})}",
    )


def test_02_cardinality_range():
    start = time.perf_counter()
    enc = CategoryEncoder(2048, 40, rng_seed=3)
    tm = TmLayer(2048, 2048, 32, n_active=40, seed=11)
    for _ in range(6):
        tm.reset()
        tm.step(enc.encode("A"))
        tm.step(enc.encode("B"))
    tm.reset()
    bursting = tm.step(enc.encode("A"), learn=False)
    predicted = tm.step(enc.encode("B"), learn=False)
    elapsed = time.perf_counter() - start
    ok = (
        len(predicted.active_cells) == 40
        and len(predicted.burst_cells) == 0
        and len(bursting.active_cells) == 1280
    )
    report(
        "2. CARDINALITY RANGE",
        elapsed,
        5,
        ok,
        f"predicted {len(predicted.active_cells)} cells, "
        f"bursting {len(bursting.active_cells)} cells",
    )


def _desk_tm(seed=7):
    return TmLayer(
        1024, 512, 8, n_active=10, seed=seed,
        delta_inc=0.1, delta_dec=0.05, sigma_punish=0.05,
    )


def test_03_high_order_disambiguation():
    start = time.perf_counter()
    enc = CategoryEncoder(1024, 20, rng_seed=1)
    tm = _desk_tm()
    sequences = ["ABCD", "XBCY"]
    for _ in range(20):
        for seq in sequences:
            tm.reset()
            for sym in seq:
                tm.step(enc.encode(sym))

    def decode_after(prefix):
        tm.reset()
        for sym in prefix:
            out = tm.step(enc.encode(sym), learn=False)
        columns = sorted({tm.column_of(c) for c in out.predictive_cells_next})
        estimate = tm.pattern.reconstruct(Sdr(tm.n_columns, columns))
        probe = Sdr(1024, np.nonzero(estimate)[0])
        return enc.best_match(probe)[0], out

    trials_ok = 0
    for _ in range(10):
        d, _ = decode_after("ABC")
        y, _ = decode_after("XBC")
        trials_ok += d == "D" and y == "Y"

    _, out_ab = decode_after("AB")
    _, out_xb = decode_after("XB")
    col_share = overlap(out_ab.active_columns, out_xb.active_columns) / 10
    cell_share = overlap(out_ab.active_cells, out_xb.active_cells) / 10
    elapsed = time.perf_counter() - start
    ok = trials_ok == 10 and col_share >= 0.9 and cell_share <= 0.2
    report(
        "3. HIGH-ORDER DISAMBIGUATION",
        elapsed,
        30,
        ok,
        f"decode {trials_ok}/10, columns shared {col_share:.0%}, "
        f"cells shared {cell_share:.0%}",
    )


def test_04_repeated_symbol_contexts():
    start = time.perf_counter()
    enc = CategoryEncoder(1024, 20, rng_seed=1)
    tm = _desk_tm()
    word = "MISSISSIPPI"
    for _ in range(30):
        tm.reset()
        for sym in word:
            tm.step(enc.encode(sym))
    tm.reset()
    s_steps = []
    for sym in word:
        out = tm.step(enc.encode(sym), learn=False)
        if sym == "S":
            s_steps.append(out)
    worst_cell = 0.0
    worst_col = 1.0
    for a, b in combinations(s_steps, 2):
        count = min(len(a.active_cells), len(b.active_cells))
        worst_cell = max(worst_cell, overlap(a.active_cells, b.active_cells) / count)
        worst_col = min(
            worst_col,
            overlap(a.active_columns, b.active_columns)
            / min(len(a.active_columns), len(b.active_columns)),
        )
    elapsed = time.perf_counter() - start
    ok = len(s_steps) == 4 and worst_cell < 0.5 and worst_col > 0.9
    report(
        "4. REPEATED-SYMBOL CONTEXTS",
        elapsed,
        60,
        ok,
        f"worst cellular share {worst_cell:.0%}, worst columnar share {worst_col:.0%}",
    )


def test_05_first_order_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    tm = TmLayer(512, 256, 4, n_active=8, beta=0.0, seed=33)
    tm_exact = all(
        tm.step(x, learn=False).active_columns == tm.pattern.compute_sdr(x)
        for x in (
            Sdr(512, rng.choice(512, 30, replace=False)) for _ in range(100)
        )
    )

    driver = TmLayer(512, 256, 8, n_active=8, seed=5)
    pool = PoolingLayer(
        driver.n_cells, 256, n_active=8, persistence=0.0, seed=44,
        delta_inc_pred=0.05, delta_inc_burst=0.05,
        delta_dec_pred=0.008, delta_dec_burst=0.008,
    )
    plain = PatternLayer(driver.n_cells, 256, n_active=8, min_overlap=2, seed=44)
    pool_exact = True
    for _ in range(100):
        out = driver.step(Sdr(512, rng.choice(512, 30, replace=False)))
        a = pool.tp_step(out)
        b = plain.compute_sdr(out.active_cells)
        pool_exact &= a == b
        pool.tp_learn(out, a)
        plain.learn(out.active_cells, b)
        pool_exact &= bool(np.array_equal(pool.permanences, plain.permanences))
    elapsed = time.perf_counter() - start
    ok = tm_exact and pool_exact
    report(
        "5. FIRST-ORDER / ORACLE EQUIVALENCE",
        elapsed,
        10,
        ok,
        f"tm bit-exact: {tm_exact}, pooling bit-exact: {pool_exact}",
    )


def _convergence_setup():
    rng = np.random.default_rng(42)
    inputs = [Sdr(512, rng.choice(512, 40, replace=False)) for _ in range(10)]
    layer = PatternLayer(512, 256, n_active=8, potential_fraction=0.5, seed=42)
    return inputs, layer


def _mean_error(layer, inputs):
    return sum(
        reconstruction_error(x, layer.masked_reconstruct(layer.compute_sdr(x), x))
        for x in inputs
    ) / len(inputs)


def test_06_pattern_memory_convergence():
    start = time.perf_counter()
    inputs, layer = _convergence_setup()
    errors = [_mean_error(layer, inputs)]
    for _ in range(50):
        for x in inputs:
            layer.learn(x, layer.compute_sdr(x))
        errors.append(_mean_error(layer, inputs))
    elapsed = time.perf_counter() - start
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    halved = errors[-1] <= 0.5 * errors[0]
    report(
        "6. PATTERN-MEMORY CONVERGENCE",
        elapsed,
        30,
        monotone and halved and errors[0] > 0,
        f"error {errors[0]:.2f} -> {errors[-1]:.2f}, monotone {monotone}",
    )


def test_07_noise_robustness():
    start = time.perf_counter()
    inputs, layer = _convergence_setup()
    for _ in range(50):
        for x in inputs:
            layer.learn(x, layer.compute_sdr(x))
    clean = [layer.compute_sdr(x) for x in inputs]
    overlaps = []
    for trial in range(50):
        i = trial % len(inputs)
        noisy = flip_noise(inputs[i], 0.2, 1000 + trial)
        overlaps.append(overlap(layer.compute_sdr(noisy), clean[i]) / len(clean[i]))
    mean_overlap = sum(overlaps) / len(overlaps)
    elapsed = time.perf_counter() - start
    report(
        "7. NOISE ROBUSTNESS",
        elapsed,
        30,
        mean_overlap >= 0.75,
        f"mean columnar overlap {mean_overlap:.3f} over 50 trials (min {min(overlaps):.3f})",
    )


ANOMALY_CONFIG = {
    "seed": 0,
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
    "sequences": [{"tokens": ["s0", "s1"], "repeats": 1}],  # unused by the stream run
}


def test_08_anomaly_spike():
    start = time.perf_counter()
    config = ExperimentConfig.from_dict(ANOMALY_CONFIG)
    symbols = [f"s{i}" for i in range(8)]
    cycles, inject_cycle, inject_pos = 47, 43, 3
    stream = []
    for cycle in range(cycles):
        for pos in range(8):
            token = symbols[pos]
            if cycle == inject_cycle and pos == inject_pos:
                token = symbols[6]
            stream.append(token)
    report_run, _ = run_anomaly(config, stream)
    anomalies = [record["anomaly"] for record in report_run.steps]
    inject_index = inject_cycle * 8 + inject_pos
    spike = anomalies[inject_index]
    window_before = anomalies[(inject_cycle - 3) * 8 : inject_cycle * 8]
    window_after = anomalies[(inject_cycle + 1) * 8 : (inject_cycle + 4) * 8]
    mean_before = sum(window_before) / len(window_before)
    mean_after = sum(window_after) / len(window_after)
    elapsed = time.perf_counter() - start
    ok = spike >= 0.9 and mean_before < 0.1 and mean_after < 0.1
    report(
        "8. ANOMALY SPIKE (AN-1)",
        elapsed,
        30,
        ok,
        f"spike {spike:.2f}, window means {mean_before:.3f}/{mean_after:.3f}",
    )


POOL_CONFIG = {
    "seed": 7,
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
    "sequences": [
        {"tokens": ["c0", "c1", "c2", "c3", "c4", "c5"], "repeats": 60}
    ],
    "eval_cycles": 5,
}


def test_09_temporal_pooling_stability():
    start = time.perf_counter()
    config = ExperimentConfig.from_dict(POOL_CONFIG)
    report_run, _ = run_pool(config)
    pooled = report_run.summary["stability_pooled"]
    l4 = report_run.summary["stability_l4"]
    elapsed = time.perf_counter() - start
    report(
        "9. TEMPORAL POOLING STABILITY (TP-1)",
        elapsed,
        60,
        pooled <= 0.5 * l4,
        f"stability pooled {pooled:.3f} vs l4 {l4:.3f} (ratio {pooled / l4:.3f})",
    )


def test_10_invariant_suite(tmp_path):
    start = time.perf_counter()
    cases = 0
    rng = np.random.default_rng(123)

    # partition disjointness, column consistency, k-WTA cardinality bounds
    for stream in range(20):
        layer = TmLayer(128, 32, 4, n_active=4, seed=stream)
        for _ in range(25):
            x = Sdr(128, rng.choice(128, 16, replace=False))
            out = layer.step(x)
            assert overlap(out.predicted_cells, out.burst_cells) == 0
            assert set(out.active_cells) == (
                set(out.predicted_cells) | set(out.burst_cells)
            )
            assert len(out.active_columns) <= layer.pattern.n_active
            active_column_set = out.active_columns.active_set
            assert all(
                layer.column_of(c) in active_column_set for c in out.active_cells
            )
            cases += 1

    # the same invariants where segments can become active, so that columns
    # are predicted: a grown segment holds at most n_active = 4 sources, and
    # 3 of them reach activation_threshold. A column fires predicted cells
    # exactly when it holds a cell the previous step left predictive.
    sweep_rng = np.random.default_rng(321)
    for stream in range(10):
        layer = TmLayer(
            128, 32, 4, n_active=4, activation_threshold=3, min_match_threshold=2, seed=stream
        )
        cycle = [Sdr(128, sweep_rng.choice(128, 16, replace=False)) for _ in range(4)]
        predicted = 0
        prev_predictive = set()
        for _ in range(8):
            for x in cycle:
                out = layer.step(x)
                assert overlap(out.predicted_cells, out.burst_cells) == 0
                assert set(out.active_cells) == (
                    set(out.predicted_cells) | set(out.burst_cells)
                )
                assert len(out.active_columns) <= layer.pattern.n_active
                assert set(out.predicted_cells) <= prev_predictive
                for m in out.active_columns:
                    cells = set(range(m * 4, m * 4 + 4))
                    assert bool(cells & set(out.predicted_cells)) == bool(cells & prev_predictive)
                    assert len(cells & set(out.winner_cells)) == 1
                predicted += len(out.predicted_cells)
                prev_predictive = set(out.predictive_cells_next)
                cases += 1
        assert predicted > 0, f"stream {stream} never predicted a cell"

    # permanence clamping under sustained learning
    layer = PatternLayer(128, 32, n_active=4, delta_inc=0.3, delta_dec=0.2, seed=1)
    for _ in range(200):
        x = Sdr(128, rng.choice(128, 20, replace=False))
        layer.learn(x, layer.compute_sdr(x))
        assert layer.permanences.min() >= 0.0
        assert layer.permanences.max() <= 1.0
        cases += 1

    # determinism under a fixed seed
    inputs = [Sdr(128, rng.choice(128, 16, replace=False)) for _ in range(100)]
    a = TmLayer(128, 32, 4, n_active=4, seed=77)
    b = TmLayer(128, 32, 4, n_active=4, seed=77)
    for x in inputs:
        oa, ob = a.step(x), b.step(x)
        assert oa.active_cells == ob.active_cells
        assert oa.winner_cells == ob.winner_cells
        assert oa.firing_sequence == ob.firing_sequence
        cases += 2

    # snapshot round-trip determinism on randomly trained models
    for trial in range(10):
        layer = TmLayer(64, 16, 3, n_active=3, seed=trial)
        for _ in range(int(rng.integers(0, 15))):
            layer.step(Sdr(64, rng.choice(64, 10, replace=False)))
        path = tmp_path / f"inv_{trial}.json"
        persistence.save(layer, path)
        loaded = persistence.load(path)
        for _ in range(10):
            x = Sdr(64, rng.choice(64, 10, replace=False))
            assert layer.step(x).active_cells == loaded.step(x).active_cells
            cases += 1

    # sdr algebra on random pairs
    for _ in range(100):
        a_bits = rng.choice(256, int(rng.integers(0, 64)), replace=False)
        b_bits = rng.choice(256, int(rng.integers(0, 64)), replace=False)
        sa, sb = Sdr(256, a_bits), Sdr(256, b_bits)
        assert overlap(sa, sb) == overlap(sb, sa)
        from minicolumn import union

        assert union(sa, sb).cardinality == len(sa) + len(sb) - overlap(sa, sb)
        cases += 2

    elapsed = time.perf_counter() - start
    report(
        "10. INVARIANT SUITE",
        elapsed,
        60,
        cases >= 1000,
        f"{cases} randomized cases checked",
    )
