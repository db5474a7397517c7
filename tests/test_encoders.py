import math

import pytest

from minicolumn import CategoryEncoder, ScalarEncoder, Sdr, overlap, union


class TestCategoryEncoder:
    def test_deterministic_memoization(self):
        enc = CategoryEncoder(1024, 20, rng_seed=3)
        assert enc.encode("A") == enc.encode("A")

    def test_same_seed_same_codes(self):
        a = CategoryEncoder(1024, 20, rng_seed=3)
        b = CategoryEncoder(1024, 20, rng_seed=3)
        assert a.encode("A") == b.encode("A")
        assert a.encode("B") == b.encode("B")

    def test_cardinality_exact(self):
        enc = CategoryEncoder(256, 12, rng_seed=0)
        for symbol in "ABCDEFG":
            assert enc.encode(symbol).cardinality == 12

    def test_pairwise_overlap_matches_hypergeometric(self):
        # Random codes overlap like draws without replacement: mean b*b/u,
        # variance b * (b/u) * (1 - b/u) * (u - b)/(u - 1). The observed mean
        # over 100 pairs must sit within 3 sigma of that expectation.
        u, b, pairs = 1024, 20, 100
        enc = CategoryEncoder(u, b, rng_seed=11)
        codes = [enc.encode(i) for i in range(pairs + 1)]
        observed = [overlap(codes[i], codes[i + 1]) for i in range(pairs)]
        mean = sum(observed) / pairs
        expectation = b * b / u
        variance = b * (b / u) * (1 - b / u) * ((u - b) / (u - 1))
        sigma_mean = math.sqrt(variance / pairs)
        assert abs(mean - expectation) <= 3 * sigma_mean

    def test_best_match_exact(self):
        enc = CategoryEncoder(512, 16, rng_seed=5)
        for symbol in "ABCD":
            enc.encode(symbol)
        assert enc.best_match(enc.encode("D")) == ("D", 16)

    def test_best_match_empty_probe_lexicographic(self):
        enc = CategoryEncoder(512, 16, rng_seed=5)
        for symbol in ("delta", "alpha", "charlie"):
            enc.encode(symbol)
        assert enc.best_match(Sdr(512)) == ("alpha", 0)

    def test_best_match_union_probe(self):
        enc = CategoryEncoder(512, 16, rng_seed=5)
        probe = union(enc.encode("A"), enc.encode("B"))
        ov_a = overlap(probe, enc.encode("A"))
        ov_b = overlap(probe, enc.encode("B"))
        expected = "A" if ov_a >= ov_b else "B"
        assert enc.best_match(probe) == (expected, max(ov_a, ov_b))

    def test_best_match_requires_symbols(self):
        enc = CategoryEncoder(64, 4)
        with pytest.raises(ValueError):
            enc.best_match(Sdr(64))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CategoryEncoder(16, 0)
        with pytest.raises(ValueError):
            CategoryEncoder(16, 17)


class TestScalarEncoder:
    def test_left_edge(self):
        enc = ScalarEncoder(0.0, 10.0, 128, 16)
        assert enc.encode(0.0).active == tuple(range(16))

    def test_right_edge(self):
        enc = ScalarEncoder(0.0, 10.0, 128, 16)
        assert enc.encode(10.0).active == tuple(range(112, 128))

    def test_clamping(self):
        enc = ScalarEncoder(0.0, 10.0, 128, 16)
        assert enc.encode(-5.0) == enc.encode(0.0)
        assert enc.encode(99.0) == enc.encode(10.0)

    def test_rejects_nan(self):
        enc = ScalarEncoder(0.0, 10.0, 128, 16)
        with pytest.raises(ValueError, match="NaN"):
            enc.encode(math.nan)

    def test_overlap_follows_run_offset(self):
        # Oracle: start(v) = floor((v - lo)/(hi - lo) * (u - b)), so overlap
        # of two encodings is b minus the start shift (when they overlap).
        enc = ScalarEncoder(0.0, 1.0, 256, 24)
        span = 256 - 24
        for v1, v2 in [(0.3, 0.31), (0.5, 0.52), (0.0, 0.05)]:
            s1 = math.floor(v1 * span)
            s2 = math.floor(v2 * span)
            expected = max(0, 24 - abs(s2 - s1))
            assert overlap(enc.encode(v1), enc.encode(v2)) == expected

    def test_fixed_cardinality(self):
        enc = ScalarEncoder(-1.0, 1.0, 100, 9)
        for v in (-1.0, -0.37, 0.0, 0.62, 1.0):
            assert enc.encode(v).cardinality == 9

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ScalarEncoder(1.0, 1.0, 64, 8)
        with pytest.raises(ValueError):
            ScalarEncoder(0.0, 1.0, 64, 64)
