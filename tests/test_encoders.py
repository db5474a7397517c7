import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import (
    CategoryEncoder,
    DimensionError,
    ScalarEncoder,
    Sdr,
    capacity,
    overlap,
    union,
)


def set_based_best_match(codes: dict, probe: Sdr):
    """``best_match`` as a loop over the symbols sorted by ``str``, scoring
    each code's overlap with the probe: the first strictly best wins."""
    best_symbol, best_overlap = None, -1
    for symbol in sorted(codes, key=str):
        ov = overlap(codes[symbol], probe)
        if ov > best_overlap:
            best_symbol, best_overlap = symbol, ov
    return best_symbol, best_overlap


# Symbols whose strings collide (1 and "1", 2.0 and "2.0") and a few others;
# small codes over a small universe, so that overlaps often tie.
SYMBOLS = st.sampled_from([1, "1", 2.0, "2.0", "a", "b", "B", None, "None", 10, -3, "x y"])
UNIVERSE = 24


@st.composite
def probes(draw, universe=UNIVERSE):
    return Sdr(universe, draw(st.sets(st.integers(0, universe - 1))))


def assert_matches_reference(enc, probe):
    expected = set_based_best_match(dict(enc.symbol_table), probe)
    for form in (probe, probe.dense()):
        answer = enc.best_match(form)
        assert answer == expected
        assert answer[0] is expected[0]  # 1 and 1.0 are equal, not the same symbol
        assert type(answer[1]) is int


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SYMBOLS, min_size=1, max_size=8),
        st.integers(1, 6),
        st.integers(0, 2**16),
        probes(),
        probes(),
        SYMBOLS,
    )
    def test_best_match_matches_set_based_rule(self, symbols, bits, seed, first, second, added):
        enc = CategoryEncoder(UNIVERSE, bits, rng_seed=seed)
        for symbol in symbols:
            enc.encode(symbol)
        assert_matches_reference(enc, first)
        # a symbol added between two calls takes part in the second
        enc.encode(added)
        assert_matches_reference(enc, second)
        assert_matches_reference(enc, Sdr(UNIVERSE))

    def test_best_match_ties_break_by_string_then_first_added(self):
        enc = CategoryEncoder(8, 8, rng_seed=0)  # every code is every bit
        for symbol in ("b", 1, "1", "a"):
            enc.encode(symbol)
        symbol, ov = enc.best_match(Sdr(8, [3]))
        assert (type(symbol), symbol, ov) == (int, 1, 1)

    def test_best_match_probe_width_mismatch(self):
        enc = CategoryEncoder(64, 4)
        enc.encode("A")
        with pytest.raises(DimensionError, match="probe width 32 != encoder width 64"):
            enc.best_match(Sdr(32))
        with pytest.raises(DimensionError, match=r"probe shape \(32,\) != encoder width \(64,\)"):
            enc.best_match(np.zeros(32, dtype=bool))
        with pytest.raises(DimensionError):
            enc.best_match(np.zeros((1, 64), dtype=bool))
        with pytest.raises(ValueError, match="must be boolean, got dtype int64"):
            enc.best_match(np.zeros(64, dtype=np.int64))

    def test_symbol_table_is_read_only(self):
        enc = CategoryEncoder(64, 4)
        enc.encode("A")
        with pytest.raises(TypeError):
            enc.symbol_table["B"] = Sdr(64, [1, 2, 3, 4])
        with pytest.raises(AttributeError):
            enc.symbol_table = {}
        assert list(enc.symbol_table) == ["A"]

    def test_loaded_code_of_the_wrong_length_rejected(self):
        state = CategoryEncoder(64, 4).to_state()
        state["symbol_table"] = [["A", [1, 2, 3]]]
        with pytest.raises(ValueError, match="symbol 'A' has a code of 3 bits, not active_bits=4"):
            CategoryEncoder.from_state(state)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CategoryEncoder(16, 0)
        with pytest.raises(ValueError):
            CategoryEncoder(16, 17)


NAN, INF = math.nan, math.inf


class TestParameterChecks:
    """The encoders and ``capacity`` run the layers' shared parameter checks:
    integers must be whole, no number may be a boolean or non-finite."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ((256.5, 12), "universe_size must be an integer, got 256.5"),
            ((256, 12.5), "active_bits must be an integer, got 12.5"),
            ((True, True), "universe_size must not be a boolean, got True"),
            ((256, True), "active_bits must not be a boolean, got True"),
            ((INF, 12), "universe_size must be finite, got inf"),
            ((256, NAN), "active_bits must be finite, got nan"),
            ((10**400, 12), "universe_size must be finite"),
            ((0, 1), "universe_size must be positive, got 0"),
        ],
    )
    def test_category_encoder_refuses(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CategoryEncoder(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 10, 256.5, 12), "universe_size must be an integer, got 256.5"),
            ((0, 10, 256, 12.5), "active_bits must be an integer, got 12.5"),
            ((0, 10, True, 12), "universe_size must not be a boolean, got True"),
            ((False, 10, 256, 12), "min_value must not be a boolean, got False"),
            ((-INF, 10, 256, 12), "min_value must be finite, got -inf"),
            ((0, INF, 256, 12), "max_value must be finite, got inf"),
            ((NAN, 10, 256, 12), "min_value must be finite, got nan"),
            ((0, 10**400, 256, 12), "max_value must be finite"),
            ((-1e308, 1e308, 256, 12), "max_value - min_value overflows, got [-1e+308, 1e+308]"),
        ],
    )
    def test_scalar_encoder_refuses(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScalarEncoder(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10.5, 2, 1), "n_cols must be an integer, got 10.5"),
            ((10, 2.5, 1), "k must be an integer, got 2.5"),
            ((10, 2, 1.5), "cells must be an integer, got 1.5"),
            ((True, 1, 1), "n_cols must not be a boolean, got True"),
            ((10, 2, True), "cells must not be a boolean, got True"),
            ((INF, 2, 1), "n_cols must be finite, got inf"),
            ((10, NAN, 1), "k must be finite, got nan"),
            ((10**400, 2, 1), "n_cols must be finite"),
        ],
    )
    def test_capacity_refuses(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            capacity(*args)

    def test_integral_floats_accepted_as_ints(self):
        scalar = ScalarEncoder(0, 10, 256.0, 12.0)
        code = scalar.encode(1.0)
        assert code.universe_size == 256 and type(code.universe_size) is int
        assert type(scalar.active_bits) is int
        category = CategoryEncoder(256.0, 12.0)
        assert (type(category.universe_size), type(category.active_bits)) == (int, int)
        assert capacity(10.0, 2.0, 4.0) == capacity(10, 2, 4)

    def test_widest_finite_span_accepted(self):
        enc = ScalarEncoder(-1e307, 1e307, 256, 12)
        assert enc.encode(1e308) == enc.encode(1e307)
        assert enc.encode(-1e308).active == tuple(range(12))


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-5, 15), st.floats(-5.0, 15.0)), min_size=1, max_size=8),
        st.integers(1, 8),
        probes(48),
    )
    def test_best_match_matches_set_based_rule(self, values, bits, probe):
        enc = ScalarEncoder(0.0, 10.0, 48, bits)
        values = list(dict.fromkeys(values))  # distinct, as run_sequence passes them
        expected = set_based_best_match({v: enc.encode(v) for v in values}, probe)
        for form in (probe, probe.dense()):
            answer = enc.best_match(form, values)
            assert answer == expected
            assert answer[0] is expected[0]
            assert type(answer[1]) is int

    def test_best_match_needs_values(self):
        enc = ScalarEncoder(0.0, 10.0, 64, 8)
        with pytest.raises(ValueError, match="no values to match"):
            enc.best_match(Sdr(64), [])
        with pytest.raises(DimensionError):
            enc.best_match(Sdr(32), [1.0])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ScalarEncoder(1.0, 1.0, 64, 8)
        with pytest.raises(ValueError):
            ScalarEncoder(0.0, 1.0, 64, 64)
