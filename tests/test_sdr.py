import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import DimensionError, Sdr, flip_noise, overlap, sparsity, union


def sdr_strategy(universe=64):
    return st.sets(st.integers(0, universe - 1), max_size=universe).map(
        lambda s: Sdr(universe, s)
    )


class TestSdrType:
    def test_sorted_deduped(self):
        s = Sdr(16, [9, 1, 5])
        assert s.active == (1, 5, 9)
        assert s.cardinality == 3
        assert len(s) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Sdr(8, [8])
        with pytest.raises(ValueError):
            Sdr(8, [-1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Sdr(8, [3, 3])

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            Sdr(0)

    def test_equality_and_hash(self):
        assert Sdr(16, [1, 2]) == Sdr(16, [2, 1])
        assert Sdr(16, [1, 2]) != Sdr(32, [1, 2])
        assert hash(Sdr(16, [1, 2])) == hash(Sdr(16, [1, 2]))

    def test_dense_round_trip(self):
        s = Sdr(10, [0, 4, 9])
        assert Sdr.from_dense(s.dense()) == s


class TestOverlap:
    def test_hand_example(self):
        assert overlap(Sdr(16, [1, 5, 9]), Sdr(16, [5, 9, 12])) == 2

    def test_empty(self):
        assert overlap(Sdr(16), Sdr(16, [5, 9])) == 0

    def test_self_overlap_is_cardinality(self):
        s = Sdr(16, [3, 7])
        assert overlap(s, s) == 2

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            overlap(Sdr(16, [1]), Sdr(17, [1]))


class TestUnion:
    def test_basic(self):
        assert union(Sdr(8, [1, 2]), Sdr(8, [2, 3])) == Sdr(8, [1, 2, 3])

    def test_identity(self):
        assert union(Sdr(8), Sdr(8, [4])) == Sdr(8, [4])

    def test_idempotent(self):
        s = Sdr(64, range(40))
        assert union(s, s).cardinality == 40

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            union(Sdr(8), Sdr(9))


class TestSparsity:
    def test_typical_layer(self):
        assert sparsity(Sdr(2048, range(40))) == pytest.approx(0.01953125)

    def test_empty(self):
        assert sparsity(Sdr(10)) == 0.0

    def test_full(self):
        assert sparsity(Sdr(10, range(10))) == 1.0


class TestFlipNoise:
    def test_zero_fraction_is_identity(self):
        s = Sdr(64, [1, 2, 3, 4])
        assert flip_noise(s, 0.0, 7) == s

    def test_full_flip_disjoint(self):
        s = Sdr(64, range(20))
        flipped = flip_noise(s, 1.0, 7)
        assert overlap(s, flipped) == 0
        assert flipped.cardinality == 20

    def test_half_flip_preserves_half(self):
        s = Sdr(512, range(40))
        flipped = flip_noise(s, 0.5, 7)
        assert overlap(s, flipped) == 20
        assert flipped.cardinality == 40

    def test_deterministic(self):
        s = Sdr(128, range(30))
        assert flip_noise(s, 0.3, 42) == flip_noise(s, 0.3, 42)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            flip_noise(Sdr(8, [1]), 1.5, 0)


@given(sdr_strategy(), sdr_strategy())
def test_overlap_commutes(a, b):
    assert overlap(a, b) == overlap(b, a)


@given(sdr_strategy())
def test_overlap_self(a):
    assert overlap(a, a) == a.cardinality


@given(sdr_strategy(), sdr_strategy())
def test_inclusion_exclusion(a, b):
    assert union(a, b).cardinality == a.cardinality + b.cardinality - overlap(a, b)


@settings(max_examples=200)
@given(
    st.sets(st.integers(0, 127), min_size=1, max_size=60),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31),
)
def test_flip_noise_preserves_cardinality(active, fraction, seed):
    s = Sdr(128, active)
    assert flip_noise(s, fraction, seed).cardinality == s.cardinality


class TestFromSorted:
    """``Sdr._from_sorted`` takes indices a layer already holds sorted and
    distinct, and must give exactly the checked constructor's value."""

    @settings(max_examples=200)
    @given(
        st.sets(st.integers(0, 63), max_size=64),
        st.sets(st.integers(0, 63), max_size=64),
        st.sampled_from([np.int64, np.intp, np.int32]),
    )
    def test_equals_checked_sdr(self, active, other, dtype):
        trusted = Sdr._from_sorted(64, np.array(sorted(active), dtype=dtype))
        checked = Sdr(64, active)
        b = Sdr(64, other)
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert all(type(i) is int for i in trusted.active)
        assert [i in trusted for i in range(64)] == [i in checked for i in range(64)]
        assert trusted.active_set == checked.active_set
        assert overlap(trusted, b) == overlap(checked, b) == overlap(b, trusted)
        assert union(trusted, b) == union(checked, b) == union(b, trusted)

    def test_active_set_built_once(self):
        s = Sdr._from_sorted(16, np.array([2, 5]))
        assert s._active_set is None  # nothing built until asked
        first = s.active_set
        assert first == frozenset({2, 5})
        assert 5 in s and 3 not in s
        assert s.active_set is first

    def test_empty(self):
        assert Sdr._from_sorted(8, np.array([], dtype=np.intp)) == Sdr(8)
