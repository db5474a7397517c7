import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minicolumn import (
    CategoryEncoder,
    DimensionError,
    PatternLayer,
    PoolingLayer,
    ScalarEncoder,
    Sdr,
    TmLayer,
    flip_noise,
    overlap,
    sdr_overlap_curve,
    sparsity,
    union,
)

import oracle_sdr as oracle


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

    @pytest.mark.parametrize(
        "active, message",
        [
            ([3.7], "must be integer ids, got dtype float64"),
            (["3"], "must be integer ids, got dtype <U1"),
            ([True], "must be integer ids, got dtype bool"),
            (np.array([1.0, 2.0]), "must be integer ids, got dtype float64"),
            (np.array([[1, 2]]), "must be a flat list of ids, got shape"),
            ([[1], [2]], "must be a flat list of ids, got shape"),
            ([2, 10], r"must lie in \[0, 10\), got \[2, 10\]"),
            (np.array([-1, 4], dtype=np.int32), r"must lie in \[0, 10\), got \[-1, 4\]"),
            (np.array([2**63], dtype=np.uint64), r"must lie in \[0, 10\)"),
        ],
    )
    def test_ids_that_are_not_indices_rejected(self, active, message):
        with pytest.raises(ValueError, match=f"active indices {message}"):
            Sdr(10, active)

    @pytest.mark.parametrize(
        "universe_size",
        [
            10.5, True, np.True_, 0, -3, "10", None, float("nan"), float("inf"),
            pytest.param(10**400, id="10**400"),
        ],
    )
    def test_width_that_is_not_a_positive_integer_rejected(self, universe_size):
        with pytest.raises(ValueError, match="universe_size must be a positive integer"):
            Sdr(universe_size)

    @pytest.mark.parametrize("universe_size", [10, 10.0, np.int32(10), np.uint64(10)])
    def test_whole_width_accepted(self, universe_size):
        s = Sdr(universe_size, [3])
        assert type(s.universe_size) is int and s == Sdr(10, [3])

    @pytest.mark.parametrize("bits", [np.zeros((2, 3), dtype=bool), np.array(True)])
    def test_dense_input_that_is_not_flat_rejected(self, bits):
        with pytest.raises(ValueError, match="dense bits must be 1-D"):
            Sdr.from_dense(bits)

    def test_ids_are_read_only_int64(self):
        supplied = np.array([4, 1], dtype=np.int64)
        s = Sdr(8, supplied)
        assert s.ids.dtype == np.int64 and not s.ids.flags.writeable
        assert supplied.flags.writeable  # the constructor copies
        with pytest.raises(ValueError):
            s.ids[0] = 5


def _copy_by_pickle(value):
    return pickle.loads(pickle.dumps(value))


def _l4(**wrong):
    """A step of a 64-cell transition layer, with the fields ``wrong`` replaced."""
    output = TmLayer(64, 16, 4, n_active=2, seed=0).step(Sdr(64, range(8)))
    return dataclasses.replace(output, **wrong)


def _category_encoder():
    enc = CategoryEncoder(64, 4)
    enc.encode("A")
    return enc


# Each consumer of an Sdr, given one of the wrong width, and the message it
# raises: the name of the argument, both widths, and what the right one is.
PATTERN, TM = PatternLayer(64, 32, n_active=2), TmLayer(64, 32, 4, n_active=2)
POOL = PoolingLayer(64, 32, n_active=2)
WIDTH_CHECKS = {
    "raw_overlaps": (
        lambda: PATTERN.raw_overlaps(Sdr(63)), "input width 63 != layer width 64"),
    "compute_sdr": (
        lambda: PATTERN.compute_sdr(Sdr(63)), "input width 63 != layer width 64"),
    "learn input": (
        lambda: PATTERN.learn(Sdr(63), Sdr(32)), "input width 63 != layer width 64"),
    "learn winners": (
        lambda: PATTERN.learn(Sdr(64), Sdr(31)), "winners width 31 != layer size 32"),
    "reconstruct": (
        lambda: PATTERN.reconstruct(Sdr(31)), "winners width 31 != layer size 32"),
    "masked_reconstruct input": (
        lambda: PATTERN.masked_reconstruct(Sdr(32), Sdr(63)), "input width 63 != layer width 64"),
    "masked_reconstruct winners": (
        lambda: PATTERN.masked_reconstruct(Sdr(31), Sdr(64)), "winners width 31 != layer size 32"),
    "step": (lambda: TM.step(Sdr(63)), "input width 63 != layer width 64"),
    "predictive_potential": (
        lambda: TM.predictive_potential(0, Sdr(127)), "activity width 127 != layer cells 128"),
    "depolarisation_rates": (
        lambda: TM.depolarisation_rates(Sdr(64), Sdr(127)),
        "activity width 127 != layer cells 128"),
    "tp_step active": (
        lambda: POOL.tp_step(_l4(active_cells=Sdr(63))),
        "input width 63 != layer width 64"),
    "tp_step predicted": (
        lambda: POOL.tp_step(_l4(predicted_cells=Sdr(32))),
        "predicted cells width 32 != layer width 64"),
    "tp_learn winners": (
        lambda: POOL.tp_learn(_l4(), Sdr(31)),
        "winners width 31 != layer size 32"),
    "tp_learn predicted": (
        lambda: POOL.tp_learn(_l4(predicted_cells=Sdr(32)), Sdr(32)),
        "predicted cells width 32 != layer width 64"),
    "CategoryEncoder.best_match": (
        lambda: _category_encoder().best_match(Sdr(63)), "probe width 63 != encoder width 64"),
    "ScalarEncoder.best_match": (
        lambda: ScalarEncoder(0, 10, 64, 4).best_match(Sdr(63), [1.0]),
        "probe width 63 != encoder width 64"),
    "sdr_overlap_curve": (
        lambda: sdr_overlap_curve(Sdr(64, [1]), [Sdr(64, [1]), Sdr(63)]),
        "probe width 63 != reference width 64"),
}


@pytest.mark.parametrize("call, message", WIDTH_CHECKS.values(), ids=WIDTH_CHECKS.keys())
def test_width_mismatch_names_both_widths(call, message):
    with pytest.raises(DimensionError) as excinfo:
        call()
    assert str(excinfo.value) == message


class TestCopies:
    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, _copy_by_pickle])
    def test_copies_keep_ids_read_only(self, copy_of):
        for s in (Sdr(16, [9, 2]), Sdr._from_sorted(16, np.array([2, 9])), Sdr(16)):
            c = copy_of(s)
            assert c == s and hash(c) == hash(s) and repr(c) == repr(s)
            assert c.ids.dtype == np.int64 and not c.ids.flags.writeable

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, _copy_by_pickle])
    def test_copied_layer_keeps_ids_read_only(self, copy_of):
        enc = CategoryEncoder(64, 4, rng_seed=0)
        layer = TmLayer(64, 16, 4, n_active=4, n_synapses=16, seed=0)
        for token in "ABCDABCD":
            layer.step(enc.encode(token))
        c = copy_of(layer)
        for name in ("_prev_active", "_prev_winners"):
            original, copied = getattr(layer, name), getattr(c, name)
            assert copied == original and len(copied) > 0
            assert not copied.ids.flags.writeable
        assert c.step(enc.encode("A")) == layer.step(enc.encode("A"))


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

    def test_empty(self):
        assert Sdr._from_sorted(8, np.array([], dtype=np.intp)) == Sdr(8)

    def test_keeps_an_int64_array_and_makes_it_read_only(self):
        ids = np.array([2, 5], dtype=np.int64)
        assert Sdr._from_sorted(8, ids).ids is ids
        assert not ids.flags.writeable


# Every way to build an Sdr, each with the tuple-based reference's value.
ROUTES = (
    "list", "set", "range", "int32", "int64",
    "sorted intp", "sorted int32", "sorted int64",
    "from_dense", "union", "flip_noise",
)


@st.composite
def built(draw, universe: int):
    """An ``(Sdr, oracle.TupleSdr)`` pair built by one route from one draw."""
    ids = draw(st.sets(st.integers(0, universe - 1), max_size=universe))
    shuffled = draw(st.permutations(sorted(ids)))
    route = draw(st.sampled_from(ROUTES))
    ref = oracle.TupleSdr(universe, ids)
    if route == "list":
        return Sdr(universe, shuffled), ref
    if route == "set":
        return Sdr(universe, ids), ref
    if route == "range":
        start = draw(st.integers(0, universe))
        stop = draw(st.integers(start, universe))
        return Sdr(universe, range(start, stop)), oracle.TupleSdr(universe, range(start, stop))
    if route in ("int32", "int64"):
        return Sdr(universe, np.array(shuffled, dtype=route)), ref
    if route.startswith("sorted"):
        dtype = {"intp": np.intp, "int32": np.int32, "int64": np.int64}[route.split()[1]]
        return Sdr._from_sorted(universe, np.array(sorted(ids), dtype=dtype)), ref
    if route == "from_dense":
        bits = ref.dense()
        return Sdr.from_dense(bits), oracle.from_dense(bits)
    if route == "union":
        other = draw(st.sets(st.integers(0, universe - 1), max_size=universe))
        return (
            union(Sdr(universe, ids), Sdr(universe, other)),
            oracle.union(ref, oracle.TupleSdr(universe, other)),
        )
    fraction = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return flip_noise(Sdr(universe, ids), fraction, seed), oracle.flip_noise(ref, fraction, seed)


def assert_matches(s: Sdr, ref: oracle.TupleSdr) -> None:
    universe = ref.universe_size
    assert s.universe_size == universe
    assert s.ids.dtype == np.int64 and not s.ids.flags.writeable
    assert s.active == ref.active and all(type(i) is int for i in s.active)
    assert len(s) == s.cardinality == len(ref)
    assert list(s) == list(ref) and all(type(i) is int for i in s)
    probes = [*range(-1, universe + 1)]
    probes += [i + 0.0 for i in probes] + [i + 0.5 for i in probes] + [str(i) for i in probes]
    assert [p in s for p in probes] == [p in ref for p in probes]
    assert hash(s) == hash(ref) and repr(s) == repr(ref)
    dense = s.dense()
    assert dense.dtype == bool and np.array_equal(dense, ref.dense())
    assert s.active_set == ref.active_set


@settings(max_examples=400)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(built(n), built(n))))
def test_matches_tuple_reference(pairs):
    (a, ref_a), (b, ref_b) = pairs
    assert_matches(a, ref_a)
    assert_matches(b, ref_b)
    assert (a == b) == (ref_a == ref_b) == (b == a)
    # Equal values hash equal whatever route built them.
    checked = Sdr(a.universe_size, ref_a.active)
    assert a == checked and hash(a) == hash(checked)
    assert overlap(a, b) == oracle.overlap(ref_a, ref_b)
    assert type(overlap(a, b)) is int
    assert_matches(union(a, b), oracle.union(ref_a, ref_b))
