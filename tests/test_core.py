import multiprocessing
import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover.core import (
    Cover,
    Instance,
    SuccinctSet,
    cover_is_feasible,
    iter_bits,
    restrict_masks,
)

from conftest import TWELVE_SUBSETS_1BASED
from oracles import reference_from_indices


def bits(n, members_1based):
    return SuccinctSet.from_indices(n, (e - 1 for e in members_1based))


class TestIntersectionCount:
    def test_full_universe_counts_cardinality(self):
        s4 = bits(12, TWELVE_SUBSETS_1BASED[3])
        assert s4.intersection_count(SuccinctSet.full(12)) == 6

    def test_empty_set(self):
        assert SuccinctSet(12).intersection_count(bits(12, (1, 2, 3))) == 0

    def test_partial_overlap(self):
        s1 = bits(12, TWELVE_SUBSETS_1BASED[0])
        u = bits(12, (1, 4, 5, 8, 11, 12))
        assert s1.intersection_count(u) == 2

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError, match="capacity"):
            SuccinctSet(5).intersection_count(SuccinctSet(6))


class TestDifferenceInplace:
    def test_worked_example(self):
        u = SuccinctSet.full(12)
        u.difference_inplace(bits(12, TWELVE_SUBSETS_1BASED[3]))
        assert u == bits(12, (1, 4, 5, 8, 11, 12))

    def test_remove_nothing(self):
        a = bits(10, (1, 3, 7))
        a.difference_inplace(SuccinctSet(10))
        assert a == bits(10, (1, 3, 7))

    def test_self_difference(self):
        a = bits(10, (1, 3, 7))
        a.difference_inplace(a.copy())
        assert not a

    def test_capacity_mismatch(self):
        with pytest.raises(ValueError, match="capacity"):
            SuccinctSet(5).difference_inplace(SuccinctSet(6))


class TestIsSubset:
    def test_contained(self):
        assert bits(12, (1, 5)).is_subset_of(bits(12, TWELVE_SUBSETS_1BASED[0]))

    def test_empty_in_anything(self):
        assert SuccinctSet(12).is_subset_of(bits(12, (4,)))

    def test_not_contained(self):
        s3 = bits(12, TWELVE_SUBSETS_1BASED[2])
        s4 = bits(12, TWELVE_SUBSETS_1BASED[3])
        assert not s3.is_subset_of(s4)


class TestCoverFeasibility:
    def test_optimal_cover(self, twelve):
        cover = Cover.empty(12)
        for sid in (0, 1, 5):
            cover.add(sid, twelve.masks[sid])
        assert cover_is_feasible(cover, twelve)

    def test_empty_cover(self, twelve):
        assert not cover_is_feasible(Cover.empty(12), twelve)

    def test_greedy_cover(self, twelve):
        cover = Cover.empty(12)
        for sid in (3, 4, 0, 5):
            cover.add(sid, twelve.masks[sid])
        assert cover_is_feasible(cover, twelve)

    def test_unknown_id(self, twelve):
        cover = Cover.empty(12)
        cover.chosen = [99]
        with pytest.raises(ValueError, match="unknown subset id"):
            cover_is_feasible(cover, twelve)

    def test_elementwise_equivalence(self, twelve):
        rng = random.Random(5)
        for _ in range(50):
            chosen = rng.sample(range(twelve.m), rng.randint(0, twelve.m))
            cover = Cover.empty(12)
            for sid in chosen:
                cover.add(sid, twelve.masks[sid])
            elementwise = all(
                any(e in twelve.subsets[sid] for sid in chosen) for e in range(12)
            )
            assert cover_is_feasible(cover, twelve) == elementwise


members_strategy = st.integers(min_value=1, max_value=400).flatmap(
    lambda cap: st.tuples(
        st.just(cap),
        st.sets(st.integers(0, cap - 1)),
        st.sets(st.integers(0, cap - 1)),
    )
)


@given(members_strategy)
def test_algebra_matches_python_sets(case):
    cap, xs, ys = case
    a = SuccinctSet.from_indices(cap, xs)
    b = SuccinctSet.from_indices(cap, ys)
    assert set(a.union(b)) == xs | ys
    assert set(a.intersection(b)) == xs & ys
    assert set(a.difference(b)) == xs - ys
    assert a.intersection_count(b) == len(xs & ys)
    assert a.is_subset_of(b) == (xs <= ys)
    assert a.cardinality() == len(xs)


@given(members_strategy)
def test_padding_stays_clear(case):
    cap, xs, ys = case
    a = SuccinctSet.from_indices(cap, xs)
    b = SuccinctSet.from_indices(cap, ys)
    for result in (a.union(b), a.difference(b), a.intersection(b)):
        words = result.words()
        tail_bits = cap - 64 * (len(words) - 1)
        if words:
            assert words[-1] >> tail_bits == 0
        assert sum(w.bit_count() for w in words) == result.cardinality()


def test_words_view_roundtrip():
    s = bits(130, (1, 64, 65, 130))
    words = s.words()
    assert len(words) == 3
    rebuilt = 0
    for i, w in enumerate(words):
        rebuilt |= w << (64 * i)
    assert rebuilt == sum(1 << (e - 1) for e in (1, 64, 65, 130))


def test_iteration_is_ascending():
    s = bits(50, (50, 3, 17, 1))
    assert list(s) == [0, 2, 16, 49]


@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_iter_bits_lists_set_positions_ascending(b):
    assert list(iter_bits(b)) == [i for i in range(b.bit_length()) if b >> i & 1]


def test_from_indices_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside universe"):
        SuccinctSet.from_indices(10, [10])


def _built(build, capacity, indices):
    try:
        return build(capacity, indices)
    except ValueError as exc:
        return str(exc)


@given(
    st.integers(0, 600).flatmap(
        lambda cap: st.tuples(
            st.just(cap),
            st.lists(st.integers(-2, cap + 1) | st.integers(0, max(cap - 1, 0)), max_size=40),
        )
    ),
    st.sampled_from((list, tuple, set, iter, lambda xs: (x for x in xs))),
)
@settings(max_examples=300, deadline=None)
def test_from_indices_matches_reference(case, wrap):
    capacity, indices = case
    want = _built(reference_from_indices, capacity, list(indices))
    if isinstance(want, str) and wrap is set:
        return  # a set's order decides which bad element is reported first
    assert _built(SuccinctSet.from_indices, capacity, wrap(indices)) == want


@given(
    st.integers(0, 600).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, max(n - 1, 0)), max_size=30).map(lambda xs: sorted(set(xs))),
            st.lists(st.integers(0, (1 << n) - 1), max_size=8),
        )
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_restrict_masks_renumbers_kept_elements(case, as_run):
    element_ids, masks = case
    if as_run and element_ids:
        element_ids = list(range(element_ids[0], element_ids[-1] + 1))
    want = [
        sum(1 << j for j, e in enumerate(element_ids) if b >> e & 1) for b in masks
    ]
    assert restrict_masks(masks, element_ids) == want


def test_restrict_masks_keeps_ints_inside_a_run_from_zero():
    masks = [0b1011, 0b0110]
    assert all(a is b for a, b in zip(restrict_masks(masks, range(4)), masks))


def test_instance_requires_cover():
    with pytest.raises(ValueError, match="does not cover"):
        Instance(3, [SuccinctSet.from_indices(3, [0])])
    with pytest.raises(ValueError, match="does not cover element 2$"):
        Instance(5, [SuccinctSet.from_indices(5, [0, 1, 4]), SuccinctSet.from_indices(5, [3])])


def test_instance_rejects_empty_subset():
    with pytest.raises(ValueError, match="empty"):
        Instance(2, [SuccinctSet.from_indices(2, [0, 1]), SuccinctSet(2)])


def test_instance_rejects_negative_mask():
    with pytest.raises(ValueError, match="^subset 1: bit pattern has members outside the capacity$"):
        Instance(2, [0b11, -1])


def test_instance_rejects_empty_mask():
    with pytest.raises(ValueError, match="^subset 1 is empty$"):
        Instance(2, [0b11, 0])


def test_instance_rejects_mask_bit_at_n():
    with pytest.raises(ValueError, match="^subset 0: bit pattern has members outside the capacity$"):
        Instance(2, [0b111])


def test_instance_rejects_mask_family_missing_an_element():
    with pytest.raises(ValueError, match="^family does not cover element 1$"):
        Instance(3, [0b001, 0b100])


def test_instance_rejects_set_of_other_capacity():
    with pytest.raises(ValueError, match="^subset 0 has capacity 3, expected 2$"):
        Instance(2, [SuccinctSet(3, 0b11)])


def test_instance_holds_int_masks_of_succinct_sets(twelve):
    assert all(type(b) is int for b in twelve.masks)
    assert Instance(12, twelve.masks) == twelve
    assert [SuccinctSet(12, b) for b in twelve.masks] == list(twelve.subsets)


class _BadInstance:
    """Pickles as an Instance whose only mask has a bit above its universe."""

    def __reduce__(self):
        return Instance, (2, (0b111,))


def test_instance_pickles_as_masks(twelve):
    data = pickle.dumps(twelve)
    assert pickle.loads(data) == twelve
    assert b"SuccinctSet" not in data
    bad = pickle.dumps(_BadInstance())
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(pickle.loads, data).result() == twelve
        with pytest.raises(ValueError, match="outside the capacity"):
            pool.submit(pickle.loads, bad).result()


def test_cover_rejects_duplicates(twelve):
    cover = Cover.empty(12)
    cover.add(0, twelve.masks[0])
    with pytest.raises(ValueError, match="already chosen"):
        cover.add(0, twelve.masks[0])


def test_constructed_and_copied_covers_reject_duplicates(twelve):
    cover = Cover([0, 3], SuccinctSet(12, twelve.masks[0] | twelve.masks[3]))
    with pytest.raises(ValueError, match="already chosen"):
        cover.add(3, twelve.masks[3])
    copy = cover.copy()
    copy.add(1, twelve.masks[1])
    with pytest.raises(ValueError, match="already chosen"):
        copy.add(0, twelve.masks[0])
    assert cover.chosen == [0, 3]
    assert 3 in cover and 1 in copy and 1 not in cover
    cover.add(1, twelve.masks[1])
