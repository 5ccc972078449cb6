import multiprocessing
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segcover
from segcover import core
from segcover.core import (
    Cover,
    Instance,
    cover_is_feasible,
    index_mask,
    iter_bits,
    lift,
    member_arrays,
    restrict,
)

from conftest import TWELVE_SUBSETS_1BASED, make_instance
from oracles import (
    mask_of,
    member_lists,
    random_covering_family,
    reference_from_indices,
    to_instance,
)


class TestCoverFeasibility:
    def test_optimal_cover(self, twelve):
        cover = Cover.empty()
        for sid in (0, 1, 5):
            cover.add(sid, twelve.masks[sid])
        assert cover_is_feasible(cover, twelve)

    def test_empty_cover(self, twelve):
        assert not cover_is_feasible(Cover.empty(), twelve)

    def test_greedy_cover(self, twelve):
        cover = Cover.empty()
        for sid in (3, 4, 0, 5):
            cover.add(sid, twelve.masks[sid])
        assert cover_is_feasible(cover, twelve)

    def test_unknown_id(self, twelve):
        cover = Cover.empty()
        cover.chosen = [99]
        with pytest.raises(ValueError, match="unknown subset id"):
            cover_is_feasible(cover, twelve)

    def test_elementwise_equivalence(self, twelve):
        rng = random.Random(5)
        for _ in range(50):
            chosen = rng.sample(range(twelve.m), rng.randint(0, twelve.m))
            cover = Cover.empty()
            for sid in chosen:
                cover.add(sid, twelve.masks[sid])
            elementwise = all(
                any(twelve.masks[sid] >> e & 1 for sid in chosen) for e in range(12)
            )
            assert cover_is_feasible(cover, twelve) == elementwise

    def test_reads_chosen_masks_not_the_covers_own(self, twelve):
        # Subset 0 covers 5 of the 12 elements, whatever the cover claims.
        assert not cover_is_feasible(Cover([0], (1 << 12) - 1), twelve)
        assert cover_is_feasible(Cover([0, 1, 5], 0), twelve)


@given(st.integers(min_value=0, max_value=(1 << 300) - 1))
def test_iter_bits_lists_set_positions_ascending(b):
    assert list(iter_bits(b)) == [i for i in range(b.bit_length()) if b >> i & 1]


@given(
    st.integers(1, 600).flatmap(
        lambda cap: st.tuples(
            st.just(cap),
            st.lists(st.integers(0, cap - 1), max_size=40),
            st.integers(0, cap - 1),
        )
    ),
    st.sampled_from((list, tuple, set, iter, lambda xs: (x for x in xs))),
)
@settings(max_examples=300, deadline=None)
def test_from_indices_matches_reference(case, wrap):
    """``index_mask`` from any ``lo`` at or below the indices equals the
    mask OR-ed bit by bit into a universe-wide int."""
    capacity, indices, bound = case
    lo = min(indices + [bound])
    want = reference_from_indices(capacity, indices)
    assert index_mask(wrap(indices), lo) == want


@given(st.integers(0, 10_000), st.sampled_from(["scattered", "run", "inside", "overhanging"]))
@settings(max_examples=400, deadline=None)
def test_restrict_renumbers_kept_elements(seed, shape):
    # "scattered" and "run" restrict a random family.  "inside" restricts a
    # family lying wholly inside a run of ids, which takes the shift path;
    # "overhanging" adds one subset reaching below the run's first id or
    # past its last, which sends the family down the array path.
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    subsets = random_covering_family(rng, n, rng.randint(1, 10))
    element_ids = sorted(rng.sample(range(n), rng.randint(1, n)))
    if shape != "scattered":
        element_ids = list(range(element_ids[0], element_ids[-1] + 1))
    local = {e: j for j, e in enumerate(element_ids)}
    if shape in ("inside", "overhanging"):
        lo, hi = element_ids[0], element_ids[-1]
        run = random_covering_family(rng, len(element_ids), rng.randint(1, 6))
        family = list(range(len(subsets), len(subsets) + len(run)))
        subsets += [{lo + e for e in s} for s in run]
        if shape == "overhanging":
            outside = [e for e in (lo - 1, hi + 1) if 0 <= e < n] or [n]
            n = max(n, outside[-1] + 1)
            family.append(len(subsets))
            subsets.append({rng.choice(outside), rng.randint(lo, hi)})
    else:
        family = [sid for sid, s in enumerate(subsets) if any(e in local for e in s)]
    kept = [sorted(local[e] for e in s if e in local) for s in subsets]
    rng.shuffle(family)
    inst = to_instance(n, subsets)
    # The array path builds one mask per subset with ``index_mask``; the
    # shift path builds none.
    with mock.patch.object(core, "index_mask", wraps=core.index_mask) as built:
        piece = restrict(inst, family, element_ids)
    assert piece.n == len(element_ids)
    assert piece.masks == tuple(mask_of(kept[sid]) for sid in family)
    assert member_lists(piece) == [kept[sid] for sid in family]
    if shape in ("inside", "overhanging"):
        assert built.call_count == (len(family) if shape == "overhanging" else 0)


def test_restrict_starts_the_array_path_afresh_after_a_late_overhang():
    # The first two subsets fit the run 1..2, so the shift pass copies their
    # slices before the last one, reaching down to 0, sends the family down
    # the array path, which must not build on those copies.
    inst = make_instance(4, ((2, 3), (3,), (1, 2), (4,)))
    with mock.patch.object(core, "index_mask", wraps=core.index_mask) as built:
        piece = restrict(inst, [0, 1, 2], [1, 2])
    assert built.call_count == 3
    assert piece.masks == (0b11, 0b10, 0b01)
    assert member_lists(piece) == [[0, 1], [1], [0]]


def test_instance_requires_cover():
    with pytest.raises(ValueError, match="does not cover"):
        Instance(3, [0b001])
    with pytest.raises(ValueError, match="does not cover element 2$"):
        Instance(5, [0b10011, 0b01000])


def test_instance_rejects_empty_subset():
    with pytest.raises(ValueError, match="^subset 1 is empty$"):
        Instance(3, [0b011, 0, 0b100])


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


def test_instance_holds_int_masks_of_succinct_sets(twelve):
    assert all(type(b) is int for b in twelve.masks)
    assert Instance(12, twelve.masks) == twelve
    assert [list(iter_bits(b)) for b in twelve.masks] == [
        [e - 1 for e in s] for s in TWELVE_SUBSETS_1BASED
    ]


def test_instance_member_arrays_are_optional_and_not_compared(twelve):
    # Passing the arrays is optional: without them the constructor builds
    # them from the masks, so every instance has them.
    members = member_arrays(map(iter_bits, twelve.masks))
    inst = Instance(12, twelve.masks, members)
    assert inst.members is members
    want = [sorted(e - 1 for e in s) for s in TWELVE_SUBSETS_1BASED]
    assert member_lists(inst) == member_lists(twelve) == want
    assert inst == twelve
    swapped = Instance(12, twelve.masks, member_arrays(reversed(want)))
    assert swapped == twelve  # trusted, apart from their shape, and not compared
    starts, ids = members
    with pytest.raises(ValueError, match="^member arrays of 7 offsets and 27 ids for 7 subsets$"):
        Instance(12, twelve.masks, (starts[:-1], ids))
    with pytest.raises(ValueError, match="^member arrays of 8 offsets and 26 ids for 7 subsets$"):
        Instance(12, twelve.masks, (starts, ids[:-1]))


def test_coverers_read_from_member_arrays_match_the_masks(twelve):
    expected = [
        [sid for sid, s in enumerate(TWELVE_SUBSETS_1BASED) if e + 1 in s] for e in range(12)
    ]
    with mock.patch.object(core, "iter_bits", side_effect=AssertionError("decomposed")):
        assert twelve.coverers() == expected


class _BadInstance:
    """Pickles as an Instance whose only mask has a bit above its universe."""

    def __reduce__(self):
        return Instance, (2, (0b111,))


def test_instance_pickles_as_masks(twelve):
    data = pickle.dumps(twelve)
    assert pickle.loads(data) == twelve
    bad = pickle.dumps(_BadInstance())
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(pickle.loads, data).result() == twelve
        with pytest.raises(ValueError, match="outside the capacity"):
            pool.submit(pickle.loads, bad).result()


def test_cover_rejects_duplicates(twelve):
    cover = Cover.empty()
    cover.add(0, twelve.masks[0])
    with pytest.raises(ValueError, match="already chosen"):
        cover.add(0, twelve.masks[0])


def test_constructed_and_copied_covers_reject_duplicates(twelve):
    with pytest.raises(ValueError, match="duplicate"):
        Cover([0, 3, 0], 0)
    cover = Cover([0, 3], twelve.masks[0] | twelve.masks[3])
    with pytest.raises(ValueError, match="already chosen"):
        cover.add(3, twelve.masks[3])
    copy = Cover(cover.chosen, cover.covered)
    copy.add(1, twelve.masks[1])
    with pytest.raises(ValueError, match="already chosen"):
        copy.add(0, twelve.masks[0])
    assert (cover.chosen, cover.covered) == ([0, 3], twelve.masks[0] | twelve.masks[3])
    assert 3 in cover and 1 in copy and 1 not in cover
    cover.add(1, twelve.masks[1])
    assert cover.covered == copy.covered


def piece_cover(*local_ids):
    """A piece's cover; ``lift`` reads only its chosen ids."""
    return Cover(list(local_ids), 0)


class TestLift:
    # subsets 0..3 of {0..3}: {0,1}, {2}, {3}, {2,3}
    INST = Instance(4, [0b0011, 0b0100, 0b1000, 0b1100])

    def assert_lifted(self, cover, chosen):
        assert cover.chosen == chosen
        union = 0
        for sid in chosen:
            union |= self.INST.masks[sid]
        assert cover.covered == union

    def test_first_comes_first(self):
        cover = lift(self.INST, [(3, 1)], [piece_cover(0)], first=(0,))
        self.assert_lifted(cover, [0, 3])
        assert cover_is_feasible(cover, self.INST)

    def test_ids_map_through_each_family_in_piece_order(self):
        families = [(2, 1), (0, 3)]
        cover = lift(self.INST, families, [piece_cover(1, 0), piece_cover(1)])
        self.assert_lifted(cover, [1, 2, 3])

    def test_id_chosen_by_two_pieces_appears_once(self):
        families = [(3,), (0, 3)]
        cover = lift(self.INST, families, [piece_cover(0), piece_cover(1, 0)], first=(0,))
        self.assert_lifted(cover, [0, 3])

    def test_no_pieces_gives_first(self):
        self.assert_lifted(lift(self.INST, [], [], first=(2, 1)), [2, 1])
        self.assert_lifted(lift(self.INST, [], []), [])

    def test_pieces_and_families_must_pair_up(self):
        with pytest.raises(ValueError):
            lift(self.INST, [(0,), (1,)], [piece_cover(0)])


def test_public_names_resolve_and_are_sorted():
    names = segcover.__all__
    assert [name for name in names if not hasattr(segcover, name)] == []
    assert names == sorted(set(names))
