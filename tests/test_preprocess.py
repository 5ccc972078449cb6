import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import preprocess
from segcover.core import Cover, Instance, cover_is_feasible, iter_bits, member_arrays
from segcover.io import GeneratorConfig, generate_segmentable
from segcover.preprocess import force, reduce

from conftest import make_instance
from oracles import (
    assert_members_are_the_mask_bits,
    brute_force_min_cover,
    buffered_column,
    member_lists,
    rail_family,
    random_covering_family,
    reference_reduce,
    tie_rich_family,
    to_instance,
)


class TestWorkedInstance:
    def test_exact_reduction(self, twelve):
        report = reduce(twelve)
        assert report.forced == (5,)          # the only coverer of element 12
        assert report.excluded == (6,)        # {1,5} sits inside subset 0
        assert report.covered == 0b1111 << 8
        assert report.residual.n == 8
        assert report.residual.m == 5

    def test_residual_maps(self, twelve):
        report = reduce(twelve)
        assert report.element_to_original == tuple(range(8))
        assert report.subset_to_original == (0, 1, 2, 3, 4)
        # residual subset 0 is subset 0 restricted to the uncovered elements
        assert list(iter_bits(report.residual.masks[0])) == [0, 1, 4, 5]

    def test_lift_restores_feasibility(self, twelve):
        report = reduce(twelve)
        residual_cover = Cover.empty()
        for sid in (0, 1):  # subsets 0 and 1 cover the whole residual
            residual_cover.add(sid, report.residual.masks[sid])
        assert cover_is_feasible(residual_cover, report.residual)
        lifted = report.lift_cover(residual_cover)
        assert cover_is_feasible(lifted, twelve)
        assert sorted(lifted.chosen) == [0, 1, 5]


def test_duplicate_subsets_keep_lowest_id():
    inst = make_instance(3, ((1, 2), (1, 2), (3,)))
    report = reduce(inst)
    assert report.forced == (2,)
    assert report.excluded == (1,)
    assert report.residual.n == 2 and report.residual.m == 1


def test_universal_subset_dominates_strict_subsets():
    # No element is uniquely covered, so nothing is forced; everything the
    # spanning subset contains is dominated away.
    inst = make_instance(4, ((1, 2, 3, 4), (1, 2), (3, 4), (2, 3)))
    report = reduce(inst)
    assert report.forced == ()
    assert report.excluded == (1, 2, 3)
    assert report.residual.m == 1 and report.residual.n == 4


def test_uniquely_covered_element_forces_spanning_subset():
    inst = make_instance(3, ((1, 2, 3), (1, 2)))
    report = reduce(inst)
    assert report.forced == (0,)
    assert report.excluded == (1,)          # empty residual restriction
    assert report.residual.n == 0 and report.residual.m == 0


seeds = st.integers(0, 10_000)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_counting_identities(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 15)))
    report = reduce(inst)
    assert inst.n == report.covered.bit_count() + report.residual.n
    assert inst.m == len(report.forced) + len(report.excluded) + report.residual.m


@given(seeds, st.booleans())
@settings(max_examples=100, deadline=None)
def test_summary_obeys_counting_identities(seed, tie_rich):
    rng = random.Random(seed)
    if tie_rich:
        n, subsets = tie_rich_family(rng)
    else:
        n = rng.randint(1, 30)
        subsets = random_covering_family(rng, n, rng.randint(1, 15))
    inst = to_instance(n, subsets)
    report = reduce(inst)
    summary = report.summary()
    assert summary == {
        "elements": inst.n,
        "covered": report.covered.bit_count(),
        "uncovered": report.residual.n,
        "subsets": inst.m,
        "forced": len(report.forced),
        "excluded": len(report.excluded),
        "remaining": report.residual.m,
    }
    assert summary["elements"] == summary["covered"] + summary["uncovered"]
    assert summary["subsets"] == (
        summary["forced"] + summary["excluded"] + summary["remaining"]
    )


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_forced_subsets_were_unique_coverers(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    subsets = random_covering_family(rng, n, rng.randint(1, 12))
    inst = to_instance(n, subsets)
    report = reduce(inst)
    for sid in report.forced:
        uniquely = any(
            sum(1 for s in subsets if e in s) == 1 and e in subsets[sid]
            for e in range(n)
        )
        assert uniquely


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_solution_lifting(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 12)))
    report = reduce(inst)
    residual_cover = Cover.empty()
    # any feasible residual cover will do; greedily take everything useful
    uncovered = set(range(report.residual.n))
    for sid, b in enumerate(report.residual.masks):
        members = set(iter_bits(b))
        if members & uncovered:
            residual_cover.add(sid, b)
            uncovered -= members
    assert cover_is_feasible(residual_cover, report.residual)
    assert cover_is_feasible(report.lift_cover(residual_cover), inst)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_optimum_preserved_on_small_instances(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    subsets = random_covering_family(rng, n, rng.randint(1, 9))
    inst = to_instance(n, subsets)
    opt, _ = brute_force_min_cover(n, subsets)
    report = reduce(inst)
    residual_sets = [set(iter_bits(b)) for b in report.residual.masks]
    res_opt, _ = brute_force_min_cover(report.residual.n, residual_sets)
    assert opt == len(report.forced) + res_opt


REPORT_FIELDS = (
    "forced", "excluded", "covered", "residual", "element_to_original", "subset_to_original",
)


def assert_same_reduction(inst):
    """``reduce`` gives the reference report, and the residual's member
    arrays hold exactly its masks' bits, as the reference residual's do."""
    report = reduce(inst)
    expected = reference_reduce(inst)
    for field in REPORT_FIELDS:
        assert getattr(report, field) == getattr(expected, field), field
    assert_members_are_the_mask_bits(report.residual)
    assert member_lists(report.residual) == member_lists(expected.residual)


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_matches_reference_reduce(seed):
    assert_same_reduction(to_instance(*tie_rich_family(random.Random(seed))))


@pytest.mark.parametrize("kernel", [preprocess._column, buffered_column], ids=["bitwise", "buffered"])
@given(seeds)
@settings(max_examples=100, deadline=None)
def test_each_column_kernel_matches_reference_reduce(kernel, seed):
    # Dominance's own bitwise kernel, and the '0'/'1' string builder of the
    # oracles in its place: both must give the reference reduction.
    family = rail_family if seed % 2 else tie_rich_family
    with mock.patch.object(preprocess, "_column", kernel):
        assert_same_reduction(to_instance(*family(random.Random(seed))))


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_matches_reference_reduce_on_rail_families(seed):
    # Many more subsets than elements, each of 2 to 10 elements: columns
    # open and close at varied ranks.
    n, subsets = rail_family(random.Random(seed))
    assert_same_reduction(with_members(n, subsets))


@given(seeds, st.floats(0.05, 0.5))
@settings(max_examples=100, deadline=None)
def test_matches_reference_reduce_on_segmentable(seed, density):
    # Every subset's first member is its block's anchor, which the whole
    # block holds, so the stored-order walk's first AND leaves every earlier
    # position in the block; most draws exclude subsets, sparse ones many.
    assert_same_reduction(
        generate_segmentable(GeneratorConfig(n=120, m=200, groups=4, density=density, seed=seed))
    )


@given(seeds, st.booleans())
@settings(max_examples=200, deadline=None)
def test_forcing_sweep_matches_reference_and_keeps_the_optimum(seed, duplicates):
    # The run path's reduction: the reference's forced set and report, no
    # dominance, the optimum split into forced plus residual optimum, and a
    # residual optimum lifted into an optimal cover of the instance.
    rng = random.Random(seed)
    n, subsets = duplicate_rich_family(rng) if duplicates else tie_rich_family(rng, 12, 8)
    inst = to_instance(n, subsets)
    report = force(inst)
    expected = reference_reduce(inst, dominance=False)
    for field in REPORT_FIELDS:
        assert getattr(report, field) == getattr(expected, field), field
    assert_members_are_the_mask_bits(report.residual)

    opt, _ = brute_force_min_cover(n, subsets)
    residual_sets = [set(iter_bits(b)) for b in report.residual.masks]
    res_opt, combo = brute_force_min_cover(report.residual.n, residual_sets)
    assert opt == len(report.forced) + res_opt
    residual_cover = Cover.empty()
    for sid in combo:
        residual_cover.add(sid, report.residual.masks[sid])
    lifted = report.lift_cover(residual_cover)
    assert cover_is_feasible(lifted, inst) and len(lifted) == opt


def test_residual_renumbers_across_scattered_covered_elements():
    # elements 3, 6 and 9 each have one coverer, leaving three uncovered runs
    inst = make_instance(
        9, ((1, 2, 4, 5), (1, 4, 7, 8), (3,), (6,), (9,), (2, 5, 7, 8), (1, 2))
    )
    report = reduce(inst)
    assert report.forced == (2, 3, 4)
    assert report.excluded == (6,)
    assert report.element_to_original == (0, 1, 3, 4, 6, 7)
    assert [list(iter_bits(b)) for b in report.residual.masks] == [
        [0, 1, 2, 3], [0, 2, 4, 5], [1, 3, 4, 5]
    ]
    assert member_lists(report.residual) == [[0, 1, 2, 3], [0, 2, 4, 5], [1, 3, 4, 5]]
    assert report == reference_reduce(inst)


def with_members(n, subsets):
    masks = to_instance(n, subsets).masks
    return Instance(n, masks, member_arrays(sorted(s) for s in subsets))


def duplicate_rich_family(rng):
    """A random covering family in which most subsets appear two or more
    times, some of them next to each other."""
    n = rng.randint(1, 16)
    subsets = random_covering_family(rng, n, rng.randint(1, 6), rng.choice((1, 2, n)))
    for s in list(subsets):
        for _ in range(rng.randint(0, 3)):
            subsets.insert(rng.randrange(len(subsets) + 1), set(s))
    return n, subsets


@given(seeds, st.booleans())
@settings(max_examples=300, deadline=None)
def test_member_lists_give_the_same_reduction(seed, duplicates):
    # Arrays passed with the masks, and arrays the constructor builds from
    # the masks alone, give the reference report.
    rng = random.Random(seed)
    n, subsets = duplicate_rich_family(rng) if duplicates else tie_rich_family(rng)
    inst = with_members(n, subsets)
    built = Instance(n, inst.masks)
    assert member_lists(built) == member_lists(inst)
    report = reduce(inst)
    assert report == reduce(built)
    assert report == reference_reduce(built)


@given(seeds, st.sampled_from(["tie_rich", "duplicates", "rail"]))
@settings(max_examples=300, deadline=None)
def test_residual_carries_member_arrays(seed, kind):
    rng = random.Random(seed)
    family = {"tie_rich": tie_rich_family, "duplicates": duplicate_rich_family, "rail": rail_family}
    n, subsets = family[kind](rng)
    for inst in (with_members(n, subsets), to_instance(n, subsets)):
        residual = reduce(inst).residual
        if residual is not inst:
            assert_members_are_the_mask_bits(residual)


def test_single_pass_reads_members_instead_of_masks():
    # Every element has two coverers, so nothing is forced or covered and
    # no mask needs decomposing.  Subsets are excluded, and the residual
    # holds the kept masks themselves, not shifted copies.
    inst = generate_segmentable(GeneratorConfig(n=60, m=180, groups=3, density=0.3, seed=2))
    expected = reference_reduce(inst)
    assert expected.forced == () and expected.excluded
    with mock.patch.object(preprocess, "iter_bits", side_effect=AssertionError("decomposed")):
        report = reduce(inst)
    assert report == expected
    kept = map(inst.masks.__getitem__, report.subset_to_original)
    assert all(a is b for a, b in zip(report.residual.masks, kept, strict=True))


def test_pickled_instance_drops_members_and_reduces_the_same():
    # The pickle holds n and the masks only; loading builds the arrays again.
    inst = generate_segmentable(GeneratorConfig(n=120, m=200, groups=4, density=0.1, seed=7))
    assert inst.__reduce__() == (Instance, (inst.n, inst.masks))
    loaded = pickle.loads(pickle.dumps(inst))
    assert loaded.members is not inst.members
    assert member_lists(loaded) == member_lists(inst)
    assert loaded == inst
    assert reduce(loaded) == reduce(inst)


def _reduce_peak(inst):
    tracemalloc.start()
    try:
        reduce(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dominance_keeps_only_live_columns():
    # Each of the 32 blocks' columns lives only while the scan is in that
    # block (about 5 MB peak); a scan that never drops a column, each as
    # wide as the rank range above it, peaks near 11 MB.
    inst = generate_segmentable(GeneratorConfig(n=10_000, m=20_000, groups=32, density=0.05, seed=3))
    assert _reduce_peak(inst) < 10_000_000
