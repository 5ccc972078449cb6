import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import core
from segcover.core import Cover, cover_is_feasible
from segcover.segmentation import find_groups, merge_partial_covers
from segcover.greedy import greedy_solve
from segcover.io import GeneratorConfig, generate_segmentable

from conftest import make_instance
from oracles import (
    assert_members_are_the_mask_bits,
    bfs_components,
    member_lists,
    random_covering_family,
    reference_find_groups,
    to_instance,
)


def test_worked_instance_is_one_component(twelve):
    seg = find_groups(twelve)
    assert len(seg.components) == 1
    assert seg.components[0].element_ids == tuple(range(12))
    assert seg.components[0].subfamily == tuple(range(7))


def test_disjoint_subsets_split():
    inst = make_instance(3, ((1, 2), (3,)))
    seg = find_groups(inst)
    assert len(seg.components) == 2
    assert seg.components[0].element_ids == (0, 1)
    assert seg.components[0].subfamily == (0,)
    assert seg.components[1].element_ids == (2,)
    assert seg.components[1].subfamily == (1,)


def test_components_partition_universe():
    rng = random.Random(3)
    inst = to_instance(40, random_covering_family(rng, 40, 15, max_size=4))
    seg = find_groups(inst)
    elements = []
    total = 0
    for comp in seg.components:
        elements += comp.element_ids
        total += len(comp.subfamily)
    assert sorted(elements) == list(range(inst.n))
    assert total == inst.m


def assert_matches_reference(inst):
    """find_groups gives the reference split, and every subinstance's member
    arrays hold exactly its masks' bits, as the reference subinstance's do."""
    seg = find_groups(inst)
    expected = reference_find_groups(inst)
    assert seg == expected
    for comp, ref in zip(seg.components, expected.components):
        assert_members_are_the_mask_bits(comp.subinstance)
        assert member_lists(comp.subinstance) == member_lists(ref.subinstance)
    return seg


@given(st.integers(0, 100_000))
@settings(max_examples=300, deadline=None)
def test_matches_reference_find_groups(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    subsets = random_covering_family(rng, n, rng.randint(1, 25), max_size=rng.choice((1, 2, 4, n)))
    # Shuffled labels make components that are not runs of consecutive ids.
    labels = rng.sample(range(n), n)
    for family in (subsets, [{labels[e] for e in s} for s in subsets]):
        assert_matches_reference(to_instance(n, family))


@pytest.mark.parametrize("groups", [1, 5, 32])
def test_matches_reference_find_groups_on_generator_blocks(groups):
    inst = generate_segmentable(GeneratorConfig(n=400, m=300, groups=groups, seed=groups))
    assert len(assert_matches_reference(inst).components) == groups


def _many_small_subsets(rng):
    """A family with m >> n: many subsets of one to three elements inside a
    few components, each component opened by a bridge.

    In a component with sorted elements g, ``{g0, g4}`` and ``{g1, g3}``
    come first, so the bridge ``{g3, g4}`` finds its lowest element under
    the root g1 and its other one under g0: the set with the higher root
    joins the other.  The subsets after it mostly lie in one set already.
    """
    n = rng.randint(5, 80)
    labels = rng.sample(range(n), n) if rng.random() < 0.5 else list(range(n))
    k = rng.randint(1, max(1, n // 5))
    groups = [sorted(labels[i::k]) for i in range(k)]
    subsets = []
    for g in groups:
        if len(g) >= 5:
            subsets += [{g[0], g[4]}, {g[1], g[3]}, {g[3], g[4]}]
    small = []
    for g in groups:
        for _ in range(rng.randint(3 * len(g), 8 * len(g))):
            small.append(set(rng.sample(g, min(len(g), rng.randint(1, 3)))))
        small += [{e} for e in g]
    rng.shuffle(small)
    return n, subsets + small


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_matches_reference_find_groups_on_many_small_subsets(seed):
    n, subsets = _many_small_subsets(random.Random(seed))
    assert_matches_reference(to_instance(n, subsets))


def _chain(rng, g):
    """Shuffled pairs of consecutive ``g`` entries, plus ``{g[0]}``: a
    family that connects ``g`` and covers it."""
    pairs = [{a, b} for a, b in zip(g, g[1:])] + [{g[0]}]
    rng.shuffle(pairs)
    return pairs


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_early_exit_matches_reference_find_groups(seed):
    """The scan stops once element 0's set holds every element.  A family
    that connects within its first subsets, one that only its last subset
    connects and the same family without that subset all give the
    reference split."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    labels = rng.sample(range(n), n)
    cut = rng.randint(1, n - 1)
    sides = (labels[:cut], labels[cut:])
    apart = []
    for g in sides:
        apart += _chain(rng, g)
        apart += [set(rng.sample(g, rng.randint(1, len(g)))) for _ in range(rng.randint(0, 8))]
    rng.shuffle(apart)
    bridge = {rng.choice(sides[0]), rng.choice(sides[1])}
    cases = {"early": _chain(rng, labels) + apart, "late": apart + [bridge], "apart": apart}
    for name, family in cases.items():
        seg = assert_matches_reference(to_instance(n, family))
        assert len(seg.components) == (2 if name == "apart" else 1), name


def test_connected_instance_is_its_own_subinstance(twelve):
    (comp,) = find_groups(twelve).components
    assert comp.subinstance is twelve
    inst = generate_segmentable(GeneratorConfig(n=300, m=200, groups=1, seed=4))
    assert find_groups(inst).components[0].subinstance is inst


def test_connected_instance_keeps_its_masks(twelve):
    (comp,) = find_groups(twelve).components
    assert all(a is b for a, b in zip(comp.subinstance.masks, twelve.masks))


def test_consecutive_components_are_shifted_and_others_restricted():
    # Generator blocks are runs of consecutive ids: their subinstances take
    # one shift per mask and a slice of the arrays, and build or decompose
    # no mask.  Interleaved components are restricted through their member
    # arrays, which build one mask per subset.
    inst = generate_segmentable(GeneratorConfig(n=400, m=300, groups=8, seed=5))
    with mock.patch.object(core, "index_mask", side_effect=AssertionError("built")), \
            mock.patch.object(core, "iter_bits", side_effect=AssertionError("decomposed")):
        seg = find_groups(inst)
    assert len(seg.components) == 8
    interleaved = make_instance(4, ((1, 3), (2, 4), (3,)))
    with mock.patch.object(core, "index_mask", wraps=core.index_mask) as built:
        seg = find_groups(interleaved)
    assert [c.element_ids for c in seg.components] == [(0, 2), (1, 3)]
    assert built.call_count == 3
    assert [c.subinstance.masks for c in seg.components] == [(0b11, 0b10), (0b11,)]
    assert [member_lists(c.subinstance) for c in seg.components] == [[[0, 1], [1]], [[0, 1]]]


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    subsets = random_covering_family(rng, n, rng.randint(1, 20), max_size=5)
    seg = find_groups(to_instance(n, subsets))
    assert [list(c.element_ids) for c in seg.components] == bfs_components(n, subsets)


def test_merge_two_singleton_components():
    inst = make_instance(3, ((1, 2), (3,)))
    seg = find_groups(inst)
    partials = []
    for comp in seg.components:
        cover = Cover.empty()
        cover.add(0, comp.subinstance.masks[0])
        partials.append(cover)
    merged = merge_partial_covers(seg, partials)
    assert merged.chosen == [0, 1]
    assert cover_is_feasible(merged, inst)


def test_merge_single_component_is_identity(twelve):
    seg = find_groups(twelve)
    cover = Cover.empty()
    for sid in (0, 1, 5):
        cover.add(sid, twelve.masks[sid])
    merged = merge_partial_covers(seg, [cover])
    assert merged.chosen == [0, 1, 5]
    assert cover_is_feasible(merged, twelve)


def test_merge_rejects_infeasible_partial():
    inst = make_instance(3, ((1, 2), (3,)))
    seg = find_groups(inst)
    bad = Cover.empty()  # empty partial for the first component
    ok = Cover.empty()
    ok.add(0, seg.components[1].subinstance.masks[0])
    with pytest.raises(ValueError, match="component 0"):
        merge_partial_covers(seg, [bad, ok])


def test_merge_rejects_partial_whose_own_mask_claims_too_much():
    # component 0 is {1, 2} with subsets {1, 2} and {1}: subset 1 alone
    # leaves element 2 uncovered, whatever the partial's mask says
    inst = make_instance(3, ((1, 2), (1,), (3,)))
    seg = find_groups(inst)
    bad = Cover([1], 0b11)
    ok = Cover([0], 0b1)
    with pytest.raises(ValueError, match="component 0"):
        merge_partial_covers(seg, [bad, ok])


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_merged_greedy_partials_always_feasible(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 50)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(2, 15), max_size=4))
    seg = find_groups(inst)
    partials = [greedy_solve(c.subinstance) for c in seg.components]
    assert cover_is_feasible(merge_partial_covers(seg, partials), inst)

