import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover.core import Cover, SuccinctSet, cover_is_feasible
from segcover.segmentation import (
    UnionFind,
    find_groups,
    merge_partial_covers,
    segmentation_csv,
)
from segcover.greedy import greedy_solve
from segcover.io import GeneratorConfig, generate_segmentable

from conftest import make_instance
from oracles import bfs_components, random_covering_family, reference_find_groups, to_instance


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
    union = SuccinctSet(inst.n)
    total = 0
    for comp in seg.components:
        assert not union.intersection_count(comp.elements)
        union.union_inplace(comp.elements)
        total += len(comp.subfamily)
    assert union == SuccinctSet.full(inst.n)
    assert total == inst.m


@given(st.integers(0, 100_000))
@settings(max_examples=300, deadline=None)
def test_matches_reference_find_groups(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    subsets = random_covering_family(rng, n, rng.randint(1, 25), max_size=rng.choice((1, 2, 4, n)))
    # Shuffled labels make components that are not runs of consecutive ids.
    labels = rng.sample(range(n), n)
    for family in (subsets, [{labels[e] for e in s} for s in subsets]):
        inst = to_instance(n, family)
        assert find_groups(inst) == reference_find_groups(inst)


@pytest.mark.parametrize("groups", [1, 5, 32])
def test_matches_reference_find_groups_on_generator_blocks(groups):
    inst = generate_segmentable(GeneratorConfig(n=400, m=300, groups=groups, seed=groups))
    seg = find_groups(inst)
    assert seg == reference_find_groups(inst)
    assert len(seg.components) == groups


def test_connected_instance_keeps_its_masks(twelve):
    (comp,) = find_groups(twelve).components
    assert all(a is b for a, b in zip(comp.subinstance.masks, twelve.masks))


@given(st.integers(0, 100_000))
@settings(max_examples=120, deadline=None)
def test_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    subsets = random_covering_family(rng, n, rng.randint(1, 20), max_size=5)
    seg = find_groups(to_instance(n, subsets))
    assert [list(c.element_ids) for c in seg.components] == bfs_components(n, subsets)


def test_path_compression_flattens():
    rng = random.Random(1)
    uf = UnionFind(500)
    for _ in range(400):
        uf.union(rng.randrange(500), rng.randrange(500))
    for x in range(500):
        uf.find(x)
    # after a full find pass every node hangs directly below its root
    for x in range(500):
        assert uf.parent[uf.parent[x]] == uf.parent[x]


def test_merge_two_singleton_components():
    inst = make_instance(3, ((1, 2), (3,)))
    seg = find_groups(inst)
    partials = []
    for comp in seg.components:
        cover = Cover.empty(comp.subinstance.n)
        cover.add(0, comp.subinstance.masks[0])
        partials.append(cover)
    merged = merge_partial_covers(seg, partials)
    assert merged.chosen == [0, 1]
    assert cover_is_feasible(merged, inst)


def test_merge_single_component_is_identity(twelve):
    seg = find_groups(twelve)
    cover = Cover.empty(12)
    for sid in (0, 1, 5):
        cover.add(sid, twelve.masks[sid])
    merged = merge_partial_covers(seg, [cover])
    assert merged.chosen == [0, 1, 5]
    assert cover_is_feasible(merged, twelve)


def test_merge_rejects_infeasible_partial():
    inst = make_instance(3, ((1, 2), (3,)))
    seg = find_groups(inst)
    bad = Cover.empty(2)  # empty partial for the first component
    ok = Cover.empty(1)
    ok.add(0, seg.components[1].subinstance.masks[0])
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


def test_csv_dump():
    inst = make_instance(3, ((1, 2), (3,)))
    dump = segmentation_csv(find_groups(inst))
    assert dump.splitlines() == ["component,n_elements,n_subsets", "0,2,1", "1,1,1"]
