import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover.cli import run_algorithm
from segcover.core import cover_is_feasible, iter_bits
from segcover.mst import Bipartition, build_cograph, mst_bipartition
from segcover.preprocess import reduce

from conftest import make_instance
from oracles import (
    bfs_components,
    brute_force_max_spanning_tree,
    random_covering_family,
    reference_mst_bipartition,
    tie_rich_family,
    to_instance,
)


def graph_from_edges(n, edges):
    """Tiny instance whose co-occurrence graph is exactly the given edges."""
    subsets = []
    for i, j, w in edges:
        for _ in range(w):
            subsets.append({i, j})
    for v in range(n):
        if not any(v in s for s in subsets):
            subsets.append({v})
    return build_cograph(to_instance(n, subsets))


def reduced_cograph_instance(twelve):
    """Uncovered universe of the worked instance, all subsets restricted.

    Dominance-excluded subsets still contribute co-occurrence weight here;
    that is what reproduces the documented cut balance (see test below).
    """
    report = reduce(twelve)
    keep = [e for e in range(12) if not report.covered >> e & 1]
    local = {e: i for i, e in enumerate(keep)}
    subsets = []
    for b in twelve.masks:
        members = {local[e] for e in iter_bits(b) if e in local}
        if members:
            subsets.append(members)
    return to_instance(len(keep), subsets)


class TestBuildCograph:
    def test_reduced_worked_instance_edge_weight(self, twelve):
        g = build_cograph(reduced_cograph_instance(twelve))
        weights = {(i, j): w for i, j, w in g.edges}
        # elements 2 and 3 (1-based) co-occur in two subsets
        assert weights[(1, 2)] == 2

    def test_single_subset_gives_unit_triangle(self):
        inst = make_instance(3, ((1, 2, 3),))
        g = build_cograph(inst)
        assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))

    def test_disjoint_subsets_share_no_edges(self):
        inst = make_instance(4, ((1, 2), (3, 4)))
        g = build_cograph(inst)
        assert g.edges == ((0, 1, 1), (2, 3, 1))

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_weights_match_per_pair_count(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        family = random_covering_family(rng, n, rng.randint(1, 15))
        expected = []
        for i, j in combinations(range(n), 2):
            w = sum(1 for s in family if i in s and j in s)
            if w:
                expected.append((i, j, w))
        assert build_cograph(to_instance(n, family)).edges == tuple(expected)


class TestMstBipartition:
    def test_path_graph_best_cut_by_enumeration(self):
        # path 0-1-2 with weights 2,1: cutting (0,1) leaves sides of internal
        # weight 0 and 1; cutting (1,2) leaves 2 and 0 -- the first wins
        g = graph_from_edges(3, [(0, 1, 2), (1, 2, 1)])
        bip = mst_bipartition(g)
        assert set(bip.tree_edges) == {(0, 1, 2), (1, 2, 1)}
        assert bip.cut_edge == (0, 1, 2)
        assert (bip.weight1, bip.weight2) == (0, 1)
        assert bip.side1.element_ids == (0,)
        assert bip.side2.element_ids == (1, 2)

    def test_equal_star_breaks_ties_lexicographically(self):
        g = graph_from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        bip = mst_bipartition(g)
        assert bip.cut_edge == (0, 1, 1)
        assert bip.side1.element_ids == (0, 2, 3)
        assert bip.side2.element_ids == (1,)
        assert (bip.weight1, bip.weight2) == (2, 0)

    def test_tree_weight_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            # chain guarantees connectivity; sprinkle random extra edges
            edges = [(i, i + 1, rng.randint(1, 9)) for i in range(n - 1)]
            edges += [
                (a, b, rng.randint(1, 9))
                for a, b in combinations(range(n), 2)
                if b - a != 1 and rng.random() < 0.4
            ]
            g = graph_from_edges(n, edges)
            bip = mst_bipartition(g)
            tree_weight = sum(w for _, _, w in bip.tree_edges)
            assert tree_weight == brute_force_max_spanning_tree(n, g.edges)

    def test_sides_are_tree_components_of_the_cut(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(3, 8)
            edges = [(i, i + 1, rng.randint(1, 5)) for i in range(n - 1)]
            edges += [
                (min(a, b), max(a, b), rng.randint(1, 5))
                for a, b in combinations(range(n), 2)
                if abs(a - b) != 1 and rng.random() < 0.3
            ]
            g = graph_from_edges(n, edges)
            bip = mst_bipartition(g)
            adjacency = {v: set() for v in range(n)}
            for i, j, _ in bip.tree_edges:
                if (i, j) != bip.cut_edge[:2]:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
            start = bip.cut_edge[0]
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in adjacency[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            side_with_start = (
                bip.side1 if start in bip.side1.element_ids else bip.side2
            )
            assert seen == set(side_with_start.element_ids)

    def test_disconnected_graph_rejected(self):
        inst = make_instance(4, ((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="disconnected"):
            mst_bipartition(build_cograph(inst))

    def test_single_vertex_rejected(self):
        inst = make_instance(1, ((1,),))
        with pytest.raises(ValueError, match="two elements"):
            mst_bipartition(build_cograph(inst))


@given(st.integers(0, 100_000))
@settings(max_examples=300, deadline=None)
def test_matches_reference_mst_bipartition(seed):
    # Tie-rich families: equal weights exercise Kruskal's and the cut's
    # tie-breaks; disconnected ones and single elements must fail alike.
    n, family = tie_rich_family(random.Random(seed))
    g = build_cograph(to_instance(n, family))
    try:
        expected = reference_mst_bipartition(g)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            mst_bipartition(g)
        assert str(raised.value) == str(exc)
        return
    bip = mst_bipartition(g)
    for field in dataclasses.fields(Bipartition):
        assert getattr(bip, field.name) == getattr(expected, field.name), field.name


def grasp_mst_cover(inst, num_iter, seed):
    """One unreduced ``grasp-mst`` restart: both sides solved, then merged."""
    _, cover = run_algorithm(
        inst, "mst", "grasp-mst", iterations=num_iter, seed=seed, preprocess=False
    )
    return cover


class TestGraspMstSolve:
    def test_reduced_worked_instance_feasible(self, twelve):
        inst = reduced_cograph_instance(twelve)
        cover = grasp_mst_cover(inst, 10, 3)
        assert cover_is_feasible(cover, inst)

    def test_chosen_ids_are_original_ids(self):
        # one subset spans the cut; merged ids must refer to the full family
        inst = make_instance(4, ((1, 2), (2, 3), (3, 4)))
        cover = grasp_mst_cover(inst, 5, 1)
        assert cover_is_feasible(cover, inst)
        assert all(0 <= sid < inst.m for sid in cover.chosen)

    def test_merged_cover_is_one_minimal(self):
        # a subset chosen whole on one side also covers its elements on the
        # other side, where it can make that side's choices redundant
        rng = random.Random(5)
        solved = 0
        while solved < 30:
            n = rng.randint(10, 40)
            family = random_covering_family(rng, n, rng.randint(6, 20), max(3, n // 4))
            if len(bfs_components(n, family)) != 1:
                continue
            inst = to_instance(n, family)
            chosen = grasp_mst_cover(inst, 2, solved).chosen
            for sid in chosen:
                rest = 0
                for other in chosen:
                    if other != sid:
                        rest |= inst.masks[other]
                assert rest != (1 << n) - 1, (solved, sid)
            solved += 1

    def test_deterministic(self, twelve):
        inst = reduced_cograph_instance(twelve)
        assert grasp_mst_cover(inst, 8, 21).chosen == grasp_mst_cover(inst, 8, 21).chosen

    def test_disconnected_instance_directed_to_union_find(self):
        inst = make_instance(3, ((1, 2), (3,)))
        with pytest.raises(ValueError, match="union-find"):
            grasp_mst_cover(inst, 1, 0)
