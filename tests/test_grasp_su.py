import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import grasp
from segcover.core import Cover, cover_is_feasible
from segcover.grasp import GraspParams, grasp_solve
from segcover.grasp_su import (
    SuParams,
    grasp_su_solve,
    rpd,
    rpd_star,
    run_components,
    split,
)
from segcover.greedy import greedy_solve
from segcover.io import GeneratorConfig, generate_segmentable
from segcover.mst import build_cograph, merge_sides, mst_bipartition
from segcover.segmentation import find_groups, merge_partial_covers

from conftest import make_instance
from oracles import reference_rand_construct, reference_remove_redundant_sets


def test_two_component_toy():
    inst = make_instance(3, ((1, 2), (3,)))
    cover = grasp_su_solve(inst, SuParams(grasp=GraspParams(num_iter=5, seed=1)))
    assert sorted(cover.chosen) == [0, 1]
    assert cover_is_feasible(cover, inst)


def test_single_component_matches_sequential_grasp(twelve):
    params = GraspParams(num_iter=30, seed=17)
    sequential = grasp_solve(twelve, params)
    segmented = grasp_su_solve(twelve, SuParams(grasp=params))
    assert segmented.chosen == sequential.chosen


def test_identical_results_for_any_thread_count():
    inst = generate_segmentable(GeneratorConfig(n=400, m=200, groups=8, seed=5))
    covers = [
        grasp_su_solve(inst, SuParams(grasp=GraspParams(num_iter=10, seed=3), threads=t))
        for t in (1, 2, 3)
    ]
    assert covers[0].chosen == covers[1].chosen == covers[2].chosen


def test_phase_times_reported():
    inst = generate_segmentable(GeneratorConfig(n=200, m=100, groups=4, seed=2))
    times = {}
    grasp_su_solve(inst, SuParams(grasp=GraspParams(num_iter=5, seed=1)), phase_times=times)
    assert set(times) == {"segment_ms", "solve_ms", "merge_ms"}
    assert all(v >= 0.0 for v in times.values())


def test_merged_cardinality_is_component_sum_before_pruning():
    inst = generate_segmentable(GeneratorConfig(n=300, m=120, groups=6, seed=8))
    seg = find_groups(inst)
    params = SuParams(grasp=GraspParams(num_iter=5, seed=4))
    partials = run_components([c.subinstance for c in seg.components], params)
    merged = merge_partial_covers(seg, partials)
    assert len(merged) == sum(len(p) for p in partials)


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_matches_reference_pipeline(seed):
    """Same chosen list as the per-candidate construction, per-element prune
    and post-merge prune that segmented GRASP ran before."""
    rng = random.Random(seed)
    k = rng.choice((1, 2, 4))
    cfg = GeneratorConfig(
        n=rng.randint(k, 120), m=rng.randint(k, 50), groups=k, density=0.2, seed=seed
    )
    inst = generate_segmentable(cfg)
    params = SuParams(grasp=GraspParams(num_iter=8, seed=seed))
    with mock.patch.object(grasp, "rand_construct", reference_rand_construct), \
            mock.patch.object(grasp, "remove_redundant_sets", reference_remove_redundant_sets):
        seg = find_groups(inst)
        partials = run_components([c.subinstance for c in seg.components], params)
        old = reference_remove_redundant_sets(merge_partial_covers(seg, partials), inst)
    assert grasp_su_solve(inst, params).chosen == old.chosen


def test_feasible_across_many_random_segmentable_instances():
    rng = random.Random(0)
    for _ in range(40):
        k = rng.choice((2, 4, 8))
        n = rng.randint(k, 300)
        m = rng.randint(k, 60)
        cfg = GeneratorConfig(n=n, m=m, groups=k, density=0.2, seed=rng.randrange(10**9))
        inst = generate_segmentable(cfg)
        cover = grasp_su_solve(inst, SuParams(grasp=GraspParams(num_iter=3, seed=1)))
        assert cover_is_feasible(cover, inst)


class TestSplit:
    @pytest.mark.parametrize("algorithm", ["greedy", "grasp-su"])
    def test_unknown_algorithm_rejected(self, twelve, algorithm):
        with pytest.raises(ValueError, match="no split"):
            split(twelve, algorithm)

    def test_grasp_keeps_the_instance_whole(self, twelve):
        pieces, merge = split(twelve, "grasp")
        assert len(pieces) == 1 and pieces[0] is twelve
        cover = Cover([0, 5], twelve.masks[0] | twelve.masks[5])
        assert merge([cover]) is cover

    def test_grasp_uf_pieces_are_the_components(self):
        inst = generate_segmentable(GeneratorConfig(n=200, m=100, groups=4, seed=2))
        pieces, merge = split(inst, "grasp-uf")
        seg = find_groups(inst)
        assert pieces == [c.subinstance for c in seg.components]
        partials = run_components(pieces, SuParams(grasp=GraspParams(num_iter=3)))
        assert merge(partials).chosen == merge_partial_covers(seg, partials).chosen

    def test_grasp_mst_pieces_are_the_two_sides(self, twelve):
        pieces, merge = split(twelve, "grasp-mst")
        bip = mst_bipartition(build_cograph(twelve))
        assert pieces == [bip.side1.subinstance, bip.side2.subinstance]
        partials = run_components(pieces, SuParams(grasp=GraspParams(num_iter=3)))
        assert merge(partials).chosen == merge_sides(twelve, bip, partials).chosen


class TestDeviationMetrics:
    def test_rpd(self):
        assert rpd(5, 5) == 0.0
        assert rpd(4, 3) == pytest.approx(1 / 3)
        assert rpd(96, 96) == 0.0
        with pytest.raises(ValueError):
            rpd(4, 0)

    def test_rpd_star(self):
        assert rpd_star(3, 4) == 0.25
        assert rpd_star(4, 4) == 0.0
        assert rpd_star(5, 4) == -0.25
        with pytest.raises(ValueError):
            rpd_star(4, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        SuParams(threads=0)


def test_usually_no_worse_than_greedy_on_segmentable_instances():
    rng = random.Random(99)
    wins = 0
    runs = 12
    for _ in range(runs):
        cfg = GeneratorConfig(
            n=rng.randint(200, 500), m=rng.randint(80, 160),
            groups=rng.choice((2, 4, 8)), density=0.08, seed=rng.randrange(10**9),
        )
        inst = generate_segmentable(cfg)
        su = grasp_su_solve(inst, SuParams(grasp=GraspParams(num_iter=60, seed=7)))
        if rpd_star(len(su), len(greedy_solve(inst))) >= 0.0:
            wins += 1
    assert wins >= runs * 0.9
