import random

from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import cli
from segcover.core import cover_is_feasible, iter_bits
from segcover.greedy import greedy_solve, interleave
from segcover.io import GeneratorConfig, generate_segmentable
from segcover.preprocess import force
from segcover.segmentation import find_groups

from conftest import make_instance
from oracles import (
    brute_force_min_cover,
    harmonic,
    multi_component_family,
    random_covering_family,
    reference_greedy,
    tie_rich_family,
    to_instance,
)


def test_worked_instance_pick_order(twelve):
    cover = greedy_solve(twelve)
    assert cover.chosen == [3, 4, 0, 5]
    assert cover_is_feasible(cover, twelve)


def test_spanning_subset_wins_immediately():
    inst = make_instance(4, ((1, 2, 3, 4), (1, 2)))
    assert greedy_solve(inst).chosen == [0]


def test_disjoint_singletons_need_everything():
    inst = make_instance(3, ((1,), (2,), (3,)))
    assert greedy_solve(inst).chosen == [0, 1, 2]


def test_ties_break_to_lowest_id():
    # all three gains start at 2; id 0 goes first, then id 1 beats its copy id 2
    inst = make_instance(4, ((3, 4), (1, 2), (1, 2)))
    assert greedy_solve(inst).chosen == [0, 1]


def test_stale_bound_is_rechecked_before_pick():
    # id 0 (size 3) loses two elements to id 1's pick; id 2 (gain 2) must then
    # beat it, though id 0's size-based bound still ranks it above id 2
    inst = make_instance(6, ((1, 2, 5), (1, 2, 3, 4), (5, 6)))
    assert greedy_solve(inst).chosen == [1, 2]


def test_deterministic(twelve):
    assert greedy_solve(twelve).chosen == greedy_solve(twelve).chosen


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_every_pick_has_positive_gain(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 15)))
    cover = greedy_solve(inst)
    assert cover_is_feasible(cover, inst)
    uncovered = set(range(inst.n))
    for sid in cover.chosen:
        members = set(iter_bits(inst.masks[sid]))
        assert members & uncovered
        uncovered -= members


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_harmonic_approximation_bound(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    subsets = random_covering_family(rng, n, rng.randint(1, 10))
    inst = to_instance(n, subsets)
    opt, _ = brute_force_min_cover(n, subsets)
    bound = harmonic(max(len(s) for s in subsets)) * opt
    assert len(greedy_solve(inst)) <= bound + 1e-9


@given(st.integers(0, 100_000))
@settings(max_examples=300, deadline=None)
def test_matches_full_rescan_greedy(seed):
    inst = to_instance(*tie_rich_family(random.Random(seed)))
    assert greedy_solve(inst).chosen == reference_greedy(inst).chosen


def test_matches_full_rescan_greedy_on_segmentable():
    inst = generate_segmentable(GeneratorConfig(n=120, m=200, groups=4, density=0.1, seed=7))
    assert greedy_solve(inst).chosen == reference_greedy(inst).chosen


@given(st.integers(0, 100_000), st.sampled_from(["multi", "tie_rich"]))
@settings(max_examples=300, deadline=None)
def test_interleaved_piece_greedy_is_whole_greedy(seed, kind):
    """Greedy on each component, picks ordered by (gain at pick time
    descending, id), is whole-instance greedy: on the raw instance, on the
    forcing sweep's residual, and through ``run_algorithm``, which reduces
    by that sweep."""
    rng = random.Random(seed)
    n, subsets = multi_component_family(rng) if kind == "multi" else tie_rich_family(rng)
    inst = to_instance(n, subsets)
    report = force(inst)
    for work in (inst, report.residual):
        seg = find_groups(work)
        pieces = [greedy_solve(c.subinstance) for c in seg.components]
        expected = reference_greedy(work).chosen
        assert interleave(seg, pieces).chosen == greedy_solve(work).chosen == expected
    _, cover = cli.run_algorithm(inst, "g", "greedy")
    assert cover.chosen == report.lift_cover(reference_greedy(report.residual)).chosen
    _, cover = cli.run_algorithm(inst, "g", "greedy", preprocess=False)
    assert cover.chosen == reference_greedy(inst).chosen
