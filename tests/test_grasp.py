import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import grasp
from segcover.core import Cover, Instance, cover_is_feasible
from segcover.grasp import (
    EVAL_FUNCTIONS,
    WEIGHT_EPSILON,
    GraspParams,
    create_row_map,
    grasp_solve,
    rand_construct,
    remove_redundant_sets,
    remove_sets,
)

from conftest import make_instance
from oracles import (
    random_covering_family,
    reference_rand_construct,
    reference_remove_redundant_sets,
    tie_rich_family,
    to_instance,
)

INVERSE, INVERSE_SQRT, INVERSE_LOG, INVERSE_SQUARE = EVAL_FUNCTIONS


class TestEvalFunctions:
    def test_tags(self):
        assert [f.tag for f in EVAL_FUNCTIONS] == [
            "inverse", "inverse-sqrt", "inverse-log", "inverse-square",
        ]

    def test_values(self):
        assert INVERSE(4) == 0.25
        assert INVERSE_SQRT(4) == 0.5
        assert INVERSE_LOG(1) == pytest.approx(1 / math.log(2))
        assert INVERSE_SQUARE(3) == pytest.approx(1 / 9)

    @pytest.mark.parametrize("f", EVAL_FUNCTIONS)
    def test_strictly_decreasing(self, f):
        values = [f(c) for c in range(1, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRowMap:
    def test_degree_one_element_sorts_first(self, twelve):
        rowmap = create_row_map(twelve)
        element, degree, coverer_ids = rowmap.entries[0]
        assert element == 11 and degree == 1 and coverer_ids == (5,)

    def test_spanning_single_subset_gives_all_degree_one(self):
        inst = make_instance(4, ((1, 2, 3, 4),))
        rowmap = create_row_map(inst)
        assert [entry[1] for entry in rowmap.entries] == [1, 1, 1, 1]
        assert [entry[0] for entry in rowmap.entries] == [0, 1, 2, 3]

    def test_element_in_every_subset_sorts_last(self):
        inst = make_instance(3, ((1, 2), (1, 3), (1, 2, 3)))
        rowmap = create_row_map(inst)
        assert rowmap.entries[-1] == (0, 3, (0, 1, 2))

    def test_entries_cover_exactly_the_universe(self, twelve):
        rowmap = create_row_map(twelve)
        assert sorted(entry[0] for entry in rowmap.entries) == list(range(12))

    def test_score_tables_hold_clamped_weights(self, twelve):
        rowmap = create_row_map(twelve)
        assert rowmap.max_size == 6
        tables = rowmap.score_tables(EVAL_FUNCTIONS)
        assert rowmap.score_tables(EVAL_FUNCTIONS) is tables
        assert len(tables) == len(EVAL_FUNCTIONS)
        for f, weights in zip(EVAL_FUNCTIONS, tables):
            assert weights == [None] + [max(WEIGHT_EPSILON, 1.0 - f(c)) for c in range(1, 7)]
        assert tables[0][1] == WEIGHT_EPSILON  # 1 - inverse(1) = 0 clamps

    @pytest.mark.parametrize("fn", [lambda c: 0.5, lambda c: c, lambda c: 1.0 / min(c, 3)])
    def test_score_tables_reject_a_function_not_strictly_decreasing(self, twelve, fn):
        # max_size is 6, so a function flat from 3 on fails too
        rowmap = create_row_map(twelve)
        f = grasp.EvalFunction("flat", fn)
        with pytest.raises(ValueError, match="'flat' is not strictly decreasing"):
            rowmap.score_tables((INVERSE, f))
        with pytest.raises(ValueError, match="'flat'"):
            rand_construct(Cover.empty(), (1 << 12) - 1, rowmap, True, random.Random(), (f,))

    def test_score_tables_check_only_counts_up_to_max_size(self):
        # 1 / min(c, 3) is strictly decreasing over 1..2
        rowmap = create_row_map(make_instance(3, ((1, 2), (2, 3))))
        f = grasp.EvalFunction("flat-from-3", lambda c: 1.0 / min(c, 3))
        assert len(rowmap.score_tables((f,))) == 1


def _first_pick(inst, hub, f, improve, rng):
    """The subset ``rand_construct`` picks first when element ``hub`` heads
    the row map, scoring with ``f`` alone."""
    rowmap = create_row_map(inst)
    entries = sorted(rowmap.entries, key=lambda entry: entry[0] != hub)
    rowmap = replace(rowmap, entries=tuple(entries))
    cover = rand_construct(
        Cover.empty(), (1 << inst.n) - 1, rowmap, improve, rng, (f,)
    )
    return cover.chosen[0]


def _hub_instance(counts):
    """Element 0 lies in every subset; subset i covers ``counts[i]`` elements."""
    n = 1 + sum(c - 1 for c in counts)
    subsets = []
    start = 1
    for c in counts:
        subsets.append(sum(1 << e for e in [0, *range(start, start + c - 1)]))
        start += c - 1
    return Instance(n, subsets)


class TestFindBestCandidate:
    """The pick ``rand_construct`` makes among the coverers of one element."""

    def test_improve_picks_largest_coverage(self):
        inst = _hub_instance([6, 3, 2])
        assert _first_pick(inst, 0, INVERSE, True, random.Random(0)) == 0

    def test_single_candidate_any_mode(self):
        inst = make_instance(4, ((2, 3), (3, 4), (2, 4), (2,), (3,), (4,), (2, 3, 4), (1,)))
        for improve in (True, False):
            assert _first_pick(inst, 0, INVERSE_LOG, improve, random.Random(3)) == 7

    def test_clamped_weights_draw_uniformly(self):
        # both counts are 1, inverse-log(1) = 1/ln 2 > 1, so both weights clamp
        inst = make_instance(1, ((1,), (1,)))
        assert INVERSE_LOG(1) > 1.0
        picks = {
            _first_pick(inst, 0, INVERSE_LOG, False, random.Random(seed))
            for seed in range(40)
        }
        assert picks == {0, 1}

    def test_empty_candidates_rejected(self, twelve):
        rowmap = create_row_map(twelve)
        element, degree, _ = rowmap.entries[0]
        rowmap = replace(rowmap, entries=((element, degree, ()),) + rowmap.entries[1:])
        with pytest.raises(RuntimeError, match="no subset covers element"):
            rand_construct(Cover.empty(), (1 << 12) - 1, rowmap, True, random.Random())

    def test_row_map_missing_an_uncovered_element_rejected(self, twelve):
        rowmap = create_row_map(twelve)
        assert rowmap.entries[0] == (11, 1, (5,))
        rowmap = replace(rowmap, entries=rowmap.entries[1:])
        # element 0's coverers, subsets 0 and 6, leave element 11 for last
        for uncovered in (1 << 11, 1 << 11 | 1):
            with pytest.raises(RuntimeError, match="^uncovered elements missing from the row map$"):
                rand_construct(Cover.empty(), uncovered, rowmap, True, random.Random())

    def test_candidate_missing_uncovered_rejected(self, twelve):
        rowmap = create_row_map(twelve)
        assert rowmap.entries[0] == (11, 1, (5,))
        rowmap = replace(rowmap, entries=((11, 1, (0,)),) + rowmap.entries[1:])
        with pytest.raises(ValueError, match="subset 0 covers nothing"):
            rand_construct(Cover.empty(), 1 << 11, rowmap, True, random.Random())

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=8))
    def test_improve_mode_equals_max_coverage_pick(self, counts):
        # under any strictly decreasing score, argmin f == argmax coverage
        inst = _hub_instance(counts)
        expected = max(range(len(counts)), key=lambda sid: (counts[sid], -sid))
        for f in EVAL_FUNCTIONS:
            assert _first_pick(inst, 0, f, True, random.Random(0)) == expected


def _family(seed):
    """A random covering family, every other seed a tie-rich one."""
    rng = random.Random(seed)
    if seed % 2:
        n, subsets = tie_rich_family(rng)
    else:
        n = rng.randint(1, 30)
        subsets = random_covering_family(rng, n, rng.randint(1, 12))
    return rng, to_instance(n, subsets)


class TestMatchesReference:
    """The table-scored construction and the suffix-OR prune return what the
    per-candidate and per-element implementations they replaced return."""

    @given(st.integers(0, 100_000), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_rand_construct(self, seed, improve):
        rng, inst = _family(seed)
        rowmap = create_row_map(inst)
        partial = [sid for sid in range(inst.m) if rng.random() < 0.3]
        covered = 0
        for sid in partial:
            covered |= inst.masks[sid]
        uncovered = ((1 << inst.n) - 1) & ~covered
        results = []
        for construct in (rand_construct, reference_rand_construct):
            draws = random.Random(seed)
            cover = construct(Cover(partial, covered), uncovered, rowmap, improve, draws)
            results.append((cover.chosen, cover.covered, draws.getstate()))
        assert results[0] == results[1]

    @given(st.integers(0, 100_000))
    @settings(max_examples=300, deadline=None)
    def test_remove_redundant_sets(self, seed):
        rng, inst = _family(seed)
        order = list(range(inst.m))
        rng.shuffle(order)
        cover = Cover(order, (1 << inst.n) - 1)
        new = remove_redundant_sets(cover, inst)
        old = reference_remove_redundant_sets(cover, inst)
        assert (new.chosen, new.covered) == (old.chosen, old.covered)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_grasp_solve(self, seed):
        _, inst = _family(seed)
        params = GraspParams(num_iter=15, seed=seed)
        with mock.patch.object(grasp, "rand_construct", reference_rand_construct), \
                mock.patch.object(grasp, "remove_redundant_sets", reference_remove_redundant_sets):
            old = grasp_solve(inst, params).chosen
        assert grasp_solve(inst, params).chosen == old


class TestRandConstruct:
    def test_first_pick_is_forced_by_degree_one_element(self, twelve):
        rowmap = create_row_map(twelve)
        for improve in (True, False):
            cover = rand_construct(
                Cover.empty(), (1 << 12) - 1, rowmap, improve,
                random.Random(123),
            )
            assert cover.chosen[0] == 5
            assert cover_is_feasible(cover, twelve)

    def test_empty_uncovered_returns_partial(self, twelve):
        rowmap = create_row_map(twelve)
        partial = Cover.empty()
        partial.add(3, twelve.masks[3])
        before = list(partial.chosen)
        result = rand_construct(partial, 0, rowmap, True, random.Random())
        assert result.chosen == before

    def test_rejects_overlapping_partial(self, twelve):
        rowmap = create_row_map(twelve)
        partial = Cover.empty()
        partial.add(5, twelve.masks[5])
        with pytest.raises(ValueError, match="overlaps"):
            rand_construct(partial, (1 << 12) - 1, rowmap, True, random.Random())


class TestRemoveSets:
    def test_removes_half_of_four(self, twelve):
        cover = Cover.empty()
        for sid in (3, 4, 0, 5):
            cover.add(sid, twelve.masks[sid])
        out = remove_sets(cover, twelve, 0.5, random.Random(1))
        assert len(out) == 2
        assert set(out.chosen) < set(cover.chosen)

    def test_singleton_cover_still_loses_one(self):
        inst = make_instance(2, ((1, 2),))
        cover = Cover.empty()
        cover.add(0, inst.masks[0])
        out = remove_sets(cover, inst, 0.5, random.Random(1))
        assert len(out) == 0

    def test_seeded_reproducibility(self, twelve):
        cover = Cover.empty()
        for sid in (3, 4, 0, 5):
            cover.add(sid, twelve.masks[sid])
        a = remove_sets(cover, twelve, 0.5, random.Random(9)).chosen
        b = remove_sets(cover, twelve, 0.5, random.Random(9)).chosen
        assert a == b

    def test_coverage_recomputed(self, twelve):
        cover = Cover.empty()
        for sid in (3, 4, 0, 5):
            cover.add(sid, twelve.masks[sid])
        out = remove_sets(cover, twelve, 0.5, random.Random(4))
        expected = 0
        for sid in out.chosen:
            expected |= twelve.masks[sid]
        assert out.covered == expected

    def test_empty_cover_rejected(self, twelve):
        with pytest.raises(ValueError, match="empty cover"):
            remove_sets(Cover.empty(), twelve, 0.5, random.Random())


class TestRemoveRedundantSets:
    def test_drops_redundant_large_subset(self, twelve):
        cover = Cover.empty()
        for sid in (0, 1, 3, 5):
            cover.add(sid, twelve.masks[sid])
        pruned = remove_redundant_sets(cover, twelve)
        assert sorted(pruned.chosen) == [0, 1, 5]
        assert cover_is_feasible(pruned, twelve)

    def test_minimal_cover_unchanged(self, twelve):
        cover = Cover.empty()
        for sid in (0, 1, 5):
            cover.add(sid, twelve.masks[sid])
        assert remove_redundant_sets(cover, twelve).chosen == [0, 1, 5]

    def test_disjoint_cover_unchanged(self):
        inst = make_instance(4, ((1, 2), (3,), (4,)))
        cover = Cover.empty()
        for sid in range(3):
            cover.add(sid, inst.masks[sid])
        assert remove_redundant_sets(cover, inst).chosen == [0, 1, 2]

    def test_infeasible_input_rejected(self, twelve):
        cover = Cover.empty()
        cover.add(0, twelve.masks[0])
        with pytest.raises(ValueError, match="feasible"):
            remove_redundant_sets(cover, twelve)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_result_is_one_minimal(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 12)))
        cover = Cover.empty()
        for sid in range(inst.m):
            cover.add(sid, inst.masks[sid])
        pruned = remove_redundant_sets(cover, inst)
        assert cover_is_feasible(pruned, inst)
        for sid in pruned.chosen:
            rest = 0
            for other in pruned.chosen:
                if other != sid:
                    rest |= inst.masks[other]
            assert rest != (1 << n) - 1


class TestGraspSolve:
    def test_worked_instance_reaches_optimum(self, twelve):
        for seed in (0, 1, 2, 99):
            cover = grasp_solve(twelve, GraspParams(seed=seed))
            assert len(cover) == 3
            assert cover_is_feasible(cover, twelve)

    def test_zero_iterations_returns_pruned_construction(self, twelve):
        cover = grasp_solve(twelve, GraspParams(num_iter=0, seed=5))
        assert cover_is_feasible(cover, twelve)
        pruned = remove_redundant_sets(cover, twelve)
        assert pruned.chosen == cover.chosen

    def test_final_never_worse_than_initial(self, twelve):
        rng = random.Random(0)
        for seed in (rng.randrange(10**9) for _ in range(10)):
            initial = grasp_solve(twelve, GraspParams(num_iter=0, seed=seed))
            final = grasp_solve(twelve, GraspParams(num_iter=40, seed=seed))
            assert len(final) <= len(initial)

    def test_deterministic_in_seed(self, twelve):
        a = grasp_solve(twelve, GraspParams(seed=31)).chosen
        b = grasp_solve(twelve, GraspParams(seed=31)).chosen
        assert a == b

    def test_trace_semantics(self, twelve):
        rows = []

        def trace(iteration, new_size, accepted, improve):
            rows.append((iteration, new_size, accepted, improve))

        params = GraspParams(num_iter=50, seed=2)
        cover = grasp_solve(twelve, params, trace=trace)
        assert [r[0] for r in rows] == list(range(1, 51))
        incumbent = len(grasp_solve(twelve, GraspParams(num_iter=0, seed=2)))
        for _, new_size, accepted, improve in rows:
            assert improve == accepted  # flag records "last round improved"
            assert accepted == (new_size < incumbent)
            if accepted:
                incumbent = new_size
        assert len(cover) == incumbent == 3

    def test_accepted_covers_monotone(self, twelve):
        sizes = []

        def trace(iteration, new_size, accepted, improve):
            if accepted:
                sizes.append(new_size)

        grasp_solve(twelve, GraspParams(num_iter=120, seed=8), trace=trace)
        assert sizes == sorted(sizes, reverse=True)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_stay_feasible_and_minimal(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 25)
        inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 10)))
        cover = grasp_solve(inst, GraspParams(num_iter=15, seed=seed))
        assert cover_is_feasible(cover, inst)
        assert remove_redundant_sets(cover, inst).chosen == cover.chosen


def test_params_validation():
    with pytest.raises(ValueError):
        GraspParams(num_iter=-1)
    with pytest.raises(ValueError):
        GraspParams(max_rm=0.0)
    with pytest.raises(ValueError):
        GraspParams(max_rm=1.0)
    with pytest.raises(ValueError):
        GraspParams(eval_set=())
