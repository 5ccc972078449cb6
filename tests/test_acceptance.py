"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8 needs benchmark files fetched out-of-band (scripts/fetch_orlib.py)
and is skipped when they are absent.  Criterion 10a measures real parallel
throughput and honestly fails on hosts without at least ~1.5 cores of usable
CPU capacity.
"""
import random
import statistics
import time
from pathlib import Path

import pytest

from segcover.cli import run_algorithm
from segcover.core import Instance, cover_is_feasible, index_mask, iter_bits
from segcover.grasp import GraspParams, grasp_solve
from segcover.grasp_su import SuParams, grasp_su_solve, rpd_star, run_components
from segcover.greedy import greedy_solve
from segcover.io import GeneratorConfig, generate_segmentable, parse_scp
from segcover.mst import build_cograph, mst_bipartition
from segcover.preprocess import reduce
from segcover.segmentation import find_groups, merge_partial_covers

from conftest import make_instance, TWELVE_SUBSETS_1BASED
from oracles import (
    bfs_components,
    brute_force_min_cover,
    harmonic,
    random_covering_family,
    to_instance,
)

ORLIB_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "data"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def twelve_instance() -> Instance:
    return make_instance(12, TWELVE_SUBSETS_1BASED)


def test_criterion_01_worked_instance_optimum(twelve_instance):
    subsets = [set(e - 1 for e in s) for s in TWELVE_SUBSETS_1BASED]
    opt, combo = brute_force_min_cover(12, subsets)
    assert opt == 3 and set(combo) == {0, 1, 5}
    sizes = []
    worst = 0.0
    for seed in (0, 1, 12345, 987654321):
        start = time.perf_counter()
        cover = grasp_solve(twelve_instance, GraspParams(seed=seed))
        worst = max(worst, time.perf_counter() - start)
        assert cover_is_feasible(cover, twelve_instance)
        sizes.append(len(cover))
    ok = sizes == [3, 3, 3, 3] and worst < 1.0
    _report("1", ok, f"brute-force optimum 3, grasp sizes {sizes}, slowest {worst:.3f}s")


def test_criterion_02_reduction_exact(twelve_instance):
    report = reduce(twelve_instance)
    ok = (
        report.forced == (5,)
        and report.excluded == (6,)
        and report.covered.bit_count() == 4
        and report.residual.n == 8
        and report.residual.m == 5
    )
    _report(
        "2",
        ok,
        f"forced={report.forced} excluded={report.excluded} "
        f"covered={report.covered.bit_count()} "
        f"residual={report.residual.n}x{report.residual.m}",
    )


def test_criterion_03_mst_cut_balance(twelve_instance):
    # The balance figures count co-occurrence over the whole original family
    # restricted to the uncovered universe (the dominance-excluded subset
    # still contributes its pair weight); with the post-dominance family the
    # same cut appears with side weights 4/6 instead.
    report = reduce(twelve_instance)
    keep = [e for e in range(12) if not report.covered >> e & 1]
    local = {e: i for i, e in enumerate(keep)}
    subsets = []
    for b in twelve_instance.masks:
        members = {local[e] for e in iter_bits(b) if e in local}
        if members:
            subsets.append(members)
    fixture = to_instance(len(keep), subsets)
    bip = mst_bipartition(build_cograph(fixture))
    cut_1based = (keep[bip.cut_edge[0]] + 1, keep[bip.cut_edge[1]] + 1, bip.cut_edge[2])
    ok = cut_1based == (2, 3, 2) and (bip.weight1, bip.weight2) == (5, 6)
    _report(
        "3",
        ok,
        f"cut={cut_1based} weights=({bip.weight1},{bip.weight2}) expected (2,3,2)/(5,6)",
    )

    strict = mst_bipartition(build_cograph(report.residual))
    assert (strict.weight1, strict.weight2) == (4, 6)  # documented variant


def test_criterion_04_merged_covers_feasible_without_repair():
    rng = random.Random(20_260_810)
    checked = 0
    for trial in range(1000):
        k = rng.choice((2, 4, 8))
        n = rng.randint(k, 2000) if trial % 10 == 0 else rng.randint(k, 500)
        m = rng.randint(k, 60)
        cfg = GeneratorConfig(
            n=n, m=m, groups=k, density=min(1.0, 0.15 + rng.random() * 0.2),
            seed=rng.randrange(2**63),
        )
        inst = generate_segmentable(cfg)
        seg = find_groups(inst)
        params = SuParams(grasp=GraspParams(num_iter=2, seed=rng.randrange(2**63)))
        partials = run_components([c.subinstance for c in seg.components], params)
        merged = merge_partial_covers(seg, partials)  # raises on any repair need
        assert cover_is_feasible(merged, inst)
        checked += 1
    _report("4", checked == 1000, f"{checked}/1000 merged covers feasible, zero repairs")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(55)
    for trial in range(500):
        n = rng.randint(1, 2000) if trial % 10 == 0 else rng.randint(1, 250)
        m = rng.randint(1, 20)
        subsets = random_covering_family(rng, n, m, max_size=5)
        seg = find_groups(to_instance(n, subsets))
        assert [list(c.element_ids) for c in seg.components] == bfs_components(
            n, subsets
        )

    for trial in range(1000):
        if trial % 20 == 0:
            cap = rng.randint(2000, 10_000)
        else:
            cap = rng.randint(1, 400)
        xs = set(rng.sample(range(cap), rng.randint(0, min(cap, 200))))
        ys = set(rng.sample(range(cap), rng.randint(0, min(cap, 200))))
        a = index_mask(xs, 0, cap - 1)
        b = index_mask(ys, 0, cap - 1)
        assert list(iter_bits(a | b)) == sorted(xs | ys)
        assert list(iter_bits(a & b)) == sorted(xs & ys)
        assert list(iter_bits(a & ~b)) == sorted(xs - ys)
        assert (a & b).bit_count() == len(xs & ys)
        assert (a & ~b == 0) == (xs <= ys)
        assert a.bit_count() == len(xs)
        assert (a | b).bit_length() <= cap
    _report("5", True, "500 component checks + 1000 set-algebra trials agree")


def test_criterion_06_reduction_preserves_optimum():
    rng = random.Random(66)
    for _ in range(200):
        n = rng.randint(1, 15)
        m = rng.randint(1, 12)
        subsets = random_covering_family(rng, n, m)
        inst = to_instance(n, subsets)
        opt, _ = brute_force_min_cover(n, subsets)
        report = reduce(inst)
        res_opt, _ = brute_force_min_cover(
            report.residual.n, [set(iter_bits(b)) for b in report.residual.masks]
        )
        assert opt == len(report.forced) + res_opt, (n, subsets)
    _report("6", True, "200/200 instances: optimum == forced + residual optimum")


def test_criterion_07_greedy_harmonic_bound():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 18)
        m = rng.randint(1, 10)
        subsets = random_covering_family(rng, n, m)
        inst = to_instance(n, subsets)
        opt, _ = brute_force_min_cover(n, subsets)
        bound = harmonic(max(len(s) for s in subsets)) * opt
        assert len(greedy_solve(inst)) <= bound + 1e-9
    _report("7", True, "200/200 instances within the harmonic guarantee")


@pytest.mark.skipif(
    not all((ORLIB_DIR / f"scpe{i}.txt").is_file() for i in range(1, 6)),
    reason="OR-Library files not fetched (run scripts/fetch_orlib.py)",
)
def test_criterion_08_orlib_desk_scale():
    results = {}
    for i in range(1, 6):
        name = f"scpe{i}"
        inst = parse_scp((ORLIB_DIR / f"{name}.txt").read_bytes())
        assert (inst.n, inst.m) == (50, 500)
        report = reduce(inst)
        start = time.perf_counter()
        best = None
        for seed in range(10):
            cover = grasp_solve(report.residual, GraspParams(seed=seed))
            lifted = report.lift_cover(cover)
            assert cover_is_feasible(lifted, inst)
            best = min(best, len(lifted)) if best is not None else len(lifted)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        results[name] = best
    ok = all(card <= 6 for card in results.values())
    target = all(card == 5 for card in results.values())
    _report("8", ok, f"best-of-10 cardinalities {results} (target 5, tolerance 6, "
                     f"target reached: {target})")


def test_criterion_09_determinism_across_thread_counts():
    inst = generate_segmentable(GeneratorConfig(n=600, m=240, groups=8, seed=99))
    params = GraspParams(num_iter=25, seed=424242)
    sequential = [grasp_solve(inst, params).chosen for _ in range(2)]
    segmented = [
        grasp_su_solve(inst, SuParams(grasp=params, threads=t)).chosen
        for t in (1, 2, 4)
    ]
    ok = (
        sequential[0] == sequential[1]
        and segmented[0] == segmented[1] == segmented[2]
    )
    _report("9", ok, f"grasp stable, grasp-su identical at threads 1/2/4 "
                     f"(|C|={len(segmented[0])})")


def test_criterion_10a_parallel_solve_phase_speedup():
    inst = generate_segmentable(
        GeneratorConfig(n=10_000, m=20_000, groups=32, seed=20_260_810)
    )
    solve_ms = {}
    for threads in (1, 4):
        phase = {}
        grasp_su_solve(
            inst,
            SuParams(grasp=GraspParams(num_iter=150, seed=3), threads=threads),
            phase_times=phase,
        )
        solve_ms[threads] = phase["solve_ms"]
    ratio = solve_ms[4] / solve_ms[1]
    _report(
        "10a",
        ratio < 0.7,
        f"solve phase {solve_ms[1]:.0f}ms at 1 worker, {solve_ms[4]:.0f}ms at 4 "
        f"workers, ratio {ratio:.3f} (limit 0.70)",
    )


def test_criterion_10b_segmented_grasp_vs_greedy():
    rng = random.Random(10_101)
    wins = runs = 0
    for _ in range(30):
        cfg = GeneratorConfig(
            n=rng.randint(300, 800), m=rng.randint(100, 200),
            groups=rng.choice((2, 4, 8)), density=0.08, seed=rng.randrange(2**63),
        )
        inst = generate_segmentable(cfg)
        su = grasp_su_solve(
            inst, SuParams(grasp=GraspParams(num_iter=80, seed=rng.randrange(2**63)))
        )
        runs += 1
        if rpd_star(len(su), len(greedy_solve(inst))) >= 0.0:
            wins += 1
    _report("10b", wins >= 0.9 * runs, f"{wins}/{runs} runs at least match greedy")


def test_criterion_10c_forced_bipartition_degrades():
    rng = random.Random(313)
    mst_sizes, plain_sizes = [], []
    while len(mst_sizes) < 20:
        n = rng.randint(40, 100)
        m = rng.randint(20, 60)
        family = random_covering_family(rng, n, m, max_size=max(3, n // 6))
        if len(bfs_components(n, family)) != 1:
            continue
        inst = to_instance(n, family)
        seed = rng.randrange(2**63)
        _, mst_cover = run_algorithm(
            inst, "10c", "grasp-mst", iterations=40, seed=seed, preprocess=False
        )
        plain_cover = grasp_solve(inst, GraspParams(num_iter=40, seed=seed))
        assert cover_is_feasible(mst_cover, inst)
        mst_sizes.append(len(mst_cover))
        plain_sizes.append(len(plain_cover))
    mean_mst = statistics.mean(mst_sizes)
    mean_plain = statistics.mean(plain_sizes)
    _report(
        "10c",
        mean_mst >= mean_plain,
        f"paired means over 20 connected instances: forced-split {mean_mst:.2f} "
        f"vs un-segmented {mean_plain:.2f}",
    )
