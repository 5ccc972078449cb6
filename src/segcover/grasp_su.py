"""Segmented GRASP: solve co-occurrence components independently, then merge.

Components are dispatched longest-family-first to a worker pool and solved
with per-component RNG streams derived as ``master_seed XOR component
index``, so results are identical for any worker count or scheduling order.
Workers are separate processes (the practical route to CPU parallelism in
CPython); the ``threads`` knob caps the pool size.
"""
from __future__ import annotations

import gc
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Cover, Instance, cover_is_feasible
from .grasp import (
    GraspParams,
    _grasp_run,
    create_row_map,
    improvement_loop,
    remove_redundant_sets,
)
from .segmentation import Segmentation, find_groups, merge_partial_covers

SEGMENTATION_SOURCES = ("union-find", "mst-bipartition")


@dataclass(frozen=True)
class SuParams:
    grasp: GraspParams = GraspParams()
    threads: int = 1
    segmentation_source: str = "union-find"

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.segmentation_source not in SEGMENTATION_SOURCES:
            raise ValueError(
                f"segmentation_source must be one of {SEGMENTATION_SOURCES}, "
                f"got {self.segmentation_source!r}"
            )


def local_search(
    c: Cover, sub: Instance, params: GraspParams, rng: random.Random
) -> Cover:
    """Improve a feasible component cover with the standard iteration loop."""
    if not cover_is_feasible(c, sub):
        raise ValueError("local search requires a feasible cover")
    rowmap = create_row_map(sub)
    c = remove_redundant_sets(c, sub)
    return improvement_loop(c, sub, rowmap, params, rng)


def _solve_component(task: Tuple[int, Instance, GraspParams]) -> Tuple[int, Cover]:
    index, sub, params = task
    rng = random.Random(params.seed)
    return index, _grasp_run(sub, params, rng)


def run_components(
    subinstances: Sequence[Instance],
    params: SuParams,
) -> List[Cover]:
    """Solve subinstances independently; deterministic in the master seed.

    Component ``i`` gets seed ``params.grasp.seed ^ i``.  Dispatch order is
    descending family size (long jobs first shortens the critical path), but
    results are collected back into component order.
    """
    master_seed = params.grasp.seed
    tasks = [
        (i, sub, replace(params.grasp, seed=master_seed ^ i))
        for i, sub in enumerate(subinstances)
    ]
    tasks.sort(key=lambda t: (-t[1].m, t[0]))
    results: Dict[int, Cover] = {}
    workers = min(params.threads, max(1, len(tasks)))
    if workers == 1 or len(tasks) <= 1:
        for task in tasks:
            index, cover = _solve_component(task)
            results[index] = cover
    else:
        # A forked worker inherits the parent's heap; gc.freeze keeps the
        # worker's collections from traversing (and so copying) it.
        with ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze) as pool:
            for index, cover in pool.map(_solve_component, tasks):
                results[index] = cover
    return [results[i] for i in range(len(subinstances))]


def grasp_su_solve(
    inst: Instance,
    params: Optional[SuParams] = None,
    phase_times: Optional[Dict[str, float]] = None,
    segmentation: Optional[Segmentation] = None,
) -> Cover:
    """Segment, solve each component concurrently, merge.

    ``segmentation`` (union-find only) is ``find_groups(inst)`` computed by
    the caller, which lets restarts on one instance share it; it is computed
    here when absent.  ``phase_times`` (if given) receives ``segment_ms``,
    ``solve_ms`` and ``merge_ms``.  The merged cover needs neither repair
    nor pruning: components share no elements and every component cover is
    already 1-minimal, so their union is a 1-minimal cover.
    """
    params = params if params is not None else SuParams()
    if params.segmentation_source == "mst-bipartition":
        from .mst import grasp_mst_solve

        return grasp_mst_solve(inst, params, phase_times)

    t0 = time.perf_counter()
    seg = segmentation if segmentation is not None else find_groups(inst)
    t1 = time.perf_counter()
    partials = run_components([c.subinstance for c in seg.components], params)
    t2 = time.perf_counter()
    merged = merge_partial_covers(seg, partials)
    t3 = time.perf_counter()
    if phase_times is not None:
        phase_times["segment_ms"] = (t1 - t0) * 1e3
        phase_times["solve_ms"] = (t2 - t1) * 1e3
        phase_times["merge_ms"] = (t3 - t2) * 1e3
    return merged


def rpd(card: int, bks: int) -> float:
    """Relative deviation from the best known solution; lower is better."""
    if bks < 1:
        raise ValueError(f"best known solution must be >= 1, got {bks}")
    return (card - bks) / bks


def rpd_star(card: int, greedy_card: int) -> float:
    """Relative improvement over the greedy baseline; higher is better."""
    if greedy_card < 1:
        raise ValueError(f"greedy cardinality must be >= 1, got {greedy_card}")
    return (greedy_card - card) / greedy_card
