"""Segmented GRASP: solve co-occurrence components independently, then merge.

Components are dispatched longest-family-first to a worker pool and solved
with per-component RNG streams derived as ``master_seed XOR component
index``, so results are identical for any worker count or scheduling order.
One pool can also run several restarts of every component side by side
(``run_components(..., restarts)``), which is how a connected instance uses
more than one worker.  Workers are separate processes (the practical route
to CPU parallelism in CPython); the ``threads`` knob caps the pool size.
"""
from __future__ import annotations

import gc
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Cover, Instance
from .grasp import GraspParams, _grasp_run
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


# The subinstances that ``_solve_component`` tasks index into: set in each
# pool worker by ``_receive``, and in this process while tasks run in-process.
_subinstances: Sequence[Instance] = ()


def _receive(subinstances: Sequence[Instance]) -> None:
    """Pool initializer: keep the subinstances for every task of this worker.

    A forked worker inherits them with the parent's heap (a spawned one
    unpickles them once); gc.freeze keeps the worker's collections from
    traversing, and so copying, that heap.
    """
    global _subinstances
    _subinstances = subinstances
    gc.freeze()


def _solve_component(task: Tuple[int, int, GraspParams]) -> Tuple[int, Cover]:
    index, component, params = task
    rng = random.Random(params.seed)
    return index, _grasp_run(_subinstances[component], params, rng)


def run_components(
    subinstances: Sequence[Instance],
    params: SuParams,
    restarts: int = 1,
) -> List[Cover]:
    """Solve ``restarts`` independent runs of every subinstance on one pool.

    Restart ``k`` of component ``i`` gets seed ``(params.grasp.seed + k) ^ i``
    and its cover is result ``k * len(subinstances) + i`` (restart-major), so
    the covers do not depend on the worker count or the scheduling order.
    Tasks are dispatched largest family first (long jobs first shortens the
    critical path) to ``min(params.threads, tasks)`` workers, which receive
    the subinstances once, at start-up; with one worker the tasks run
    in-process.
    """
    global _subinstances
    count = len(subinstances)
    tasks = [
        (k * count + i, i, replace(params.grasp, seed=(params.grasp.seed + k) ^ i))
        for k in range(restarts)
        for i in range(count)
    ]
    tasks.sort(key=lambda t: (-subinstances[t[1]].m, t[0]))
    workers = min(params.threads, len(tasks))
    if workers <= 1:
        _subinstances = subinstances
        try:
            results = dict(map(_solve_component, tasks))
        finally:
            _subinstances = ()
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_receive, initargs=(subinstances,)
        ) as pool:
            results = dict(pool.map(_solve_component, tasks))
    return [results[index] for index in range(len(tasks))]


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
