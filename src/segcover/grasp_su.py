"""Segmented GRASP: split an instance into independent pieces, solve, merge.

``split`` is the one place that decides the pieces of every GRASP algorithm
and how their covers merge back: ``grasp`` keeps the instance whole,
``grasp-uf`` splits it into co-occurrence components, ``grasp-mst`` into
the two sides of a forced bipartition.  ``solve_restarts`` is the one
restart path: restarts run in batches on ``run_components``, which
dispatches the pieces of every restart in a batch longest-family-first to
one worker pool, with RNG streams derived as ``(master_seed + restart) XOR
piece index``, so results are identical for any worker count or scheduling
order.  Workers are separate processes (the practical route to CPU
parallelism in CPython); the ``threads`` knob caps the pool size.
"""
from __future__ import annotations

import gc
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Cover, Instance
from .grasp import GraspParams, _grasp_run
from .mst import build_cograph, merge_sides, mst_bipartition
from .segmentation import find_groups, merge_partial_covers

Merge = Callable[[Sequence[Cover]], Cover]


@dataclass(frozen=True)
class SuParams:
    grasp: GraspParams = GraspParams()
    threads: int = 1

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


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


def split(work: Instance, algorithm: str) -> Tuple[List[Instance], Merge]:
    """The pieces ``algorithm`` solves ``work`` as, and how their covers merge.

    ``grasp``: ``[work]`` itself, merged by taking its cover.  ``grasp-uf``:
    the ``find_groups`` components, merged by ``merge_partial_covers``.
    ``grasp-mst``: the two sides of ``mst_bipartition``, merged by
    ``merge_sides``; a disconnected ``work`` raises its ValueError.
    """
    if algorithm == "grasp":
        return [work], itemgetter(0)
    if algorithm == "grasp-uf":
        seg = find_groups(work)
        return [c.subinstance for c in seg.components], partial(merge_partial_covers, seg)
    if algorithm == "grasp-mst":
        bip = mst_bipartition(build_cograph(work))
        return [bip.side1.subinstance, bip.side2.subinstance], partial(merge_sides, work, bip)
    raise ValueError(f"no split for algorithm {algorithm!r}")


def solve_restarts(
    subinstances: Sequence[Instance],
    merge: Merge,
    params: SuParams,
    restarts: int,
    phase_times: Dict[str, float],
) -> Iterator[Cover]:
    """Yield ``merge(piece covers)`` for each restart, in restart order.

    Restart ``k`` runs with seed ``params.grasp.seed + k``.  Restarts go to
    ``run_components`` in batches of ``ceil(threads / pieces)``, so a pool
    has work for every worker even when there are fewer pieces than
    workers.  The solve and merge times are added to ``phase_times``
    (``solve_ms``, ``merge_ms``).
    """
    count = len(subinstances)
    batch = -(-params.threads // max(count, 1))
    for first in range(0, restarts, batch):
        size = min(batch, restarts - first)
        grasp = replace(params.grasp, seed=params.grasp.seed + first)
        t0 = time.perf_counter()
        partials = run_components(subinstances, replace(params, grasp=grasp), size)
        t1 = time.perf_counter()
        covers = [merge(partials[k * count:(k + 1) * count]) for k in range(size)]
        t2 = time.perf_counter()
        phase_times["solve_ms"] = phase_times.get("solve_ms", 0.0) + (t1 - t0) * 1e3
        phase_times["merge_ms"] = phase_times.get("merge_ms", 0.0) + (t2 - t1) * 1e3
        yield from covers


def grasp_su_solve(
    inst: Instance,
    params: Optional[SuParams] = None,
    phase_times: Optional[Dict[str, float]] = None,
) -> Cover:
    """Segment, solve each component concurrently, merge: one restart.

    ``phase_times`` (if given) receives ``segment_ms``, ``solve_ms`` and
    ``merge_ms``.  The merged cover needs neither repair nor pruning:
    components share no elements and every component cover is already
    1-minimal, so their union is a 1-minimal cover.
    """
    params = params if params is not None else SuParams()
    t0 = time.perf_counter()
    pieces, merge = split(inst, "grasp-uf")
    times = {"segment_ms": (time.perf_counter() - t0) * 1e3}
    [cover] = solve_restarts(pieces, merge, params, 1, times)
    if phase_times is not None:
        phase_times.update(times)
    return cover


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
