"""Segmented GRASP: split an instance into independent pieces, solve, merge.

``split`` is the one place that decides the pieces of every algorithm and
how their covers, restarts included, merge back: ``grasp`` keeps the
instance whole, ``greedy`` and ``grasp-uf`` split it into co-occurrence
components that each keep their best restart, ``grasp-mst`` into the two
sides of a forced bipartition.  ``run_components`` is the one GRASP restart
path: it returns every restart's piece covers, restart-major, for that
merge.  It runs the restarts in batches, dispatching the pieces of every
restart in a batch longest-family-first to one worker pool, with RNG
streams derived as ``(master_seed + restart) XOR piece index``, so results
are identical for any worker count or scheduling order.  Workers are
processes (CPython's route to CPU parallelism); ``threads`` caps the pool.
"""
from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import Cover, Instance
from .grasp import GraspParams, _grasp_run
from .greedy import interleave
from .mst import build_cograph, merge_sides, mst_bipartition
from .segmentation import find_groups, merge_partial_covers

Merge = Callable[[Sequence[Cover]], Cover]

# The algorithms ``split`` has pieces for: every algorithm the CLI runs.
ALGORITHMS = ("greedy", "grasp", "grasp-uf", "grasp-mst")


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
    return index, _grasp_run(_subinstances[component], params)


def run_components(
    subinstances: Sequence[Instance],
    params: SuParams,
    restarts: int = 1,
) -> List[Cover]:
    """Solve ``restarts`` independent runs of every subinstance.

    Restart ``k`` of component ``i`` gets seed ``(params.grasp.seed + k) ^ i``
    and its cover is result ``k * len(subinstances) + i`` (restart-major), so
    the covers do not depend on the worker count or the scheduling order.
    Restarts run in batches of ``ceil(threads / pieces)``, so a pool has work
    for every worker even when there are fewer pieces than workers, and
    restarts beyond one batch start one pool per batch.  Each
    batch's tasks are dispatched largest family first (long jobs first
    shortens the critical path) to one pool of ``min(params.threads, tasks)``
    workers, which receive the subinstances once, at start-up; a batch with
    one worker runs in-process.
    """
    global _subinstances
    count = len(subinstances)
    batch = -(-params.threads // max(count, 1))
    results: Dict[int, Cover] = {}
    for first in range(0, restarts, batch):
        tasks = [
            (k * count + i, i, replace(params.grasp, seed=(params.grasp.seed + k) ^ i))
            for k in range(first, min(first + batch, restarts))
            for i in range(count)
        ]
        tasks.sort(key=lambda t: (-subinstances[t[1]].m, t[0]))
        workers = min(params.threads, len(tasks))
        if workers <= 1:
            _subinstances = subinstances
            try:
                results.update(map(_solve_component, tasks))
            finally:
                _subinstances = ()
        else:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_receive, initargs=(subinstances,)
            ) as pool:
                results.update(pool.map(_solve_component, tasks))
    return [results[index] for index in range(restarts * count)]


def split(work: Instance, algorithm: str) -> Tuple[List[Instance], Merge]:
    """The pieces ``algorithm`` solves ``work`` as, and how their covers merge.

    The merge takes every restart's piece covers, restart-major as
    ``run_components`` returns them, and returns one cover; ties go to the
    lowest restart.  ``grasp``: ``[work]``, merged by keeping the smallest.
    ``greedy`` and ``grasp-uf``: the ``find_groups`` components, which share
    no elements, so each keeps its smallest for ``greedy.interleave`` or
    ``merge_partial_covers`` to join.  ``grasp-mst``: the two sides of
    ``mst_bipartition``, which share cut subsets, merged by the smallest
    ``merge_sides`` of a restart; a disconnected ``work`` raises its
    ValueError.  An empty ``work`` has no pieces and merges to the empty cover.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"no split for algorithm {algorithm!r}")
    if work.n == 0:
        return [], lambda covers: Cover.empty()
    if algorithm == "grasp":
        return [work], partial(min, key=len)
    if algorithm == "grasp-mst":
        bip = mst_bipartition(build_cograph(work))
        join = partial(merge_sides, work, bip)
        return [bip.side1.subinstance, bip.side2.subinstance], lambda covers: min(
            map(join, zip(covers[0::2], covers[1::2])), key=len
        )
    seg = find_groups(work)
    merge = partial(interleave if algorithm == "greedy" else merge_partial_covers, seg)
    count = len(seg.components)
    return [c.subinstance for c in seg.components], lambda covers: merge(
        [min(covers[i::count], key=len) for i in range(count)]
    )


def grasp_su_solve(inst: Instance, params: Optional[SuParams] = None) -> Cover:
    """Segment, solve each component concurrently, merge: one restart.

    The merged cover needs neither repair nor pruning: components share no
    elements and every component cover is already 1-minimal, so their union
    is a 1-minimal cover.
    """
    pieces, merge = split(inst, "grasp-uf")
    return merge(run_components(pieces, params if params is not None else SuParams()))


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
