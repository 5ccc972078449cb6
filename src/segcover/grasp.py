"""Greedy construction and the sequential GRASP improvement loop.

Construction is element-first: the uncovered element with the smallest
degree (fewest covering subsets) defines the candidate list, and the
candidate covering the most uncovered elements wins, ties to the lowest id.
A pick costs one AND-and-popcount per candidate on the instance's int masks
and draws nothing from the RNG.

The improvement loop repeatedly deletes a random fraction of the incumbent,
rebuilds with the construction, prunes redundant picks, and keeps the result
when it is no larger than the incumbent, so equal-size covers replace it
(plateau moves); the deletion sample is the loop's only randomness.
Pruning tests each subset against the union of the kept subsets before it
and of every subset after it (a suffix OR), so it costs O(k) big-int
operations for a k-subset cover.

The paper's construction draws one of four score functions per pick and,
after a round that did not improve, draws the candidate weighted by that
score; its loop accepts strict improvements only.  On the benchmark's
generated workloads that gave larger covers in more time, so every round
here intensifies.  The paper's construction and loop are kept in
``tests/oracles.py`` as the references the tests compare against.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .core import Cover, Instance, cover_is_feasible


@dataclass(frozen=True)
class GraspParams:
    num_iter: int = 300
    max_rm: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_iter < 0:
            raise ValueError(f"num_iter must be >= 0, got {self.num_iter}")
        if not 0.0 < self.max_rm < 1.0:
            raise ValueError(f"max_rm must lie in (0, 1), got {self.max_rm}")


@dataclass(frozen=True)
class RowMap:
    """Per-element coverage index, sorted ascending by degree then element id.

    Each entry is ``(element, degree, covering subset ids)``, the ids
    ascending.  Degrees count covering subsets of the instance and never
    change during construction, so one sorted index serves a whole solve;
    covered elements are skipped with one iterator.
    """

    instance: Instance
    entries: Tuple[Tuple[int, int, Tuple[int, ...]], ...]


def create_row_map(inst: Instance) -> RowMap:
    coverers = inst.coverers()
    entries = sorted(
        ((e, len(ids), tuple(ids)) for e, ids in enumerate(coverers)),
        key=lambda entry: (entry[1], entry[0]),
    )
    return RowMap(instance=inst, entries=tuple(entries))


def rand_construct(partial: Cover, uncovered: int, rowmap: RowMap) -> Cover:
    """Complete ``partial`` until every element of the ``uncovered`` mask is
    covered.

    Each round takes the lowest-degree uncovered element and adds the
    subset covering it that covers the most uncovered elements, ties to the
    lowest id.  Mutates and returns ``partial``.  (The name is the paper's
    randomized construction's; the benchmark's tracer wraps it by name.)
    """
    if partial.covered & uncovered:
        raise ValueError("partial cover overlaps the uncovered set")
    masks = rowmap.instance.masks
    entries = iter(rowmap.entries)
    while uncovered:
        for element, _, coverer_ids in entries:
            if (uncovered >> element) & 1:
                break
        else:
            raise RuntimeError("uncovered elements missing from the row map")
        if not coverer_ids:
            raise RuntimeError(f"no subset covers element {element}; corrupt instance")
        counts = [(masks[sid] & uncovered).bit_count() for sid in coverer_ids]
        if 0 in counts:
            sid = coverer_ids[counts.index(0)]
            raise ValueError(f"candidate subset {sid} covers nothing uncovered")
        chosen = coverer_ids[counts.index(max(counts))]
        partial.add(chosen, masks[chosen])
        uncovered &= ~masks[chosen]
    return partial


def remove_sets(
    c: Cover,
    inst: Instance,
    max_rm: float,
    rng: random.Random,
) -> Cover:
    """Drop ``max(1, floor(max_rm * |C|))`` chosen subsets uniformly at random.

    Returns a new, generally infeasible partial with recomputed coverage.
    """
    if not 0.0 < max_rm < 1.0:
        raise ValueError(f"max_rm must lie in (0, 1), got {max_rm}")
    if len(c) == 0:
        raise ValueError("cannot remove subsets from an empty cover")
    removed = set(rng.sample(c.chosen, max(1, int(max_rm * len(c)))))
    kept = [sid for sid in c.chosen if sid not in removed]
    masks = inst.masks
    covered = 0
    for sid in kept:
        covered |= masks[sid]
    return Cover(kept, covered)


def remove_redundant_sets(c: Cover, inst: Instance) -> Cover:
    """Drop every subset whose removal keeps the cover feasible.

    Chosen subsets are scanned in descending cardinality (ties toward the
    higher id), so large sets get evicted first; the result is 1-minimal.
    When a subset's turn comes the cover holds the subsets kept before it and
    every subset after it, so it is dropped iff it lies inside their union.
    """
    if not cover_is_feasible(c, inst):
        raise ValueError("cover must be feasible before redundancy removal")
    masks = sorted(
        ((inst.masks[sid], sid) for sid in c.chosen),
        key=lambda pair: (-pair[0].bit_count(), -pair[1]),
    )
    suffix = [0] * (len(masks) + 1)
    for i in range(len(masks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i][0]
    kept_bits = 0
    dropped = set()
    for i, (bits, sid) in enumerate(masks):
        if bits & ~(kept_bits | suffix[i + 1]):
            kept_bits |= bits
        else:
            dropped.add(sid)
    kept = [sid for sid in c.chosen if sid not in dropped]
    return Cover(kept, kept_bits)


TraceFn = Callable[[int, int, bool, bool], None]
"""Per-round callback: ``(iteration, new cover size, accepted, improved)``,
where ``improved`` means strictly smaller than the incumbent."""


def improvement_loop(
    best: Cover,
    inst: Instance,
    rowmap: RowMap,
    params: GraspParams,
    rng: random.Random,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """Run ``params.num_iter`` destroy/reconstruct/prune rounds on ``best``.

    A round's candidate replaces the incumbent when it is no larger, so
    ties are accepted (plateau moves).  ``trace`` (if given) receives
    ``(iteration, new size, accepted, improved)`` per round, ``improved``
    meaning strictly smaller than the incumbent.
    """
    if inst.n == 0:
        return best
    universe = (1 << inst.n) - 1
    for iteration in range(1, params.num_iter + 1):
        candidate = remove_sets(best, inst, params.max_rm, rng)
        candidate = rand_construct(candidate, universe & ~candidate.covered, rowmap)
        candidate = remove_redundant_sets(candidate, inst)
        improved = len(candidate) < len(best)
        accepted = len(candidate) <= len(best)
        if accepted:
            best = candidate
        if trace is not None:
            trace(iteration, len(candidate), accepted, improved)
    return best


def _grasp_run(
    inst: Instance,
    params: GraspParams,
    rng: random.Random,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """Construction from empty, prune, then the improvement loop."""
    if inst.n == 0:
        return Cover.empty()
    rowmap = create_row_map(inst)
    cover = rand_construct(Cover.empty(), (1 << inst.n) - 1, rowmap)
    cover = remove_redundant_sets(cover, inst)
    return improvement_loop(cover, inst, rowmap, params, rng, trace)


def grasp_solve(
    inst: Instance,
    params: Optional[GraspParams] = None,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """Sequential GRASP; deterministic in (instance, params.seed)."""
    params = params if params is not None else GraspParams()
    rng = random.Random(params.seed)
    return _grasp_run(inst, params, rng, trace)
