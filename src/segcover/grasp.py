"""Randomized greedy construction and the sequential GRASP improvement loop.

Construction is element-first: the uncovered element with the smallest
degree (fewest covering subsets) defines the candidate list, and one of four
score functions of the candidate's fresh-coverage count ranks it.  In
intensification mode the best-scored candidate wins deterministically; in
diversification mode candidates are drawn with probability proportional to
one minus their score, clamped below by a tiny epsilon so ill-scaled scores
(above one) still leave a valid distribution.  Scores and weights are looked
up in per-function tables indexed by the count, so a pick costs one
AND-and-popcount per candidate on the instance's int masks.

The improvement loop repeatedly deletes a fixed fraction of the incumbent,
rebuilds with the construction procedure, prunes redundant picks, and keeps
the result only on strict improvement; the intensify/diversify flag simply
records whether the previous iteration improved.  Pruning tests each subset
against the union of the kept subsets before it and of every subset after it
(a suffix OR), so it costs O(k) big-int operations for a k-subset cover.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .core import Cover, Instance, SuccinctSet, cover_is_feasible

WEIGHT_EPSILON = 1e-6


def _inverse(c: int) -> float:
    return 1.0 / c

def _inverse_sqrt(c: int) -> float:
    return 1.0 / math.sqrt(c)

def _inverse_log(c: int) -> float:
    return 1.0 / math.log(c + 1)

def _inverse_square(c: int) -> float:
    return 1.0 / (c * c)


@dataclass(frozen=True)
class EvalFunction:
    """A strictly decreasing score of the fresh-coverage count (>= 1)."""

    tag: str
    fn: Callable[[int], float]

    def __call__(self, count: int) -> float:
        return self.fn(count)


EVAL_FUNCTIONS: Tuple[EvalFunction, ...] = (
    EvalFunction("inverse", _inverse),
    EvalFunction("inverse-sqrt", _inverse_sqrt),
    EvalFunction("inverse-log", _inverse_log),
    EvalFunction("inverse-square", _inverse_square),
)


@dataclass(frozen=True)
class GraspParams:
    num_iter: int = 300
    max_rm: float = 0.5
    seed: int = 0
    eval_set: Tuple[EvalFunction, ...] = EVAL_FUNCTIONS

    def __post_init__(self) -> None:
        if self.num_iter < 0:
            raise ValueError(f"num_iter must be >= 0, got {self.num_iter}")
        if not 0.0 < self.max_rm < 1.0:
            raise ValueError(f"max_rm must lie in (0, 1), got {self.max_rm}")
        if not self.eval_set:
            raise ValueError("eval_set must not be empty")


ScoreTables = Tuple[Tuple[List[Optional[float]], List[Optional[float]]], ...]


@dataclass(frozen=True)
class RowMap:
    """Per-element coverage index, sorted ascending by degree then element id.

    Each entry is ``(element, degree, covering subset ids)``, the ids
    ascending.  Degrees count covering subsets of the instance and never
    change during construction, so one sorted index serves a whole solve;
    covered elements are skipped with a monotone cursor.  ``max_size`` is
    the largest subset's size, which bounds every fresh-coverage count.
    """

    instance: Instance
    entries: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    max_size: int
    _tables: Dict[Tuple[EvalFunction, ...], ScoreTables] = field(
        default_factory=dict, compare=False, repr=False
    )

    def next_uncovered(
        self, uncovered: int, cursor: int
    ) -> Tuple[int, int, Tuple[int, ...]]:
        """(new cursor, element, coverer ids) of the first entry whose
        element is set in the ``uncovered`` mask."""
        entries = self.entries
        for i in range(cursor, len(entries)):
            element, _, coverer_ids = entries[i]
            if (uncovered >> element) & 1:
                return i, element, coverer_ids
        raise RuntimeError("uncovered elements missing from the row map")

    def score_tables(self, eval_set: Tuple[EvalFunction, ...]) -> ScoreTables:
        """Per function, ``(scores, weights)`` indexed by fresh-coverage count.

        ``scores[c] = f(c)`` and ``weights[c] = max(WEIGHT_EPSILON, 1 - f(c))``
        for c in 1..max_size; index 0 holds None, as no candidate of a pick
        covers nothing.  Built once per eval set and kept.
        """
        tables = self._tables.get(eval_set)
        if tables is None:
            counts = range(1, self.max_size + 1)
            tables = tuple(
                (
                    [None] + [f(c) for c in counts],
                    [None] + [max(WEIGHT_EPSILON, 1.0 - f(c)) for c in counts],
                )
                for f in eval_set
            )
            self._tables[eval_set] = tables
        return tables


def create_row_map(inst: Instance) -> RowMap:
    coverers = inst.coverers()
    entries = sorted(
        ((e, len(ids), tuple(ids)) for e, ids in enumerate(coverers)),
        key=lambda entry: (entry[1], entry[0]),
    )
    return RowMap(
        instance=inst,
        entries=tuple(entries),
        max_size=max((b.bit_count() for b in inst.masks), default=0),
    )


def rand_construct(
    partial: Cover,
    uncovered: SuccinctSet,
    rowmap: RowMap,
    improve: bool,
    rng: random.Random,
    eval_set: Tuple[EvalFunction, ...] = EVAL_FUNCTIONS,
) -> Cover:
    """Complete ``partial`` until every element of ``uncovered`` is covered.

    Each round: take the lowest-degree uncovered element, draw a score
    function uniformly from ``eval_set``, and add one subset covering the
    element.  Intensifying, that is the subset minimising ``f(fresh
    coverage)``, ties to the lowest id; diversifying, a draw weighted by
    ``max(eps, 1 - f(count))``, uniform when every weight clamps to eps.
    Mutates and returns ``partial``; ``uncovered`` is only read.
    """
    ubits = int(uncovered)
    if int(partial.covered) & ubits:
        raise ValueError("partial cover overlaps the uncovered set")
    masks = rowmap.instance.masks
    tables = rowmap.score_tables(eval_set)
    cursor = 0
    while ubits:
        cursor, element, coverer_ids = rowmap.next_uncovered(ubits, cursor)
        if not coverer_ids:
            raise RuntimeError(f"no subset covers element {element}; corrupt instance")
        scores, weights = rng.choice(tables)
        counts = [(masks[sid] & ubits).bit_count() for sid in coverer_ids]
        if 0 in counts:
            sid = coverer_ids[counts.index(0)]
            raise ValueError(f"candidate subset {sid} covers nothing uncovered")
        if improve:
            scored = [scores[c] for c in counts]
            chosen = coverer_ids[scored.index(min(scored))]
        else:
            chosen = rng.choices(coverer_ids, weights=[weights[c] for c in counts])[0]
        partial.add(chosen, masks[chosen])
        ubits &= ~masks[chosen]
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
    return Cover(kept, SuccinctSet(inst.n, covered))


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
    return Cover(kept, SuccinctSet(inst.n, kept_bits))


TraceFn = Callable[[int, int, bool, bool], None]


def improvement_loop(
    best: Cover,
    inst: Instance,
    rowmap: RowMap,
    params: GraspParams,
    rng: random.Random,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """Run ``params.num_iter`` destroy/reconstruct/prune rounds on ``best``.

    Acceptance is strict improvement only; ``trace`` (if given) receives
    ``(iteration, new size, accepted, improve flag)`` per round.
    """
    if inst.n == 0:
        return best
    improve = True
    universe = SuccinctSet.full(inst.n)
    for iteration in range(1, params.num_iter + 1):
        candidate = remove_sets(best, inst, params.max_rm, rng)
        uncovered = universe.difference(candidate.covered)
        candidate = rand_construct(
            candidate, uncovered, rowmap, improve, rng, params.eval_set
        )
        candidate = remove_redundant_sets(candidate, inst)
        accepted = len(candidate) < len(best)
        if accepted:
            best = candidate
        improve = accepted
        if trace is not None:
            trace(iteration, len(candidate), accepted, improve)
    return best


def _grasp_run(
    inst: Instance,
    params: GraspParams,
    rng: random.Random,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """Diversified initial construction, prune, then the improvement loop."""
    if inst.n == 0:
        return Cover.empty(0)
    rowmap = create_row_map(inst)
    cover = rand_construct(
        Cover.empty(inst.n), SuccinctSet.full(inst.n), rowmap, False, rng, params.eval_set
    )
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
