"""Deterministic greedy baseline: always take the largest marginal gain."""
from __future__ import annotations

from heapq import heapify, heappop, heapreplace

from .core import Cover, Instance


def greedy_solve(inst: Instance) -> Cover:
    """Pick the subset covering the most uncovered elements until feasible.

    Ties break toward the lowest subset id.  Gains are evaluated lazily
    (Minoux's accelerated greedy): a heap holds ``(-bound, id)`` where the
    bound is a gain the subset had earlier, seeded with its size.  Gains
    only shrink as elements get covered, so when the top entry's fresh gain
    still equals its bound no other subset can beat it, and the heap order
    has already put any equal-gain subset with a lower id above it.  A stale
    top is pushed back with its fresh gain, or dropped once the gain is 0.
    """
    cover = Cover.empty()
    masks = inst.masks
    uncovered = (1 << inst.n) - 1
    heap = [(-b.bit_count(), sid) for sid, b in enumerate(masks)]
    heapify(heap)
    while uncovered:
        if not heap:
            raise RuntimeError("no subset covers a remaining element")
        bound, sid = heap[0]
        bits = masks[sid]
        gain = (bits & uncovered).bit_count()
        if gain == -bound:
            heappop(heap)
            cover.add(sid, bits)
            uncovered &= ~bits
        elif gain:
            heapreplace(heap, (-gain, sid))
        else:
            heappop(heap)
    return cover
