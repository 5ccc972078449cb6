"""Deterministic greedy baseline: always take the largest marginal gain.

``cli`` runs ``greedy_solve`` on each piece ``grasp_su.split`` gives greedy
(the co-occurrence components), and ``interleave`` merges the piece covers
into the cover that ``greedy_solve`` gives on the whole instance.  Pieces share no elements, so
a pick's gain depends only on earlier picks in its own piece, and whole
greedy restricted to one piece is that piece's greedy.  Gains only shrink,
so every greedy run picks in ascending ``(-gain at pick time, id)`` order:
whole greedy is the per-piece picks sorted by that key.
"""
from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Sequence

from .core import Cover, Instance
from .segmentation import Segmentation


def greedy_solve(inst: Instance) -> Cover:
    """Pick the subset covering the most uncovered elements until feasible.

    Ties break toward the lowest subset id.  Gains are evaluated lazily
    (Minoux's accelerated greedy): a heap holds ``((n - bound) << id_bits)
    | id``, one int that orders as ``(-bound, id)``, where the bound is a
    gain the subset had earlier, seeded with its size.  Gains only shrink as
    elements get covered, so when the top entry's fresh gain still equals
    its bound no other subset can beat it, and the heap order has already
    put any equal-gain subset with a lower id above it.  A stale top is
    pushed back with its fresh gain, or dropped once the gain is 0.
    """
    cover = Cover.empty()
    masks = inst.masks
    n = inst.n
    uncovered = (1 << n) - 1
    id_bits = inst.m.bit_length()
    id_mask = (1 << id_bits) - 1
    heap = [((n - b.bit_count()) << id_bits) | sid for sid, b in enumerate(masks)]
    heapify(heap)
    while uncovered:
        if not heap:
            raise RuntimeError("no subset covers a remaining element")
        top = heap[0]
        sid = top & id_mask
        bits = masks[sid]
        gain = (bits & uncovered).bit_count()
        if gain == n - (top >> id_bits):
            heappop(heap)
            cover.add(sid, bits)
            uncovered &= ~bits
        elif gain:
            heapreplace(heap, ((n - gain) << id_bits) | sid)
        else:
            heappop(heap)
    return cover


def interleave(seg: Segmentation, partials: Sequence[Cover]) -> Cover:
    """The greedy cover of ``seg.instance`` from each component's greedy
    cover, picks ordered by gain at pick time descending, then by id."""
    picks = []
    for comp, partial in zip(seg.components, partials, strict=True):
        masks = comp.subinstance.masks
        covered = 0
        for sid in partial.chosen:
            bits = masks[sid]
            picks.append((-(bits & ~covered).bit_count(), comp.subfamily[sid]))
            covered |= bits
    picks.sort()
    cover = Cover.empty()
    masks = seg.instance.masks
    for _, sid in picks:
        cover.add(sid, masks[sid])
    return cover
