"""Instance reduction: force unique coverers, optionally drop dominated subsets.

``force`` is the forcing sweep: every subset that is the only coverer of
some element is forced into the solution and its elements marked covered,
and any other subset left with an empty restriction to the uncovered
elements is dropped.  This is all the run path reduces by.  ``reduce`` adds
dominance on top: a subset whose element set is contained in another's is
excluded too (equal sets keep the lowest id).  Both preserve feasibility and
the optimal cardinality.

Dominance reads the instance's member arrays (``core.Members``).  Its
element columns share one frame, so testing a candidate ANDs its members'
columns in stored order, and each column lives only from the first
candidate that needs it to its element's last holder.  The residual is the
instance itself when nothing is forced or excluded, and otherwise
``core.restrict`` of the kept subsets to the uncovered elements.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Cover, Instance, iter_bits, lift, multiplicity, restrict


@dataclass(frozen=True)
class ReductionReport:
    """Reduction bookkeeping: what was forced, excluded, covered, and kept.

    ``covered`` is the int mask of the original elements the forced subsets
    cover.  The counting identities hold exactly:
    ``original.n == covered.bit_count() + residual.n`` and
    ``original.m == len(forced) + len(excluded) + residual.m``.
    """

    original: Instance
    forced: Tuple[int, ...]
    excluded: Tuple[int, ...]
    covered: int
    residual: Instance
    element_to_original: Tuple[int, ...]
    subset_to_original: Tuple[int, ...]

    def lift_cover(self, residual_cover: Cover) -> Cover:
        """Translate a residual cover back to original ids, forced ids first."""
        return lift(self.original, [self.subset_to_original], [residual_cover], self.forced)

    def summary(self) -> dict:
        return {
            "elements": self.original.n,
            "covered": self.covered.bit_count(),
            "uncovered": self.residual.n,
            "subsets": self.original.m,
            "forced": len(self.forced),
            "excluded": len(self.excluded),
            "remaining": self.residual.m,
        }


def _column(bits: array) -> int:
    """Bitmask with bit ``q`` set for each ``q`` in the descending ``bits``,
    ORed one bit per member into a little-endian byte buffer."""
    buf = bytearray((bits[0] >> 3) + 1)
    for q in bits:
        buf[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(buf, "little")


def _dominated(inst: Instance, candidates: Sequence[int]) -> List[int]:
    """Candidates whose element set, read from ``inst.members``, is inside
    another candidate's.

    Equal sets keep the lowest id.  Candidates are ranked by ``(lowest
    element, -size, id)``, packed into one int key per candidate.  A superset
    of S has a lowest element no higher than S's and, when that ties, more
    elements unless it equals S, in which case the lower id ranks first.  So
    everything that dominates S ranks before S, and anything ranked before S
    that contains S dominates it: S is dominated iff some position before
    S's lies in the column of every element of S, where an element's column
    is the bitmask of the positions of the candidates holding it.

    Of ``M`` ranked candidates, position ``p`` is bit ``M - 1 - p`` of every
    column, so the positions before S's are the bits above S's own in one
    frame: S's members' columns are ANDed into all ones, in stored order and
    without a shift, until no such bit is left.  A walk that ends marks S
    dominated; ``Instance`` has no empty subset, so no walk ends before its
    first AND.  A column (see ``_column``) is built when a candidate first
    needs it and dropped after its element's last holder, so on block-shaped
    instances only the current block's columns are alive at once.
    """
    n = inst.n
    starts, ids = inst.members
    id_bits = max(candidates, default=0).bit_length()
    size_bits = n.bit_length()
    keys = []
    for sid in candidates:
        s, t = starts[sid], starts[sid + 1]
        keys.append((((ids[s] << size_bits) | (n - t + s)) << id_bits) | sid)
    keys.sort()
    id_mask = (1 << id_bits) - 1
    ranked = [key & id_mask for key in keys]
    del keys
    top = len(ranked) - 1

    # Each element's holders as column bits, descending.
    holders = [array("I") for _ in range(n)]
    add = [h.append for h in holders]
    for q, sid in zip(range(top, -1, -1), ranked):
        for e in ids[starts[sid]:starts[sid + 1]]:
            add[e](q)
    del add
    # Elements in the order the scan passes their last holder; the drop loop
    # below always stops at an element of the current candidate.
    last = array("i", (h[-1] if h else -1 for h in holders))
    closing = sorted(range(n), key=last.__getitem__, reverse=True)
    columns: List[Optional[int]] = [None] * n

    def opened(e: int) -> int:
        column = columns[e] = _column(holders[e])
        holders[e] = None
        return column

    dominated = []
    k = 0
    for q, sid in zip(range(top, -1, -1), ranked):
        while last[closing[k]] > q:
            columns[closing[k]] = None
            k += 1
        q += 1  # a dominator's bit lies at or above this
        common = -1
        for e in ids[starts[sid]:starts[sid + 1]]:
            common &= columns[e] or opened(e)
            if common.bit_length() <= q:
                break
        else:
            dominated.append(sid)
    return dominated


def force(inst: Instance, excluded: Iterable[int] = ()) -> ReductionReport:
    """The forcing sweep: force each element's only coverer, then drop the
    ``excluded`` subsets (none may be forced) and those left with nothing
    uncovered.

    Word-parallel ``once``/``twice`` masks give the elements with exactly
    one coverer; their coverers are forced in ascending order of their
    lowest such element.  Always succeeds; a fully forced instance yields an
    empty residual, which carries the kept subsets' member arrays
    renumbered past the covered elements.
    """
    bits = inst.masks
    once, twice = multiplicity(bits)
    unique = once & ~twice
    firsts = []
    if unique:
        for sid, b in enumerate(bits):
            hit = b & unique
            if hit:
                firsts.append(((hit & -hit).bit_length(), sid))
    forced = [sid for _, sid in sorted(firsts)]
    covered = 0
    for sid in forced:
        covered |= bits[sid]

    dropped = set(forced)
    remaining = [sid for sid in range(inst.m) if sid not in dropped]
    excluded = set(excluded)
    if covered:
        excluded.update(sid for sid in remaining if bits[sid] & ~covered == 0)
    subset_map = [sid for sid in remaining if sid not in excluded]
    universe = (1 << inst.n) - 1
    element_map = list(iter_bits(universe & ~covered)) if covered else range(inst.n)
    # Nothing forced or excluded leaves the instance itself.
    residual = inst if len(subset_map) == inst.m else restrict(inst, subset_map, element_map)

    return ReductionReport(
        original=inst,
        forced=tuple(forced),
        excluded=tuple(sorted(excluded)),
        covered=covered,
        residual=residual,
        element_to_original=tuple(element_map),
        subset_to_original=tuple(subset_map),
    )


def reduce(inst: Instance) -> ReductionReport:
    """``force``, also excluding every dominated subset.

    Dominance is tested over the whole family: no forced subset is
    dominated (a superset would share its uniquely covered element), and a
    subset inside a forced one is left with nothing uncovered, so this
    excludes what testing the unforced subsets alone would.
    """
    return force(inst, _dominated(inst, range(inst.m)))
