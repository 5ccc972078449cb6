"""Instance reduction: force unique coverers, drop dominated subsets.

The default is a single pass: (1) every subset that is the only coverer of
some element is forced into the solution and its elements marked covered;
(2) any remaining subset whose original element set is contained in another
remaining subset's original set is excluded (equal sets keep the lowest id),
as is any subset left with an empty restriction to the uncovered elements.

``fixpoint=True`` instead alternates forcing and dominance until stable,
with dominance evaluated on the restricted (residual) element sets.  This
reduces strictly more but is a different, more aggressive contract; both
modes preserve feasibility and the optimal cardinality.

Dominance reads each subset's elements from the instance's member arrays
(``core.Members``).  Its element columns share one frame, so testing a
candidate is a chain of plain ANDs, and each column lives only from the
first candidate that needs it to its element's last holder.  The residual
carries the member arrays of its kept subsets; past covered elements it is
``core.restrict``, whose masks are built from the restricted arrays.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import (
    Cover,
    Instance,
    Members,
    iter_bits,
    lift,
    member_arrays,
    restrict,
    select_members,
)

# Bits spanned per member above which a dominance column is built bit by
# bit rather than from a '0'/'1' buffer; on CPython 3.11 (x86-64) the two
# cost the same near 35.
_SPARSE = 35


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


def _force_unique_coverers(
    bits: Sequence[int],
    active: List[bool],
    forced: List[int],
    covered: int,
) -> int:
    """One forcing sweep; returns the new covered mask.

    Word-parallel ``once``/``twice`` masks over the active subsets give the
    uncovered elements with exactly one active coverer.  Their coverers are
    forced in ascending order of their lowest such element.
    """
    once = twice = 0
    for sid, b in enumerate(bits):
        if active[sid]:
            twice |= once & b
            once |= b
    unique = once & ~twice & ~covered
    if not unique:
        return covered
    firsts = []
    for sid, b in enumerate(bits):
        hit = b & unique
        if hit and active[sid]:
            firsts.append(((hit & -hit).bit_length(), sid))
    for _, sid in sorted(firsts):
        active[sid] = False
        forced.append(sid)
        covered |= bits[sid]
    return covered


def _column(bits: array) -> int:
    """Bitmask with bit ``q`` set for each ``q`` in the descending ``bits``.

    A dense column is written as one ``'0'``/``'1'`` byte per bit from the
    highest, ``hi``, down to the lowest, ``lo``, which ``int(buf, 2)`` reads
    as the mask shifted down by ``lo`` in one C-level conversion: one store
    per member plus a C-level pass over every spanned bit.  A sparse one,
    with more than ``_SPARSE`` bits spanned per member, ORs one bit per
    member into a little-endian byte buffer instead: more work per member,
    an eighth of the bytes.
    """
    hi, lo = bits[0], bits[-1]
    if hi - lo < _SPARSE * len(bits):
        buf = bytearray(b"0") * (hi - lo + 1)
        for q in bits:
            buf[hi - q] = 49  # '1'
        return int(buf, 2) << lo
    buf = bytearray((hi >> 3) + 1)
    for q in bits:
        buf[q >> 3] |= 1 << (q & 7)
    return int.from_bytes(buf, "little")


def _dominated(n: int, candidates: Sequence[int], members: Members) -> List[int]:
    """Candidates whose element set, read from ``members``, is inside another
    candidate's.

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
    frame: S's rarest column is taken as it is, the others are ANDed in
    without a shift, and the test stops once no such bit is left.  A column
    (see ``_column``) is built when a candidate first needs it and dropped
    after its element's last holder, so on block-structured instances only
    the current block's columns are alive at once.  Empty sets are neither
    dominated nor dominators.
    """
    starts, ids = members
    id_bits = max(candidates, default=0).bit_length()
    size_bits = n.bit_length()
    keys = []
    for sid in candidates:
        s, t = starts[sid], starts[sid + 1]
        if s < t:
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
    count = [len(h) for h in holders]
    # Elements in the order the scan passes their last holder; the walk
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
        rarest, *others = sorted(ids[starts[sid]:starts[sid + 1]], key=count.__getitem__)
        common = columns[rarest] or opened(rarest)
        q += 1  # a dominator's bit lies at or above this
        for e in others:
            if common.bit_length() <= q:
                break
            common &= columns[e] or opened(e)
        if common.bit_length() > q:
            dominated.append(sid)
    return dominated


def reduce(inst: Instance, fixpoint: bool = False) -> ReductionReport:
    """Reduce an instance, reporting forced/excluded subsets and the residual.

    Always succeeds; a fully reducible instance yields an empty residual.
    Element lists are read from ``inst.members``; the residual carries them,
    kept subsets only and renumbered past the covered elements.
    """
    bits = inst.masks
    members = inst.members
    active = [True] * inst.m
    forced: List[int] = []
    excluded: List[int] = []
    universe = (1 << inst.n) - 1

    covered = _force_unique_coverers(bits, active, forced, 0)
    while True:
        remaining = [sid for sid in range(inst.m) if active[sid]]
        if fixpoint and covered:
            sets = member_arrays(
                iter_bits(b & ~covered) if active[sid] else () for sid, b in enumerate(bits)
            )
        else:
            sets = members
        for sid in _dominated(inst.n, remaining, sets):
            active[sid] = False
            excluded.append(sid)
        if covered:
            for sid in remaining:
                if active[sid] and bits[sid] & ~covered == 0:
                    active[sid] = False
                    excluded.append(sid)
        if not fixpoint:
            break
        before = len(forced)
        covered = _force_unique_coverers(bits, active, forced, covered)
        if len(forced) == before:
            break

    subset_map = [sid for sid in range(inst.m) if active[sid]]
    if not covered:
        # The residual's elements are 0..n-1 and its masks the kept ones as
        # they are; with nothing excluded either, it is the instance itself.
        element_map: Sequence[int] = range(inst.n)
        if len(subset_map) == inst.m:
            residual = inst
        else:
            residual = Instance(
                inst.n, [bits[sid] for sid in subset_map], select_members(members, subset_map)
            )
    else:
        element_map = list(iter_bits(universe & ~covered))
        residual = restrict(inst, subset_map, element_map)

    excluded.sort()
    return ReductionReport(
        original=inst,
        forced=tuple(forced),
        excluded=tuple(excluded),
        covered=covered,
        residual=residual,
        element_to_original=tuple(element_map),
        subset_to_original=tuple(subset_map),
    )
