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
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .core import Cover, Instance, iter_bits, lift, restrict_masks

# Positions spanned per member above which a dominance column is built bit
# by bit rather than from a '0'/'1' buffer; on CPython 3.11 (x86-64) the two
# cost the same near 45.
_SPARSE = 40


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


def _column(positions: array) -> int:
    """Bitmask with bit ``hi - p`` set for each ``p`` in the ascending
    ``positions``, where ``hi`` is the highest of them.

    A dense column is written as one ``'0'``/``'1'`` byte per position from
    the lowest to ``hi``, in position order, which ``int(buf, 2)`` reads as
    the reversed mask in one C-level conversion: one store per member plus
    a C-level pass over every spanned position.  A sparse one, with more
    than ``_SPARSE`` positions spanned per member, sets one bit per position
    instead: more work per member, an eighth of the bytes.
    """
    lo, hi = positions[0], positions[-1]
    if hi - lo < _SPARSE * len(positions):
        buf = bytearray(b"0") * (hi - lo + 1)
        for p in positions:
            buf[p - lo] = 49  # '1'
        return int(buf, 2)
    buf = bytearray(((hi - lo) >> 3) + 1)
    for p in positions:
        p = hi - p
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _dominated(
    n: int,
    masks: Union[Sequence[int], Mapping[int, int]],
    candidates: Sequence[int],
    members: Optional[Sequence[Sequence[int]]] = None,
) -> List[int]:
    """Candidates whose element set, ``masks[id]``, is inside another
    candidate's.

    Equal sets keep the lowest id.  Candidates are ranked by ``(lowest
    element, -size, id)``, packed into one int key per candidate.  A superset
    of S has a lowest element no higher than S's and, when that ties, more
    elements unless it equals S, in which case the lower id ranks first.  So
    everything that dominates S ranks before S, and anything ranked before S
    that contains S dominates it: S is dominated iff some position before
    S's lies in the column of every element of S, where an element's column
    is the bitmask of the positions of the candidates holding it.  Columns
    are stored reversed from their highest position, so one right shift
    keeps just the positions before S's and aligns them on the position just
    before it.  Each column is built on its own (see ``_column``); a dense
    one is one C-level ``int(buf, 2)`` over a ``'0'``/``'1'`` buffer.  The
    AND starts from the rarest column and stops once it is zero.  Empty
    sets are neither dominated nor dominators.

    ``members``, when given, holds each id's ascending, distinct elements
    (exactly the bits of its mask) and is read instead of decomposing the
    masks.
    """
    id_bits = max(candidates, default=0).bit_length()
    size_bits = n.bit_length()
    if members is None:
        keys = []
        for sid in candidates:
            b = masks[sid]
            if b:
                low = (b & -b).bit_length()
                keys.append((((low << size_bits) | (n - b.bit_count())) << id_bits) | sid)
    else:
        keys = [
            (((members[sid][0] << size_bits) | (n - len(members[sid]))) << id_bits) | sid
            for sid in candidates
        ]
    keys.sort()
    id_mask = (1 << id_bits) - 1
    ranked = [key & id_mask for key in keys]
    del keys

    # The one fork: where each ranked candidate's element list comes from.
    if members is None:
        flat = array("I")
        ends = array("I", [0])
        for sid in ranked:
            flat.extend(iter_bits(masks[sid]))
            ends.append(len(flat))

        def element_lists() -> Iterator[Sequence[int]]:
            return (flat[ends[pos]:ends[pos + 1]] for pos in range(len(ranked)))
    else:
        def element_lists() -> Iterator[Sequence[int]]:
            return map(members.__getitem__, ranked)

    holders = [array("I") for _ in range(n)]
    add = [h.append for h in holders]
    for pos, elements in enumerate(element_lists()):
        for e in elements:
            add[e](pos)
    del add
    count = [len(h) for h in holders]
    hi = [h[-1] if h else 0 for h in holders]
    columns = [_column(h) if h else 0 for h in holders]
    del holders

    dominated = []
    for pos, (sid, elements) in enumerate(zip(ranked, element_lists())):
        common = -1
        for e in sorted(elements, key=count.__getitem__):
            common &= columns[e] >> (hi[e] - pos + 1)
            if not common:
                break
        else:
            dominated.append(sid)
    return dominated


def reduce(inst: Instance, fixpoint: bool = False) -> ReductionReport:
    """Reduce an instance, reporting forced/excluded subsets and the residual.

    Always succeeds; a fully reducible instance yields an empty residual.
    Dominance on the unrestricted sets reads ``inst.members`` when the
    instance has them.
    """
    bits = inst.masks
    active = [True] * inst.m
    forced: List[int] = []
    excluded: List[int] = []
    universe = (1 << inst.n) - 1

    covered = _force_unique_coverers(bits, active, forced, 0)
    while True:
        remaining = [sid for sid in range(inst.m) if active[sid]]
        if fixpoint and covered:
            masked = {sid: bits[sid] & ~covered for sid in remaining}
            members = None
        else:
            masked, members = bits, inst.members
        for sid in _dominated(inst.n, masked, remaining, members):
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
            residual = Instance(inst.n, [bits[sid] for sid in subset_map])
    else:
        element_map = list(iter_bits(universe & ~covered))
        residual = Instance(
            len(element_map), restrict_masks((bits[sid] for sid in subset_map), element_map)
        )

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

