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
from typing import Dict, Iterable, List, Sequence, Tuple

from .core import Cover, Instance, SuccinctSet, iter_bits, restrict_masks


@dataclass(frozen=True)
class ReductionReport:
    """Reduction bookkeeping: what was forced, excluded, covered, and kept.

    The counting identities hold exactly:
    ``original.n == covered.cardinality() + residual.n`` and
    ``original.m == len(forced) + len(excluded) + residual.m``.
    """

    original: Instance
    forced: Tuple[int, ...]
    excluded: Tuple[int, ...]
    covered: SuccinctSet
    residual: Instance
    element_to_original: Tuple[int, ...]
    subset_to_original: Tuple[int, ...]

    def lift_cover(self, residual_cover: Cover) -> Cover:
        """Translate a residual cover back to original ids, forced ids first."""
        cover = Cover.empty(self.original.n)
        masks = self.original.masks
        for sid in self.forced:
            cover.add(sid, masks[sid])
        for sid in residual_cover.chosen:
            orig = self.subset_to_original[sid]
            cover.add(orig, masks[orig])
        return cover

    def summary(self) -> dict:
        return {
            "elements": self.original.n,
            "covered": self.covered.cardinality(),
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
    ``positions``, where ``hi`` is the highest of them."""
    hi = positions[-1]
    buf = bytearray(((hi - positions[0]) >> 3) + 1)
    for p in positions:
        p = hi - p
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _dominated(n: int, masked: Dict[int, int]) -> List[int]:
    """Ids whose element set, ``masked[id]``, is inside another candidate's.

    Equal sets keep the lowest id.  Candidates are ranked by
    ``(lowest element, -size, id)``.  A superset of S has a lowest element no
    higher than S's and, when that ties, more elements unless it equals S,
    in which case the lower id ranks first.  So everything that dominates S
    ranks before S, and anything ranked before S that contains S dominates
    it: S is dominated iff some position before S's lies in the column of
    every element of S, where an element's column is the bitmask of the
    positions of the candidates holding it.  Columns are stored reversed
    from their highest position, so one right shift keeps just the
    positions before S's and aligns them on the position just before it.
    The AND starts from the rarest column and stops once it is zero.  Empty
    sets are neither dominated nor dominators.
    """
    ranked = [
        sid
        for _, _, sid in sorted(
            ((b & -b).bit_length(), -b.bit_count(), sid) for sid, b in masked.items() if b
        )
    ]

    members = array("I")
    ends = array("I")
    holders = [array("I") for _ in range(n)]
    for pos, sid in enumerate(ranked):
        elements = list(iter_bits(masked[sid]))
        members.extend(elements)
        ends.append(len(members))
        for e in elements:
            holders[e].append(pos)
    count = [len(h) for h in holders]
    hi = [h[-1] if h else 0 for h in holders]
    columns = [_column(h) if h else 0 for h in holders]
    del holders

    dominated = []
    start = 0
    for pos, sid in enumerate(ranked):
        elements = sorted(members[start:ends[pos]], key=count.__getitem__)
        start = ends[pos]
        common = -1
        for e in elements:
            common &= columns[e] >> (hi[e] - pos + 1)
            if not common:
                break
        else:
            dominated.append(sid)
    return dominated


def reduce(inst: Instance, fixpoint: bool = False) -> ReductionReport:
    """Reduce an instance, reporting forced/excluded subsets and the residual.

    Always succeeds; a fully reducible instance yields an empty residual.
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
        else:
            masked = {sid: bits[sid] for sid in remaining}
        for sid in _dominated(inst.n, masked):
            active[sid] = False
            excluded.append(sid)
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
    # With nothing covered the residual's elements are 0..n-1, a run that
    # keeps the original ints.
    element_map = list(iter_bits(universe & ~covered)) if covered else range(inst.n)
    residual = Instance(
        len(element_map), restrict_masks((bits[sid] for sid in subset_map), element_map)
    )

    excluded.sort()
    return ReductionReport(
        original=inst,
        forced=tuple(forced),
        excluded=tuple(excluded),
        covered=SuccinctSet(inst.n, covered),
        residual=residual,
        element_to_original=tuple(element_map),
        subset_to_original=tuple(subset_map),
    )


TABLE_COLUMNS = ("|X|", "X_cov", "X_uncov", "|F|", "F_inc", "F_exc", "F_left")


def format_reduction_table(rows: Iterable[Tuple[str, ReductionReport]]) -> str:
    """Plain-text reduction summary table, one row per named report."""
    header = ("instance",) + TABLE_COLUMNS
    body = []
    for name, report in rows:
        s = report.summary()
        body.append(
            (
                name,
                str(s["elements"]),
                str(s["covered"]),
                str(s["uncovered"]),
                str(s["subsets"]),
                str(s["forced"]),
                str(s["excluded"]),
                str(s["remaining"]),
            )
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in body:
        lines.append("  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
