"""The shared set-cover data model on int bitmasks.

A set of elements is one non-negative int, bit ``e`` set iff element ``e``
is a member: the paper's succinct bit-level representation.  CPython stores
big ints in machine-word limbs, so union, intersection, difference and
popcount run word-parallel in C.

Every instance also carries ``Members``, the same family as two flat
``array('I')``: ``starts``, ``m + 1`` offsets into ``ids``, and ``ids``, each
subset's ascending, distinct elements.  A layer that walks the members
themselves (dominance in ``reduce``, the row map's coverer lists) reads
them there.  Parsers, the generator and ``restrict``, which builds every
piece that is solved apart, hand the arrays along beside the masks; only an
instance built from masks alone decomposes them, once.
"""
from __future__ import annotations

import sys
from array import array
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

# Per subset, its ascending, distinct elements: subset ``sid`` holds
# ``ids[starts[sid]:starts[sid + 1]]`` of the pair ``(starts, ids)``.
Members = Tuple[array, array]


def iter_bits(bits: int) -> Iterator[int]:
    """Ascending positions of the set bits of a non-negative int.

    The int is shifted down past each bit found, so a step costs the length
    of what is left of it rather than of the full-width int.
    """
    position = -1
    while bits:
        step = (bits & -bits).bit_length()
        position += step
        yield position
        bits >>= step


def index_mask(indices: Iterable[int], lo: int, hi: int) -> int:
    """The bitmask with bit ``i`` set for each ``i`` in ``indices``, all of
    which lie in ``lo..hi``.

    Each member is one shift and one OR on an int no wider than the range,
    never as wide as the universe; the result is shifted up by ``lo`` once.
    """
    bits = 0
    for i in indices:
        bits |= 1 << (i - lo)
    return bits << lo


def member_arrays(lists: Iterable[Iterable[int]]) -> Members:
    """The ``Members`` pair of the ascending, distinct element lists ``lists``,
    one per subset in id order."""
    starts = array("I", [0])
    ids = array("I")
    for elements in lists:
        ids.extend(elements)
        starts.append(len(ids))
    return starts, ids


def lower_ids(ids: array, by: int) -> array:
    """``ids`` with ``by`` taken from each entry, none of which is below ``by``.

    The entries are read as the digits of one int, base ``2 ** 32``, and
    ``by`` is taken from every digit in one big-int subtraction, which
    borrows across none of them: C-level work, not one Python step per entry.
    """
    if not by or not ids:
        return ids
    order = sys.byteorder
    packed = int.from_bytes(ids, order) - int.from_bytes(array("I", [by]) * len(ids), order)
    out = array("I")
    out.frombytes(packed.to_bytes(len(ids) * ids.itemsize, order))
    return out


def _gathered(
    members: Members, family: Sequence[int], keep: Optional[Callable[[int], Optional[int]]] = None
) -> Members:
    """The member arrays of the subsets ``family``, in that order, each
    element ``e`` replaced by ``keep(e)`` and dropped where that is ``None``."""
    starts, ids = members
    out_starts = array("I", [0])
    out = array("I")
    for sid in family:
        chunk = ids[starts[sid]:starts[sid + 1]]
        out.extend(chunk if keep is None else [j for j in map(keep, chunk) if j is not None])
        out_starts.append(len(out))
    return out_starts, out


def select_members(members: Members, family: Sequence[int], lo: int) -> Members:
    """The member arrays of the subsets ``family``, in that order, with ``lo``
    taken from every element, none of which is below ``lo``: one slice per
    subset and one C-level ``lower_ids``."""
    starts, ids = _gathered(members, family)
    return starts, lower_ids(ids, lo)


def restrict_members(
    members: Members, family: Sequence[int], element_ids: Sequence[int]
) -> Members:
    """The member arrays of the subsets ``family``, in that order, each
    restricted to the ascending ``element_ids``, with ``element_ids[j]``
    renumbered to ``j``."""
    return _gathered(members, family, dict(zip(element_ids, range(len(element_ids)))).get)


def uncovered_message(union: int) -> str:
    """The error for a family whose union of masks is ``union`` and misses
    some element: it names the lowest one, the lowest zero bit of ``union``."""
    return f"family does not cover element {(~union & (union + 1)).bit_length() - 1}"


class Instance:
    """A unicost covering instance: universe {0..n-1} and subsets with dense ids.

    Subset ``sid`` is the int bitmask ``masks[sid]`` (bit ``e`` set iff
    element ``e`` is a member), in the insertion order of the source file.
    The family must cover the universe and contain no empty subset.
    Instances are immutable after construction and safe to share.

    ``members`` is the ``Members`` arrays of the same family, exactly the
    set bits of each mask.  A caller that already holds the element lists
    passes them, trusted as given apart from their shape; without them the
    constructor decomposes the masks once.  They are never pickled (an
    unpickled instance builds them again) and take no part in ``==``.
    """

    __slots__ = ("n", "masks", "members")

    def __init__(
        self,
        n: int,
        subsets: Iterable[int],
        members: Optional[Members] = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        masks = []
        union = 0
        for sid, b in enumerate(subsets):
            if b <= 0 or b.bit_length() > n:
                if b == 0:
                    raise ValueError(f"subset {sid} is empty")
                raise ValueError(
                    f"subset {sid}: bit pattern has members outside the capacity"
                )
            masks.append(b)
            union |= b
        # Counted, not compared with the full mask: a declared n costs no
        # allocation of n bits before the family is known to cover it.
        if union.bit_count() != n:
            raise ValueError(uncovered_message(union))
        starts, ids = members = members or member_arrays(map(iter_bits, masks))
        if len(starts) != len(masks) + 1 or starts[-1] != len(ids):
            raise ValueError(
                f"member arrays of {len(starts)} offsets and {len(ids)} ids"
                f" for {len(masks)} subsets"
            )
        self.n = n
        self.masks = tuple(masks)
        self.members = members

    @property
    def m(self) -> int:
        return len(self.masks)

    def coverers(self) -> List[List[int]]:
        """Per element, the ascending list of subset ids containing it: the
        member arrays transposed."""
        lists: List[List[int]] = [[] for _ in range(self.n)]
        add = [held.append for held in lists]
        starts, ids = self.members
        s = 0
        for sid, t in enumerate(islice(starts, 1, None)):
            for e in ids[s:t]:
                add[e](sid)
            s = t
        return lists

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __reduce__(self):
        # Pickled as n and the int masks, loaded through the validating
        # constructor, which builds the member arrays again.
        return Instance, (self.n, self.masks)

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"


def restrict(inst: Instance, family: Sequence[int], element_ids: Sequence[int]) -> Instance:
    """The subsets ``family`` of ``inst``, in that order, each restricted to
    the ascending ``element_ids`` with ``element_ids[j]`` renumbered to
    ``j``, as an instance on ``len(element_ids)`` elements.

    This builds every piece the pipeline solves apart: the reduced residual,
    each union-find component and each bipartition side.  Where
    ``element_ids`` run consecutively from ``lo`` and every subset's first
    and last member lie inside them, each mask is shifted down by ``lo``
    (kept as it is when ``lo`` is 0) and the arrays are lowered by ``lo``.
    Otherwise the masks are built from the restricted member arrays; no
    restriction may be empty.
    """
    starts, ids = inst.members
    size = len(element_ids)
    lo = element_ids[0] if size else 0
    hi = lo + size - 1
    # Every subset fits a run as long as the universe, which is all of it.
    if size and element_ids[-1] == hi and (size == inst.n or all(
        lo <= ids[starts[sid]] and ids[starts[sid + 1] - 1] <= hi for sid in family
    )):
        bits = inst.masks
        masks = [bits[sid] >> lo for sid in family] if lo else [bits[sid] for sid in family]
        return Instance(size, masks, select_members(inst.members, family, lo))
    starts, ids = members = restrict_members(inst.members, family, element_ids)
    spans = zip(starts, islice(starts, 1, None))
    masks = [index_mask(ids[s:t], ids[s], ids[t - 1]) for s, t in spans]
    return Instance(size, masks, members)


class Cover:
    """A (partial) cover: ordered chosen subset ids plus ``covered``, the int
    mask of the elements they cover.

    ``add`` is the only way to grow ``chosen``: it keeps the id set beside it
    that makes the duplicate check and ``in`` O(1).  Single-owner mutable
    state; transfer between workers, never share.
    """

    __slots__ = ("chosen", "covered", "_ids")

    def __init__(self, chosen: Sequence[int], covered: int) -> None:
        self._ids = set(chosen)
        if len(self._ids) != len(chosen):
            raise ValueError("cover contains duplicate subset ids")
        self.chosen = list(chosen)
        self.covered = covered

    @classmethod
    def empty(cls) -> "Cover":
        return cls([], 0)

    def add(self, subset_id: int, mask: int) -> None:
        """Choose subset ``subset_id``, whose int mask is ``mask``."""
        if subset_id in self._ids:
            raise ValueError(f"subset {subset_id} already chosen")
        self._ids.add(subset_id)
        self.chosen.append(subset_id)
        self.covered |= mask

    def __len__(self) -> int:
        return len(self.chosen)

    def __contains__(self, subset_id: int) -> bool:
        return subset_id in self._ids

    def __repr__(self) -> str:
        return f"Cover(size={len(self.chosen)}, covered={self.covered.bit_count()})"


def cover_is_feasible(c: Cover, inst: Instance) -> bool:
    """True iff the chosen subsets of ``inst`` together cover its universe.

    The masks are read from ``inst`` by id, never from ``c.covered``, so a
    cover whose own mask overstates its coverage is still caught.
    """
    masks = inst.masks
    m = len(masks)
    union = 0
    for sid in c.chosen:
        if not 0 <= sid < m:
            raise ValueError(f"unknown subset id {sid} for instance with m={m}")
        union |= masks[sid]
    return union.bit_count() == inst.n


def lift(
    inst: Instance,
    families: Iterable[Sequence[int]],
    covers: Iterable[Cover],
    first: Iterable[int] = (),
) -> Cover:
    """One cover of ``inst`` from the covers of pieces of it.

    The ids in ``first`` are chosen first, then each piece cover's chosen
    ids in order, mapped to ``inst``'s ids through that piece's family
    (``family[local_id]`` is the id in ``inst``).  An id that is already
    chosen is skipped.
    """
    pieces = zip(families, covers, strict=True)
    ids = chain(first, *(map(family.__getitem__, c.chosen) for family, c in pieces))
    chosen = list(dict.fromkeys(ids))
    masks = inst.masks
    covered = 0
    for sid in chosen:
        covered |= masks[sid]
    return Cover(chosen, covered)
