"""The shared set-cover data model on int bitmasks.

A set of elements is one non-negative int, bit ``e`` set iff element ``e``
is a member: the paper's succinct bit-level representation.  CPython stores
big ints in machine-word limbs, so union, intersection, difference and
popcount run word-parallel in C.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence


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


def uncovered_message(union: int) -> str:
    """The error for a family whose union of masks is ``union`` and misses
    some element: it names the lowest one, the lowest zero bit of ``union``."""
    return f"family does not cover element {(~union & (union + 1)).bit_length() - 1}"


def restrict_masks(masks: Iterable[int], element_ids: Sequence[int]) -> List[int]:
    """Each mask restricted to the ascending ``element_ids``, with
    ``element_ids[j]`` renumbered to bit ``j``.

    Consecutive ids ``lo..lo+k-1`` cost one shift per mask, plus an AND only
    where the mask reaches past them; a mask needing neither is returned as
    it is.  Any other ids are remapped member by member.
    """
    k = len(element_ids)
    if k == 0:
        return [0 for _ in masks]
    lo = element_ids[0]
    if element_ids[-1] - lo == k - 1:
        window = (1 << k) - 1
        out = []
        for b in masks:
            if lo:
                b >>= lo
            if b.bit_length() > k:
                b &= window
            out.append(b)
        return out
    keep = index_mask(element_ids, lo, element_ids[-1])
    local = {e: j for j, e in enumerate(element_ids)}
    out = []
    for b in masks:
        ids = [local[e] for e in iter_bits(b & keep)]
        out.append(index_mask(ids, ids[0], ids[-1]) if ids else 0)
    return out


class Instance:
    """A unicost covering instance: universe {0..n-1} and subsets with dense ids.

    Subset ``sid`` is the int bitmask ``masks[sid]`` (bit ``e`` set iff
    element ``e`` is a member), in the insertion order of the source file.
    The family must cover the universe and contain no empty subset.
    Instances are immutable after construction and safe to share.

    ``members`` is optional: per subset, the ascending list of its distinct
    elements, exactly the set bits of its mask, or ``None`` (the default).
    A parser or generator that already holds those lists passes them so that
    ``reduce`` need not decompose the masks again.  They are trusted as
    given, apart from their count; they are never pickled and take no part
    in ``==``.
    """

    __slots__ = ("n", "masks", "members")

    def __init__(
        self,
        n: int,
        subsets: Iterable[int],
        members: Optional[Sequence[Sequence[int]]] = None,
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
        if members is not None and len(members) != len(masks):
            raise ValueError(f"{len(members)} member lists for {len(masks)} subsets")
        self.n = n
        self.masks = tuple(masks)
        self.members = members

    @property
    def m(self) -> int:
        return len(self.masks)

    def coverers(self) -> List[List[int]]:
        """Per element, the ascending list of subset ids containing it."""
        lists: List[List[int]] = [[] for _ in range(self.n)]
        for sid, b in enumerate(self.masks):
            for e in iter_bits(b):
                lists[e].append(sid)
        return lists

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __reduce__(self):
        # Pickled as n and the int masks, loaded through the validating
        # constructor; member lists are left behind.
        return Instance, (self.n, self.masks)

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"


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
    union = 0
    for sid in c.chosen:
        if not 0 <= sid < inst.m:
            raise ValueError(f"unknown subset id {sid} for instance with m={inst.m}")
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
