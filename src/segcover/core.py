"""Bit-parallel set representation and the shared set-cover data model."""
from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

WORD_BITS = 64


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


class SuccinctSet:
    """Fixed-capacity set of small integers backed by a single big-int bitmask.

    Bit ``b`` is set iff element ``b`` is a member.  CPython stores big
    integers in machine-word limbs, so union, intersection, difference and
    popcount all run word-parallel in C; correctness never depends on the
    word size.  Bits at positions >= capacity are always zero.

    This is the set type of the API boundary: an :class:`Instance` stores
    its subsets as plain int masks, and a SuccinctSet stands for its mask
    wherever an int is expected (``__index__``), so one can be passed for a
    subset.  Scratch sets (a cover's coverage, the uncovered set during
    construction) are mutated in place by their single owner.
    """

    __slots__ = ("capacity", "_bits")

    def __init__(self, capacity: int, bits: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if bits < 0 or (bits >> capacity) != 0:
            raise ValueError("bit pattern has members outside the capacity")
        self.capacity = capacity
        self._bits = bits

    @classmethod
    def from_indices(cls, capacity: int, indices: Iterable[int]) -> "SuccinctSet":
        members = indices if isinstance(indices, (list, tuple)) else list(indices)
        if not members:
            return cls(capacity)
        lo, hi = min(members), max(members)
        if lo < 0 or hi >= capacity:
            bad = next(i for i in members if not 0 <= i < capacity)
            raise ValueError(f"element {bad} outside universe of size {capacity}")
        return cls(capacity, index_mask(members, lo, hi))

    @classmethod
    def full(cls, capacity: int) -> "SuccinctSet":
        """The set {0, .., capacity-1}."""
        return cls(capacity, (1 << capacity) - 1)

    def copy(self) -> "SuccinctSet":
        return SuccinctSet(self.capacity, self._bits)

    def cardinality(self) -> int:
        return self._bits.bit_count()

    def words(self) -> List[int]:
        """The mask chunked into 64-bit words, LSB word first."""
        mask = (1 << WORD_BITS) - 1
        nwords = (self.capacity + WORD_BITS - 1) // WORD_BITS
        bits = self._bits
        return [(bits >> (w * WORD_BITS)) & mask for w in range(nwords)]

    def add(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise ValueError(f"element {index} outside universe of size {self.capacity}")
        self._bits |= 1 << index

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.capacity and (self._bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._bits)

    def __bool__(self) -> bool:
        return self._bits != 0

    def __index__(self) -> int:
        return self._bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuccinctSet):
            return NotImplemented
        return self.capacity == other.capacity and self._bits == other._bits

    def __repr__(self) -> str:
        members = list(self)
        shown = members if len(members) <= 12 else members[:12] + ["..."]
        return f"SuccinctSet(capacity={self.capacity}, members={shown})"

    def _check_capacity(self, other: "SuccinctSet") -> None:
        if self.capacity != other.capacity:
            raise ValueError(
                f"capacity mismatch: {self.capacity} vs {other.capacity}"
            )

    def union(self, other: "SuccinctSet") -> "SuccinctSet":
        self._check_capacity(other)
        return SuccinctSet(self.capacity, self._bits | other._bits)

    def intersection(self, other: "SuccinctSet") -> "SuccinctSet":
        self._check_capacity(other)
        return SuccinctSet(self.capacity, self._bits & other._bits)

    def difference(self, other: "SuccinctSet") -> "SuccinctSet":
        self._check_capacity(other)
        return SuccinctSet(self.capacity, self._bits & ~other._bits)

    def union_inplace(self, other: "SuccinctSet") -> None:
        self._check_capacity(other)
        self._bits |= other._bits

    def difference_inplace(self, other: "SuccinctSet") -> None:
        self._check_capacity(other)
        self._bits &= ~other._bits

    def intersection_count(self, other: "SuccinctSet") -> int:
        self._check_capacity(other)
        return (self._bits & other._bits).bit_count()

    def is_subset_of(self, other: "SuccinctSet") -> bool:
        self._check_capacity(other)
        return self._bits & ~other._bits == 0


class Instance:
    """A unicost covering instance: universe {0..n-1} and subsets with dense ids.

    Subset ``sid`` is the int bitmask ``masks[sid]`` (bit ``e`` set iff
    element ``e`` is a member), in the insertion order of the source file.
    The family must cover the universe and contain no empty subset.
    ``subsets`` may hold int masks or SuccinctSets of capacity ``n``.
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, subsets: Iterable[Union[int, SuccinctSet]]) -> None:
        if n < 0:
            raise ValueError(f"universe size must be >= 0, got {n}")
        masks = []
        union = 0
        for sid, b in enumerate(subsets):
            if isinstance(b, SuccinctSet):
                if b.capacity != n:
                    raise ValueError(
                        f"subset {sid} has capacity {b.capacity}, expected {n}"
                    )
                b = int(b)
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
        self.n = n
        self.masks = tuple(masks)

    @property
    def m(self) -> int:
        return len(self.masks)

    @property
    def subsets(self) -> Tuple[SuccinctSet, ...]:
        """The family as SuccinctSets, built anew on every access: bind it
        once rather than index it in a loop."""
        n = self.n
        return tuple(SuccinctSet(n, b) for b in self.masks)

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
        # constructor.
        return Instance, (self.n, self.masks)

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m})"


class Cover:
    """A (partial) cover: ordered chosen subset ids plus their coverage mask.

    ``add`` is the only way to grow ``chosen``: it keeps the id set beside it
    that makes the duplicate check and ``in`` O(1).  Single-owner mutable
    state; transfer between workers, never share.
    """

    __slots__ = ("chosen", "covered", "_ids")

    def __init__(self, chosen: Sequence[int], covered: SuccinctSet) -> None:
        self._ids = set(chosen)
        if len(self._ids) != len(chosen):
            raise ValueError("cover contains duplicate subset ids")
        self.chosen = list(chosen)
        self.covered = covered

    @classmethod
    def empty(cls, capacity: int) -> "Cover":
        return cls([], SuccinctSet(capacity))

    def add(self, subset_id: int, mask: int) -> None:
        """Choose subset ``subset_id``, whose int mask (or SuccinctSet) is ``mask``."""
        if subset_id in self._ids:
            raise ValueError(f"subset {subset_id} already chosen")
        self._ids.add(subset_id)
        self.chosen.append(subset_id)
        self.covered._bits |= index(mask)

    def copy(self) -> "Cover":
        return Cover(list(self.chosen), self.covered.copy())

    def __len__(self) -> int:
        return len(self.chosen)

    def __contains__(self, subset_id: int) -> bool:
        return subset_id in self._ids

    def __repr__(self) -> str:
        return f"Cover(size={len(self.chosen)}, covered={self.covered.cardinality()})"


def cover_is_feasible(c: Cover, inst: Instance) -> bool:
    """True iff the cover's coverage mask equals the instance universe."""
    for sid in c.chosen:
        if not 0 <= sid < inst.m:
            raise ValueError(f"unknown subset id {sid} for instance with m={inst.m}")
    if c.covered.capacity != inst.n:
        raise ValueError(
            f"cover capacity {c.covered.capacity} does not match universe {inst.n}"
        )
    return int(c.covered) == (1 << inst.n) - 1
