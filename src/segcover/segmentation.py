"""Connected components of the element co-occurrence graph via union-find.

Two elements co-occur when some subset contains both.  The graph is never
materialised: each subset's elements are union-ed against its first element
(star unions).  With path halving, even without union by rank, that costs
O(M log_{1+M/n} n) for M memberships (Tarjan and van Leeuwen 1984): near
linear when subsets are large.  Every subset lies entirely inside one
component, so the instance splits into independent subinstances whose
covers merge back without repair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .core import Cover, Instance, SuccinctSet, cover_is_feasible, iter_bits, restrict_masks


class UnionFind:
    """Disjoint sets over 0..n-1 with union by rank and path compression."""

    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        rank = self.rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        return True


@dataclass(frozen=True)
class Component:
    """One independent piece: original element ids, subfamily, and the remap."""

    elements: SuccinctSet
    subfamily: Tuple[int, ...]
    subinstance: Instance
    element_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Segmentation:
    """Partition of an instance into components, ordered by smallest element."""

    instance: Instance
    components: Tuple[Component, ...]


def find_groups(inst: Instance) -> Segmentation:
    """Split an instance along the connected components of co-occurrence.

    The unions run inline with path halving, and link the larger root under
    the smaller, so every parent is at most its child and each root is its
    component's smallest element.  A component whose elements are one run of
    consecutive ids takes its subsets' masks by a shift.
    """
    n = inst.n
    bits = inst.masks
    parent = list(range(n))
    for b in bits:
        members = iter_bits(b)
        root = next(members)
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        for e in members:
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            if e < root:
                parent[root] = e
                root = e
            elif e > root:
                parent[e] = root
    for e in range(n):  # ascending, so parent[e]'s own parent is already a root
        parent[e] = parent[parent[e]]

    element_lists: Dict[int, List[int]] = {root: [] for root in parent}
    for e, root in enumerate(parent):
        element_lists[root].append(e)
    families: Dict[int, List[int]] = {root: [] for root in element_lists}
    for sid, b in enumerate(bits):
        families[parent[(b & -b).bit_length() - 1]].append(sid)

    components = []
    for root, elements in element_lists.items():
        family = families[root]
        masks = restrict_masks([bits[sid] for sid in family], elements)
        components.append(
            Component(
                elements=SuccinctSet.from_indices(n, elements),
                subfamily=tuple(family),
                subinstance=Instance(len(elements), masks),
                element_ids=tuple(elements),
            )
        )
    return Segmentation(instance=inst, components=tuple(components))


def merge_partial_covers(seg: Segmentation, partials: Sequence[Cover]) -> Cover:
    """Combine per-component covers into a cover of the original instance.

    Each partial must be feasible for its component's subinstance; the merge
    then needs no repair because components share no elements.
    """
    if len(partials) != len(seg.components):
        raise ValueError(
            f"expected {len(seg.components)} partial covers, got {len(partials)}"
        )
    merged = Cover.empty(seg.instance.n)
    masks = seg.instance.masks
    for index, (comp, partial) in enumerate(zip(seg.components, partials)):
        if not cover_is_feasible(partial, comp.subinstance):
            raise ValueError(f"partial cover for component {index} is infeasible")
        for local_sid in partial.chosen:
            orig = comp.subfamily[local_sid]
            merged.add(orig, masks[orig])
    return merged


def segmentation_csv(seg: Segmentation) -> str:
    """Diagnostic dump: one line per component with its size and family size."""
    lines = ["component,n_elements,n_subsets"]
    for i, comp in enumerate(seg.components):
        lines.append(f"{i},{len(comp.element_ids)},{len(comp.subfamily)}")
    return "\n".join(lines) + "\n"
