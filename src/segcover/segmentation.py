"""Connected components of the element co-occurrence graph via union-find.

Two elements co-occur when some subset contains both.  The graph is never
materialised.  Each union-find root is its set's smallest element and keeps
the set's elements as a mask shifted down by the root.  A subset finds the
root of its lowest element (path halving, Tarjan and van Leeuwen 1984) and
tests its own mask against that root's in one shift and one AND-NOT.  Only
the members the test leaves are walked, and then at least two sets link;
there are at most n - 1 links, so at most n - 1 subsets are walked member by
member and every other one costs a find and a few word-parallel operations
on its mask.  A connected instance ends with one set, rooted at element 0,
and the scan stops as soon as that set holds all n elements: it pays only
for the subsets read up to the link that connects it.  Every subset lies
entirely inside one component, so the instance splits into independent
subinstances whose covers merge back without repair.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, tee
from typing import Dict, List, Sequence, Tuple

from .core import Cover, Instance, cover_is_feasible, iter_bits, lift, restrict


@dataclass(frozen=True)
class Component:
    """One independent piece: original element ids, subfamily, and the remap."""

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

    Links put the larger root under the smaller, so every parent is at most
    its child; a link ORs the other set's mask into the root's at its
    offset.  A subset's lowest element is the first of its member ids.  A
    connected instance, found as soon as element 0's set holds every
    element, is its own subinstance; otherwise each component's is
    ``core.restrict`` of its subsets to its elements.
    """
    n = inst.n
    bits = inst.masks
    starts, ids = inst.members
    # Each subset's lowest element, read only as far as the scan goes; the
    # second copy replays them to assign the families.
    lows, replay = tee(map(ids.__getitem__, islice(starts, inst.m)))
    parent = list(range(n))
    held = [1] * n
    for b, root in zip(bits, lows):
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        rest = (b >> root) & ~held[root]
        if not rest:
            continue
        base = root
        for e in iter_bits(rest):
            e += base
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            if e < root:
                parent[root] = e
                held[e] |= held[root] << (root - e)
                held[root] = 0
                root = e
            elif e > root:
                parent[e] = root
                held[root] |= held[e] << (e - root)
                held[e] = 0
        if not root and held[0].bit_count() == n:
            break
    if n and held[0].bit_count() == n:
        whole = Component(tuple(range(inst.m)), inst, tuple(range(n)))
        return Segmentation(instance=inst, components=(whole,))
    for e in range(n):  # ascending, so parent[e]'s own parent is already a root
        parent[e] = parent[parent[e]]

    element_lists: Dict[int, List[int]] = {root: [] for root in parent}
    for e, root in enumerate(parent):
        element_lists[root].append(e)
    families: Dict[int, List[int]] = {root: [] for root in element_lists}
    for sid, low in enumerate(replay):
        families[parent[low]].append(sid)

    components = tuple(
        Component(
            subfamily=tuple(families[root]),
            subinstance=restrict(inst, families[root], elements),
            element_ids=tuple(elements),
        )
        for root, elements in element_lists.items()
    )
    return Segmentation(instance=inst, components=components)


def merge_partial_covers(seg: Segmentation, partials: Sequence[Cover]) -> Cover:
    """Combine per-component covers into a cover of the original instance.

    Each partial must be feasible for its component's subinstance; the merge
    then needs no repair because components share no elements.
    """
    if len(partials) != len(seg.components):
        raise ValueError(
            f"expected {len(seg.components)} partial covers, got {len(partials)}"
        )
    for index, (comp, partial) in enumerate(zip(seg.components, partials)):
        if not cover_is_feasible(partial, comp.subinstance):
            raise ValueError(f"partial cover for component {index} is infeasible")
    return lift(seg.instance, [comp.subfamily for comp in seg.components], partials)
