"""Forced balanced bipartition of a connected instance via a maximum spanning tree.

The weighted co-occurrence graph counts, per element pair, how many subsets
contain both.  A maximum spanning tree keeps the strongest interactions;
removing the tree edge that best balances the two sides' internal tree
weight yields a forced two-way split.  Subsets spanning both sides are
restricted (split) per side rather than duplicated, which is exactly why
this strategy tends to degrade solution quality: it is provided as a
faithful, diagnosable baseline, not as a recommended segmentation.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import List, Sequence, Tuple

from .core import Cover, Instance, index_mask, lift, restrict
from .grasp import remove_redundant_sets
from .segmentation import Component

Edge = Tuple[int, int, int]


@dataclass(frozen=True)
class WeightedCoGraph:
    """Element co-occurrence graph with multiplicity weights (i < j, w >= 1)."""

    instance: Instance
    edges: Tuple[Edge, ...]


@dataclass(frozen=True)
class Bipartition:
    """A two-way split: the cut edge, both sides, and the maximum spanning tree.

    ``weight1``/``weight2`` sum the spanning-tree edge weights internal to
    each side.
    """

    cut_edge: Edge
    side1: Component
    side2: Component
    weight1: int
    weight2: int
    tree_edges: Tuple[Edge, ...]


def build_cograph(inst: Instance) -> WeightedCoGraph:
    """Count co-occurring element pairs across all subsets."""
    starts, ids = inst.members
    spans = zip(starts, islice(starts, 1, None))
    weights = Counter(chain.from_iterable(combinations(ids[s:t], 2) for s, t in spans))
    edges = tuple(sorted((i, j, w) for (i, j), w in weights.items()))
    return WeightedCoGraph(instance=inst, edges=edges)


def _side_component(inst: Instance, elements: List[int]) -> Component:
    """Restrict the family to one side; empty restrictions are dropped."""
    side = index_mask(elements, 0)
    family = [sid for sid, b in enumerate(inst.masks) if b & side]
    return Component(
        subfamily=tuple(family),
        subinstance=restrict(inst, family, elements),
        element_ids=tuple(elements),
    )


def mst_bipartition(g: WeightedCoGraph) -> Bipartition:
    """Split along the most weight-balanced cut of a maximum spanning tree.

    Kruskal on descending weights (ties lexicographic) builds the tree; each
    tree edge is evaluated by the tree-internal weight of the two sides its
    removal creates.  Balance ties break toward the lower-weight cut edge,
    then lexicographically.  Side 1 is the side containing the smaller
    endpoint of the cut edge.  Disconnected graphs are rejected: they
    already segment for free via union-find.
    """
    inst = g.instance
    n = inst.n
    if n < 2:
        raise ValueError("bipartition needs at least two elements")
    # Kruskal over path-halving roots, as in ``find_groups``.
    parent = list(range(n))
    tree: List[Edge] = []
    for edge in sorted(g.edges, key=lambda e: (-e[2], e[0], e[1])):
        a, b = edge[0], edge[1]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[max(a, b)] = min(a, b)
            tree.append(edge)
    if len(tree) != n - 1:
        raise ValueError(
            "co-occurrence graph is disconnected; use union-find segmentation instead"
        )

    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in tree:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    # Root the tree at 0 by BFS (``order`` grows while it is walked);
    # below[v] sums the tree edges inside v's subtree.
    up = [-1] * n
    up[0] = 0
    up_weight = [0] * n
    order = [0]
    for v in order:
        for u, w in adjacency[v]:
            if up[u] < 0:
                up[u], up_weight[u] = v, w
                order.append(u)
    below = [0] * n
    for v in reversed(order[1:]):
        below[up[v]] += below[v] + up_weight[v]

    total = sum(up_weight)

    def cut(edge: Edge) -> Tuple[int, ...]:
        """The balance key of cutting ``edge``, its side weights and its child."""
        i, j, w = edge
        child = j if up[j] == i else i
        w_rest = total - w - below[child]
        # Side 1 holds the smaller endpoint (i) of the cut edge.
        w1, w2 = (below[child], w_rest) if child == i else (w_rest, below[child])
        return abs(w1 - w2), w, i, j, w1, w2, child

    _, w, i, j, weight1, weight2, child = min(map(cut, tree))
    inside = [False] * n
    for v in order[1:]:
        inside[v] = v == child or inside[up[v]]
    elems1 = [v for v in range(n) if inside[v] == (child == i)]
    elems2 = [v for v in range(n) if inside[v] != (child == i)]

    return Bipartition(
        cut_edge=(i, j, w),
        side1=_side_component(inst, elems1),
        side2=_side_component(inst, elems2),
        weight1=weight1,
        weight2=weight2,
        tree_edges=tuple(tree),
    )


def merge_sides(inst: Instance, bip: Bipartition, partials: Sequence[Cover]) -> Cover:
    """Combine the two sides' covers into a 1-minimal cover of ``inst``.

    The merged cover records original (unrestricted) subset ids, once each,
    although a subset that spans the cut may be chosen on both sides.  A
    whole subset also covers its elements on the other side, which can make
    that side's choices redundant, so the union is pruned.
    """
    families = (bip.side1.subfamily, bip.side2.subfamily)
    return remove_redundant_sets(lift(inst, families, partials), inst)
