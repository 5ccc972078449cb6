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

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import Cover, Instance, SuccinctSet, iter_bits, restrict_masks
from .grasp import remove_redundant_sets
from .segmentation import Component, UnionFind

Edge = Tuple[int, int, int]


@dataclass(frozen=True)
class WeightedCoGraph:
    """Element co-occurrence graph with multiplicity weights (i < j, w >= 1)."""

    instance: Instance
    edges: Tuple[Edge, ...]


@dataclass(frozen=True)
class Bipartition:
    """A two-way split: the cut edge, both sides, and cut diagnostics.

    ``weight1``/``weight2`` sum the spanning-tree edge weights internal to
    each side; ``cuts`` lists every candidate tree edge with the side
    weights its removal would produce.
    """

    cut_edge: Edge
    side1: Component
    side2: Component
    weight1: int
    weight2: int
    tree_edges: Tuple[Edge, ...]
    cuts: Tuple[Tuple[Edge, int, int], ...]


def build_cograph(inst: Instance) -> WeightedCoGraph:
    """Count co-occurring element pairs across all subsets."""
    weights: Dict[Tuple[int, int], int] = {}
    for b in inst.masks:
        members = list(iter_bits(b))
        for a in range(len(members)):
            ea = members[a]
            for b in range(a + 1, len(members)):
                key = (ea, members[b])
                weights[key] = weights.get(key, 0) + 1
    edges = tuple(sorted((i, j, w) for (i, j), w in weights.items()))
    return WeightedCoGraph(instance=inst, edges=edges)


def _side_component(inst: Instance, elements: List[int]) -> Component:
    """Restrict the family to one side; empty restrictions are dropped."""
    masks = restrict_masks(inst.masks, elements)
    family = [sid for sid, b in enumerate(masks) if b]
    return Component(
        elements=SuccinctSet.from_indices(inst.n, elements),
        subfamily=tuple(family),
        subinstance=Instance(len(elements), [masks[sid] for sid in family]),
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
    uf = UnionFind(n)
    tree: List[Edge] = []
    for i, j, w in sorted(g.edges, key=lambda e: (-e[2], e[0], e[1])):
        if uf.union(i, j):
            tree.append((i, j, w))
    if len(tree) != n - 1:
        raise ValueError(
            "co-occurrence graph is disconnected; use union-find segmentation instead"
        )

    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in tree:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))

    # Root the tree at 0; subtree_weight[v] sums tree edges inside v's subtree.
    parent_edge: List[Optional[Edge]] = [None] * n
    order: List[int] = []
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u, w in adjacency[v]:
            if not seen[u]:
                seen[u] = True
                parent_edge[u] = (min(u, v), max(u, v), w)
                stack.append(u)
    subtree_weight = [0] * n
    for v in reversed(order):
        total = 0
        for u, w in adjacency[v]:
            if parent_edge[u] == (min(u, v), max(u, v), w):
                total += subtree_weight[u] + w
        subtree_weight[v] = total

    total_weight = sum(w for _, _, w in tree)
    child_of_edge: Dict[Edge, int] = {}
    for v in range(n):
        if parent_edge[v] is not None:
            child_of_edge[parent_edge[v]] = v
    cuts: List[Tuple[Edge, int, int]] = []
    for edge in tree:
        child = child_of_edge[edge]
        w_child = subtree_weight[child]
        w_rest = total_weight - edge[2] - w_child
        # Side 1 holds the smaller endpoint (edge[0]) of the cut edge.
        if child == edge[0]:
            w1, w2 = w_child, w_rest
        else:
            w1, w2 = w_rest, w_child
        cuts.append((edge, w1, w2))

    best_edge, best_w1, best_w2 = min(
        cuts, key=lambda cut: (abs(cut[1] - cut[2]), cut[0][2], cut[0][:2])
    )

    child = child_of_edge[best_edge]
    side_child = []
    stack = [child]
    in_child = [False] * n
    in_child[child] = True
    while stack:
        v = stack.pop()
        side_child.append(v)
        for u, w in adjacency[v]:
            if (min(u, v), max(u, v), w) == best_edge:
                continue
            if not in_child[u]:
                in_child[u] = True
                stack.append(u)
    side_rest = [v for v in range(n) if not in_child[v]]
    side_child.sort()
    if child == best_edge[0]:
        elems1, elems2 = side_child, side_rest
    else:
        elems1, elems2 = side_rest, side_child

    return Bipartition(
        cut_edge=best_edge,
        side1=_side_component(inst, elems1),
        side2=_side_component(inst, elems2),
        weight1=best_w1,
        weight2=best_w2,
        tree_edges=tuple(tree),
        cuts=tuple(cuts),
    )


def bipartition_csv(bip: Bipartition) -> str:
    """Diagnostic dump: the tree edges, then every candidate cut's balance."""
    lines = ["section,u,v,weight,w1,w2"]
    for i, j, w in bip.tree_edges:
        lines.append(f"tree,{i},{j},{w},,")
    for (i, j, w), w1, w2 in bip.cuts:
        lines.append(f"cut,{i},{j},{w},{w1},{w2}")
    return "\n".join(lines) + "\n"


def grasp_mst_solve(
    inst: Instance,
    params=None,
    phase_times: Optional[Dict[str, float]] = None,
) -> Cover:
    """Segmented solve using the forced bipartition instead of union-find.

    Both sides are solved independently; the merged cover records original
    (unrestricted) subset ids, deduplicated when both sides chose the same
    subset.  Known to degrade quality versus un-segmented search: subsets
    spanning the cut are effectively halved.
    """
    from .grasp_su import SuParams, run_components

    params = params if params is not None else SuParams()
    t0 = time.perf_counter()
    g = build_cograph(inst)
    bip = mst_bipartition(g)
    sides = (bip.side1, bip.side2)
    t1 = time.perf_counter()
    partials = run_components([side.subinstance for side in sides], params)
    t2 = time.perf_counter()
    merged = Cover.empty(inst.n)
    for side, partial in zip(sides, partials):
        for local_sid in partial.chosen:
            orig = side.subfamily[local_sid]
            if orig not in merged:
                merged.add(orig, inst.masks[orig])
    merged = remove_redundant_sets(merged, inst)
    t3 = time.perf_counter()
    if phase_times is not None:
        phase_times["segment_ms"] = (t1 - t0) * 1e3
        phase_times["solve_ms"] = (t2 - t1) * 1e3
        phase_times["merge_ms"] = (t3 - t2) * 1e3
    return merged
