"""Independent reference implementations used to cross-check the library.

Everything here works on plain Python sets/lists and stays deliberately
naive: these are the oracles, not the code under test.  The ``reference_*``
functions are the earlier, slower library implementations, kept as
references for the rewrites that must return identical results, and the
paper's GRASP construction and loop, which the library's intensifying loop
departs from.
"""
from __future__ import annotations

import math
import random
import re
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from segcover.core import Cover, Instance, cover_is_feasible, iter_bits
from segcover.grasp import (
    GraspParams,
    RowMap,
    TraceFn,
    _grasp_run,
    create_row_map,
    grasp_solve,
    remove_redundant_sets,
    remove_sets,
)
from segcover.grasp_su import SuParams, grasp_su_solve
from segcover.io import ParseError, write_rail, write_scp
from segcover.mst import (
    Bipartition,
    Edge,
    WeightedCoGraph,
    build_cograph,
    merge_sides,
    mst_bipartition,
)
from segcover.preprocess import ReductionReport, reduce
from segcover.segmentation import Component, Segmentation


def harmonic(k: int) -> float:
    return sum(1.0 / i for i in range(1, k + 1))


def bfs_components(n: int, subsets: Sequence[Set[int]]) -> List[List[int]]:
    """Connected components of the co-occurrence graph, by explicit BFS."""
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for s in subsets:
        members = sorted(s)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                adjacency[members[a]].add(members[b])
                adjacency[members[b]].add(members[a])
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        component = []
        while queue:
            v = queue.pop(0)
            component.append(v)
            for u in sorted(adjacency[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        components.append(sorted(component))
    return components


def brute_force_min_cover(n: int, subsets: Sequence[Set[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Smallest cover by exhaustive enumeration of subset combinations."""
    universe = set(range(n))
    if not universe:
        return 0, ()
    for size in range(1, len(subsets) + 1):
        for combo in combinations(range(len(subsets)), size):
            union: Set[int] = set()
            for sid in combo:
                union |= subsets[sid]
            if union == universe:
                return size, combo
    raise AssertionError("family does not cover the universe")


def brute_force_max_spanning_tree(
    n: int, edges: Sequence[Tuple[int, int, int]]
) -> int:
    """Maximum spanning-tree weight by enumerating all edge subsets of size n-1."""
    best = None
    for combo in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j, _ in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok and len({find(v) for v in range(n)}) == 1:
            weight = sum(w for _, _, w in combo)
            if best is None or weight > best:
                best = weight
    if best is None:
        raise AssertionError("graph is disconnected")
    return best


def random_covering_family(
    rng: random.Random, n: int, m: int, max_size: int | None = None
) -> List[Set[int]]:
    """Random non-empty subsets repaired so their union is the universe."""
    max_size = max_size if max_size is not None else max(1, n // 2)
    subsets = []
    for _ in range(m):
        size = rng.randint(1, max_size)
        subsets.append(set(rng.sample(range(n), min(size, n))))
    for e in range(n):
        if not any(e in s for s in subsets):
            subsets[rng.randrange(m)].add(e)
    return subsets


def tie_rich_family(rng: random.Random, n_max: int = 24, m_max: int = 14) -> Tuple[int, List[Set[int]]]:
    """A covering family rich in ties, duplicate and nested subsets and
    elements with a single coverer, for comparing implementations."""
    n = rng.randint(1, n_max)
    max_size = rng.choice((2, 3, max(1, n // 2), n))
    subsets = random_covering_family(rng, n, rng.randint(1, m_max), max_size)
    for _ in range(rng.randint(0, 6)):
        copy = set(rng.choice(subsets))
        if rng.random() < 0.5 and len(copy) > 1:
            copy.remove(rng.choice(sorted(copy)))
        subsets.insert(rng.randrange(len(subsets) + 1), copy)
    for e in rng.sample(range(n), rng.randint(0, min(4, n))):
        holders = [s for s in subsets if e in s]
        keep = rng.choice(holders)
        for s in holders:
            if s is not keep and len(s) > 1:
                s.discard(e)
    return n, subsets


def mask_of(members: Iterable[int]) -> int:
    """The int mask with bit ``e`` set for each member ``e``."""
    bits = 0
    for e in members:
        bits |= 1 << e
    return bits


def members_of(inst: Instance) -> List[Set[int]]:
    """Each subset of ``inst`` as a Python set of its elements."""
    return [set(iter_bits(b)) for b in inst.masks]


def member_lists(inst: Instance) -> List[List[int]]:
    """Each subset's elements as ``inst.members`` holds them."""
    starts, ids = inst.members
    return [list(ids[starts[sid]:starts[sid + 1]]) for sid in range(inst.m)]


def assert_members_are_the_mask_bits(inst: Instance) -> None:
    """``inst`` has member arrays, and they hold exactly its masks' bits."""
    assert inst.members is not None
    starts, ids = inst.members
    assert starts.typecode == ids.typecode == "I"
    assert member_lists(inst) == [list(iter_bits(b)) for b in inst.masks]


def rail_bytes(n: int, columns: Sequence[Sequence[int]]) -> bytes:
    """Cost-first rail bytes listing each column's 0-based rows as given,
    in that order, repeats included."""
    lines = [f"{n} {len(columns)}"]
    lines += [" ".join(["1", str(len(rows))] + [str(r + 1) for r in rows]) for rows in columns]
    return ("\n".join(lines) + "\n").encode()


def rail_family(rng: random.Random) -> Tuple[int, List[Set[int]]]:
    """A rail-shaped covering family: few elements, many more subsets, each
    of 2 to 10 random elements (fewer when n is smaller)."""
    n = rng.randint(2, 30)
    subsets = [
        set(rng.sample(range(n), rng.randint(2, min(10, n))))
        for _ in range(rng.randint(n, 6 * n))
    ]
    for e in range(n):
        subsets[rng.randrange(len(subsets))].add(e)
    return n, subsets


def to_instance(n: int, subsets: Sequence[Set[int]]) -> Instance:
    return Instance(n, [mask_of(s) for s in subsets])


def random_instance(rng: random.Random, n_max: int = 12, m_max: int = 8) -> Tuple[Instance, int, List[Set[int]]]:
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    subsets = random_covering_family(rng, n, m)
    return to_instance(n, subsets), n, subsets


def reference_greedy(inst: Instance) -> Cover:
    """The full-rescan greedy that ``greedy_solve`` replaced.

    Every pick rescans the subsets in descending cardinality, stopping once
    no remaining subset can beat the incumbent gain; ties go to the lowest id.
    """
    cover = Cover.empty()
    if inst.n == 0:
        return cover
    uncovered = set(range(inst.n))
    subsets = members_of(inst)
    order = sorted(range(inst.m), key=lambda sid: (-len(subsets[sid]), sid))
    cards = [len(subsets[sid]) for sid in order]
    while uncovered:
        best_gain = 0
        best_sid = -1
        for sid, card in zip(order, cards):
            if card < best_gain:
                break
            gain = len(subsets[sid] & uncovered)
            if gain > best_gain or (gain == best_gain and 0 < gain and sid < best_sid):
                best_gain = gain
                best_sid = sid
        if best_sid < 0:
            raise RuntimeError("no subset covers a remaining element")
        cover.add(best_sid, inst.masks[best_sid])
        uncovered -= subsets[best_sid]
    return cover


def _reference_force(subsets: Sequence[Set[int]], n: int, active: List[bool], forced: List[int], covered: Set[int]) -> bool:
    degree = [0] * n
    last = [-1] * n
    for sid, s in enumerate(subsets):
        if not active[sid]:
            continue
        for e in s:
            degree[e] += 1
            last[e] = sid
    fired = False
    for e in range(n):
        if e in covered:
            continue
        if degree[e] == 1:
            sid = last[e]
            if active[sid]:
                active[sid] = False
                forced.append(sid)
                covered |= subsets[sid]
                fired = True
    return fired


def _reference_dominated(subsets: Sequence[Set[int]], candidates: Sequence[int], restrict: Set[int]) -> List[int]:
    masked = {sid: subsets[sid] & restrict for sid in candidates}
    coverers: dict = {}
    for sid in candidates:
        for e in sorted(masked[sid]):
            coverers.setdefault(e, []).append(sid)
    dominated = []
    for sid in candidates:
        members = masked[sid]
        if not members:
            continue
        rarest = min(sorted(members), key=lambda e: len(coverers[e]))
        for other in coverers[rarest]:
            if other == sid:
                continue
            other_members = masked[other]
            if members <= other_members and (members != other_members or other < sid):
                dominated.append(sid)
                break
    return dominated


def reference_reduce(inst: Instance, fixpoint: bool = False) -> ReductionReport:
    """The per-element ``reduce`` that ``segcover.preprocess.reduce`` replaced.

    Forcing counts coverers element by element; dominance tests each subset
    against every coverer of its rarest element; the residual is rebuilt
    member by member.
    """
    subsets = members_of(inst)
    active = [True] * inst.m
    forced: List[int] = []
    excluded: List[int] = []
    covered: Set[int] = set()
    universe = set(range(inst.n))

    _reference_force(subsets, inst.n, active, forced, covered)
    while True:
        remaining = [sid for sid in range(inst.m) if active[sid]]
        restrict = universe - covered if fixpoint else universe
        for sid in _reference_dominated(subsets, remaining, restrict):
            active[sid] = False
            excluded.append(sid)
        for sid in remaining:
            if active[sid] and subsets[sid] <= covered:
                active[sid] = False
                excluded.append(sid)
        if not fixpoint:
            break
        if not _reference_force(subsets, inst.n, active, forced, covered):
            break

    element_map = [e for e in range(inst.n) if e not in covered]
    local_of = {e: i for i, e in enumerate(element_map)}
    subset_map = [sid for sid in range(inst.m) if active[sid]]
    residual_masks = [
        mask_of(local_of[e] for e in subsets[sid] - covered) for sid in subset_map
    ]
    excluded.sort()
    return ReductionReport(
        original=inst,
        forced=tuple(forced),
        excluded=tuple(excluded),
        covered=mask_of(covered),
        residual=Instance(len(element_map), residual_masks),
        element_to_original=tuple(element_map),
        subset_to_original=tuple(subset_map),
    )


def inverse(c: int) -> float:
    return 1.0 / c

def inverse_sqrt(c: int) -> float:
    return 1.0 / math.sqrt(c)

def inverse_log(c: int) -> float:
    return 1.0 / math.log(c + 1)

def inverse_square(c: int) -> float:
    return 1.0 / (c * c)


# The paper's four score functions, in the order its per-pick draw indexes
# them, and the floor that keeps a diversifying draw's weights positive.
REFERENCE_EVAL_FUNCTIONS: Tuple[Callable[[int], float], ...] = (
    inverse, inverse_sqrt, inverse_log, inverse_square,
)
REFERENCE_WEIGHT_EPSILON = 1e-6


def reference_find_best_candidate(
    candidates: Sequence[Tuple[int, Set[int]]],
    f: Callable[[int], float],
    uncovered: Set[int],
    improve: bool,
    rng: random.Random,
) -> int:
    """The paper's per-candidate pick, scored by ``f``.

    Intensifying: the candidate minimising ``f(fresh coverage)``, ties to the
    lowest id.  Diversifying: a draw weighted by ``max(eps, 1 - f(count))``.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    scores = []
    for sid, members in candidates:
        count = len(members & uncovered)
        if count == 0:
            raise ValueError(f"candidate subset {sid} covers nothing uncovered")
        scores.append((sid, f(count)))
    if improve:
        return min(scores, key=lambda pair: (pair[1], pair[0]))[0]
    weights = [max(REFERENCE_WEIGHT_EPSILON, 1.0 - score) for _, score in scores]
    return rng.choices([sid for sid, _ in scores], weights=weights, k=1)[0]


def reference_rand_construct(
    partial: Cover,
    uncovered: int,
    rowmap: RowMap,
    improve: bool = True,
    rng: Optional[random.Random] = None,
) -> Cover:
    """The paper's construction: per pick, draw a score function, build
    (id, member set) candidate lists and pick through
    ``reference_find_best_candidate``; mutates ``partial``.

    Called with three arguments, as ``rand_construct`` is, it intensifies,
    drawing its score functions from a stream of its own: an intensifying
    pick is the first largest fresh coverage under every score function.
    """
    rng = rng if rng is not None else random.Random(0)
    if partial.covered & uncovered:
        raise ValueError("partial cover overlaps the uncovered set")
    masks = rowmap.instance.masks
    left = set(iter_bits(uncovered))
    entries = rowmap.entries
    cursor = 0
    while left:
        while entries[cursor][0] not in left:
            cursor += 1
        element, _, coverer_ids = entries[cursor]
        if not coverer_ids:
            raise RuntimeError(f"no subset covers element {element}; corrupt instance")
        f = rng.choice(REFERENCE_EVAL_FUNCTIONS)
        candidates = [(sid, set(iter_bits(masks[sid]))) for sid in coverer_ids]
        chosen = reference_find_best_candidate(candidates, f, left, improve, rng)
        partial.add(chosen, masks[chosen])
        left -= set(iter_bits(masks[chosen]))
    return partial


def reference_improvement_loop(
    best: Cover,
    inst: Instance,
    rowmap: RowMap,
    params: GraspParams,
    rng: random.Random,
    trace: Optional[TraceFn] = None,
) -> Cover:
    """The paper's improvement loop: keep a round's cover only when it is
    strictly smaller, and rebuild diversifying after a round that was not
    kept; ``trace`` receives ``(iteration, new size, accepted, improve
    flag)``, the flag being the mode of the next round."""
    if inst.n == 0:
        return best
    improve = True
    universe = (1 << inst.n) - 1
    for iteration in range(1, params.num_iter + 1):
        candidate = remove_sets(best, inst, params.max_rm, rng)
        candidate = reference_rand_construct(
            candidate, universe & ~candidate.covered, rowmap, improve, rng
        )
        candidate = remove_redundant_sets(candidate, inst)
        accepted = len(candidate) < len(best)
        if accepted:
            best = candidate
        improve = accepted
        if trace is not None:
            trace(iteration, len(candidate), accepted, improve)
    return best


def reference_grasp_solve(
    inst: Instance, params: GraspParams, trace: Optional[TraceFn] = None
) -> Cover:
    """The paper's GRASP: a diversified construction from empty, pruned,
    then ``reference_improvement_loop``, all on ``random.Random(params.seed)``."""
    if inst.n == 0:
        return Cover.empty()
    rng = random.Random(params.seed)
    rowmap = create_row_map(inst)
    start = reference_rand_construct(Cover.empty(), (1 << inst.n) - 1, rowmap, False, rng)
    start = remove_redundant_sets(start, inst)
    return reference_improvement_loop(start, inst, rowmap, params, rng, trace)


def reference_remove_redundant_sets(c: Cover, inst: Instance) -> Cover:
    """The per-element-count prune that ``remove_redundant_sets`` replaced."""
    if not cover_is_feasible(c, inst):
        raise ValueError("cover must be feasible before redundancy removal")
    subsets = members_of(inst)
    counts = [0] * inst.n
    for sid in c.chosen:
        for e in subsets[sid]:
            counts[e] += 1
    dropped = set()
    order = sorted(c.chosen, key=lambda sid: (-len(subsets[sid]), -sid))
    for sid in order:
        members = subsets[sid]
        if all(counts[e] >= 2 for e in members):
            dropped.add(sid)
            for e in members:
                counts[e] -= 1
    kept = [sid for sid in c.chosen if sid not in dropped]
    return Cover(kept, mask_of(e for sid in kept for e in subsets[sid]))


_TOKEN = re.compile(rb"\S+")


class _ReferenceTokens:
    """Regex tokenizer that tracks byte offsets, one match per token."""

    def __init__(self, data: bytes) -> None:
        self._iter = _TOKEN.finditer(data)
        self._end = len(data)
        self.last_offset = 0

    def next_int(self, what: str) -> int:
        match = next(self._iter, None)
        if match is None:
            raise ParseError(f"truncated stream: expected {what}", self._end)
        self.last_offset = match.start()
        try:
            return int(match.group())
        except ValueError:
            raise ParseError(
                f"expected integer for {what}, got {match.group()!r}", match.start()
            ) from None

    def expect_end(self) -> None:
        match = next(self._iter, None)
        if match is not None:
            raise ParseError(f"unexpected trailing token {match.group()!r}", match.start())


def _reference_build(n: int, member_lists: List[List[int]], tokens: _ReferenceTokens) -> Instance:
    try:
        return Instance(n, [mask_of(ms) for ms in member_lists])
    except ValueError as exc:
        raise ParseError(str(exc), tokens.last_offset) from None


def reference_parse_scp(data: bytes) -> Instance:
    """The token-by-token scp parser that the streamed one replaced."""
    tokens = _ReferenceTokens(data)
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)
    for _ in range(m):
        tokens.next_int("column cost")
    members: List[List[int]] = [[] for _ in range(m)]
    for row in range(n):
        count = tokens.next_int(f"cover count of row {row + 1}")
        if count <= 0:
            raise ParseError(
                f"row {row + 1} has zero covering columns", tokens.last_offset
            )
        for _ in range(count):
            col = tokens.next_int(f"column id covering row {row + 1}")
            if not 1 <= col <= m:
                raise ParseError(
                    f"column id {col} out of range 1..{m}", tokens.last_offset
                )
            members[col - 1].append(row)
    tokens.expect_end()
    return _reference_build(n, members, tokens)


def reference_parse_rail(data: bytes, layout: str = "cost-first") -> Instance:
    """The token-by-token rail parser that the streamed one replaced."""
    tokens = _ReferenceTokens(data)
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)
    members: List[List[int]] = []
    for col in range(m):
        if layout == "cost-first":
            tokens.next_int(f"cost of column {col + 1}")
        count = tokens.next_int(f"row count of column {col + 1}")
        if count <= 0:
            raise ParseError(
                f"column {col + 1} covers zero rows", tokens.last_offset
            )
        rows = []
        for _ in range(count):
            row = tokens.next_int(f"row id in column {col + 1}")
            if not 1 <= row <= n:
                raise ParseError(
                    f"row id {row} out of range 1..{n}", tokens.last_offset
                )
            rows.append(row - 1)
        members.append(rows)
    tokens.expect_end()
    return _reference_build(n, members, tokens)


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



def reference_find_groups(inst: Instance) -> Segmentation:
    """The ``find_groups`` that ran ``UnionFind`` methods per member and
    rebuilt every subset member by member."""
    subsets = members_of(inst)
    uf = UnionFind(inst.n)
    for s in subsets:
        it = iter(sorted(s))
        first = next(it)
        for e in it:
            uf.union(first, e)

    comp_of = [0] * inst.n
    comp_elements: List[List[int]] = []
    root_to_comp: dict = {}
    for e in range(inst.n):
        root = uf.find(e)
        comp = root_to_comp.get(root)
        if comp is None:
            comp = len(comp_elements)
            root_to_comp[root] = comp
            comp_elements.append([])
        comp_of[e] = comp
        comp_elements[comp].append(e)

    local_of = [0] * inst.n
    for elements in comp_elements:
        for local, e in enumerate(elements):
            local_of[e] = local

    comp_subsets: List[List[int]] = [[] for _ in comp_elements]
    comp_families: List[List[int]] = [[] for _ in comp_elements]
    for sid, s in enumerate(subsets):
        comp = comp_of[min(s)]
        comp_subsets[comp].append(mask_of(local_of[e] for e in s))
        comp_families[comp].append(sid)

    components = []
    for elements, subsets, family in zip(comp_elements, comp_subsets, comp_families):
        components.append(
            Component(
                subfamily=tuple(family),
                subinstance=Instance(len(elements), subsets),
                element_ids=tuple(elements),
            )
        )
    return Segmentation(instance=inst, components=tuple(components))


def reference_mst_bipartition(g: WeightedCoGraph) -> Bipartition:
    """The ``mst_bipartition`` that ran Kruskal on ``UnionFind``, found each
    tree edge's child by tuple compares and walked the cut's child side in
    a second DFS."""
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

    def side(elements: List[int]) -> Component:
        local = {e: j for j, e in enumerate(elements)}
        restricted = [{local[e] for e in s if e in local} for s in members_of(inst)]
        family = [sid for sid, s in enumerate(restricted) if s]
        return Component(
            subfamily=tuple(family),
            subinstance=Instance(len(elements), [mask_of(restricted[sid]) for sid in family]),
            element_ids=tuple(elements),
        )

    return Bipartition(
        cut_edge=best_edge,
        side1=side(elems1),
        side2=side(elems2),
        weight1=best_w1,
        weight2=best_w2,
        tree_edges=tuple(tree),
    )


def reference_run_restarts(
    inst: Instance,
    algorithm: str,
    *,
    iterations: int,
    max_rm: float = 0.5,
    seed: int = 0,
    threads: int = 1,
    restarts: int = 1,
    preprocess: bool = True,
) -> Tuple[int, Cover]:
    """The restart loop ``cli.run_algorithm`` ran before restarts were
    batched, for ``grasp``, ``grasp-uf`` and ``grasp-mst``: one solve per
    restart, back to back.  ``grasp-mst`` is built from its primitives (the
    bipartition, one ``_grasp_run`` per side on stream ``(seed + k) ^ side``,
    ``merge_sides``), not through ``split``.  Returns the seed and the lifted
    cover of the first strictly smallest restart."""
    report = reduce(inst) if preprocess else None
    work = report.residual if report is not None else inst
    best_seed, best = seed, None
    for k in range(restarts):
        params = GraspParams(num_iter=iterations, max_rm=max_rm, seed=seed + k)
        if work.n == 0:
            cover = Cover.empty()
        elif algorithm == "grasp":
            cover = grasp_solve(work, params)
        elif algorithm == "grasp-mst":
            bip = mst_bipartition(build_cograph(work))
            sides = [bip.side1.subinstance, bip.side2.subinstance]
            partials = [
                _grasp_run(side, params, random.Random((seed + k) ^ i))
                for i, side in enumerate(sides)
            ]
            cover = merge_sides(work, bip, partials)
        else:
            cover = grasp_su_solve(work, SuParams(grasp=params, threads=threads))
        full = report.lift_cover(cover) if report is not None else cover
        if best is None or len(full) < len(best):
            best_seed, best = seed + k, full
    return best_seed, best


def reference_from_indices(capacity: int, indices) -> int:
    """The mask of ``indices``, OR-ing ``1 << i`` into a universe-wide int,
    each ``i`` checked against ``capacity``: the reference for
    ``core.index_mask``."""
    bits = 0
    for i in indices:
        if not 0 <= i < capacity:
            raise ValueError(f"element {i} outside universe of size {capacity}")
        bits |= 1 << i
    return bits


def write_rail_count_first(inst: Instance) -> bytes:
    """Column-major file without cost tokens (``layout="count-first"``)."""
    lines = [f"{inst.n} {inst.m}"]
    for b in inst.masks:
        members = list(iter_bits(b))
        lines.append(" ".join([str(len(members))] + [str(e + 1) for e in members]))
    return ("\n".join(lines) + "\n").encode()


# Replacement tokens: valid, signed, underscored and non-integer ones.
MUTANT_TOKENS = (b"0", b"1", b"2", b"3", b"9", b"-1", b"+2", b"1_0", b"007", b"x", b"1.5", b"\xff")
# Every byte that ends a token, alone and in runs.
MUTANT_SPACES = (b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b" \r\n")


def mutated_file(rng: random.Random) -> bytes:
    """A small scp, rail or count-first rail file with tokens inserted,
    deleted or substituted and its whitespace redrawn; sometimes raw bytes."""
    if rng.random() < 0.1:
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 24)))
    n = rng.randint(1, 8)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 6)))
    writer = rng.choice((write_scp, write_rail, write_rail_count_first))
    tokens = writer(inst).split()
    for _ in range(rng.randint(0, 4)):
        op = rng.random()
        if op < 0.3 and tokens:
            del tokens[rng.randrange(len(tokens))]
        elif op < 0.6:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(MUTANT_TOKENS))
        elif tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(MUTANT_TOKENS)
    out = bytearray(rng.choice((b"", b" ", b"\n")))
    for token in tokens:
        out += token + rng.choice(MUTANT_SPACES)
    if out and rng.random() < 0.5:
        del out[-1]
    return bytes(out)
