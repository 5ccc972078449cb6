"""Independent reference implementations used to cross-check the library.

Everything here works on plain Python sets/lists and stays deliberately
naive: these are the oracles, not the code under test.  The ``reference_*``
functions are the earlier, slower library implementations, kept as
references for the rewrites that must return identical results.
"""
from __future__ import annotations

import random
import re
from itertools import combinations
from typing import List, Sequence, Set, Tuple

from segcover.core import Cover, Instance, SuccinctSet, cover_is_feasible
from segcover.grasp import (
    EVAL_FUNCTIONS,
    WEIGHT_EPSILON,
    EvalFunction,
    GraspParams,
    RowMap,
    grasp_solve,
)
from segcover.grasp_su import SuParams, grasp_su_solve
from segcover.io import ParseError, write_rail, write_scp
from segcover.preprocess import ReductionReport, reduce
from segcover.segmentation import Component, Segmentation, UnionFind, find_groups


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


def to_instance(n: int, subsets: Sequence[Set[int]]) -> Instance:
    return Instance(n, [SuccinctSet.from_indices(n, s) for s in subsets])


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
    cover = Cover.empty(inst.n)
    if inst.n == 0:
        return cover
    uncovered = SuccinctSet.full(inst.n)
    order = sorted(range(inst.m), key=lambda sid: (-inst.subsets[sid].cardinality(), sid))
    cards = [inst.subsets[sid].cardinality() for sid in order]
    subsets = inst.subsets
    while uncovered:
        ubits = uncovered._bits
        best_gain = 0
        best_sid = -1
        for sid, card in zip(order, cards):
            if card < best_gain:
                break
            gain = (subsets[sid]._bits & ubits).bit_count()
            if gain > best_gain or (gain == best_gain and 0 < gain and sid < best_sid):
                best_gain = gain
                best_sid = sid
        if best_sid < 0:
            raise RuntimeError("no subset covers a remaining element")
        cover.add(best_sid, subsets[best_sid])
        uncovered.difference_inplace(subsets[best_sid])
    return cover


def _reference_force(inst: Instance, active: List[bool], forced: List[int], covered: SuccinctSet) -> bool:
    degree = [0] * inst.n
    last = [-1] * inst.n
    for sid, s in enumerate(inst.subsets):
        if not active[sid]:
            continue
        for e in s:
            degree[e] += 1
            last[e] = sid
    fired = False
    for e in range(inst.n):
        if e in covered:
            continue
        if degree[e] == 1:
            sid = last[e]
            if active[sid]:
                active[sid] = False
                forced.append(sid)
                covered.union_inplace(inst.subsets[sid])
                fired = True
    return fired


def _reference_dominated(inst: Instance, candidates: Sequence[int], restrict_mask: int) -> List[int]:
    masked = {sid: inst.subsets[sid]._bits & restrict_mask for sid in candidates}
    coverers: dict = {}
    for sid in candidates:
        for e in SuccinctSet(inst.n, masked[sid]):
            coverers.setdefault(e, []).append(sid)
    dominated = []
    for sid in candidates:
        bits = masked[sid]
        if bits == 0:
            continue
        rarest = min(SuccinctSet(inst.n, bits), key=lambda e: len(coverers[e]))
        for other in coverers[rarest]:
            if other == sid:
                continue
            other_bits = masked[other]
            if bits & ~other_bits == 0 and (bits != other_bits or other < sid):
                dominated.append(sid)
                break
    return dominated


def reference_reduce(inst: Instance, fixpoint: bool = False) -> ReductionReport:
    """The per-element ``reduce`` that ``segcover.preprocess.reduce`` replaced.

    Forcing counts coverers element by element; dominance tests each subset
    against every coverer of its rarest element; the residual is rebuilt
    member by member.
    """
    active = [True] * inst.m
    forced: List[int] = []
    excluded: List[int] = []
    covered = SuccinctSet(inst.n)
    universe = (1 << inst.n) - 1

    _reference_force(inst, active, forced, covered)
    while True:
        remaining = [sid for sid in range(inst.m) if active[sid]]
        restrict = universe & ~covered._bits if fixpoint else universe
        for sid in _reference_dominated(inst, remaining, restrict):
            active[sid] = False
            excluded.append(sid)
        for sid in remaining:
            if active[sid] and inst.subsets[sid]._bits & ~covered._bits == 0:
                active[sid] = False
                excluded.append(sid)
        if not fixpoint:
            break
        if not _reference_force(inst, active, forced, covered):
            break

    element_map = [e for e in range(inst.n) if e not in covered]
    local_of = {e: i for i, e in enumerate(element_map)}
    subset_map = [sid for sid in range(inst.m) if active[sid]]
    residual_subsets = [
        SuccinctSet.from_indices(
            len(element_map),
            (local_of[e] for e in SuccinctSet(inst.n, inst.subsets[sid]._bits & ~covered._bits)),
        )
        for sid in subset_map
    ]
    excluded.sort()
    return ReductionReport(
        original=inst,
        forced=tuple(forced),
        excluded=tuple(excluded),
        covered=covered,
        residual=Instance(len(element_map), residual_subsets),
        element_to_original=tuple(element_map),
        subset_to_original=tuple(subset_map),
    )


def reference_find_best_candidate(
    candidates: Sequence[Tuple[int, SuccinctSet]],
    f: EvalFunction,
    uncovered: SuccinctSet,
    improve: bool,
    rng: random.Random,
) -> int:
    """The per-candidate pick that ``rand_construct``'s score tables replaced.

    Intensifying: the candidate minimising ``f(fresh coverage)``, ties to the
    lowest id.  Diversifying: a draw weighted by ``max(eps, 1 - f(count))``.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    ubits = uncovered._bits
    scores = []
    for sid, members in candidates:
        count = (members._bits & ubits).bit_count()
        if count == 0:
            raise ValueError(f"candidate subset {sid} covers nothing uncovered")
        scores.append((sid, f(count)))
    if improve:
        return min(scores, key=lambda pair: (pair[1], pair[0]))[0]
    weights = [max(WEIGHT_EPSILON, 1.0 - score) for _, score in scores]
    return rng.choices([sid for sid, _ in scores], weights=weights, k=1)[0]


def reference_rand_construct(
    partial: Cover,
    uncovered: SuccinctSet,
    rowmap: RowMap,
    improve: bool,
    rng: random.Random,
    eval_set: Tuple[EvalFunction, ...] = EVAL_FUNCTIONS,
) -> Cover:
    """The ``rand_construct`` that built (id, SuccinctSet) candidate lists and
    scored each through ``reference_find_best_candidate``; mutates both
    ``partial`` and ``uncovered``."""
    if partial.covered._bits & uncovered._bits:
        raise ValueError("partial cover overlaps the uncovered set")
    subsets = rowmap.instance.subsets
    entries = rowmap.entries
    cursor = 0
    while uncovered:
        while not (uncovered._bits >> entries[cursor][0]) & 1:
            cursor += 1
        element, _, coverer_ids = entries[cursor]
        if not coverer_ids:
            raise RuntimeError(f"no subset covers element {element}; corrupt instance")
        f = rng.choice(eval_set)
        candidates = [(sid, subsets[sid]) for sid in coverer_ids]
        chosen = reference_find_best_candidate(candidates, f, uncovered, improve, rng)
        partial.add(chosen, subsets[chosen])
        uncovered.difference_inplace(subsets[chosen])
    return partial


def reference_remove_redundant_sets(c: Cover, inst: Instance) -> Cover:
    """The per-element-count prune that ``remove_redundant_sets`` replaced."""
    if not cover_is_feasible(c, inst):
        raise ValueError("cover must be feasible before redundancy removal")
    counts = [0] * inst.n
    for sid in c.chosen:
        for e in inst.subsets[sid]:
            counts[e] += 1
    dropped = set()
    order = sorted(c.chosen, key=lambda sid: (-inst.subsets[sid].cardinality(), -sid))
    for sid in order:
        members = list(inst.subsets[sid])
        if all(counts[e] >= 2 for e in members):
            dropped.add(sid)
            for e in members:
                counts[e] -= 1
    kept = [sid for sid in c.chosen if sid not in dropped]
    covered = SuccinctSet(inst.n)
    for sid in kept:
        covered.union_inplace(inst.subsets[sid])
    return Cover(kept, covered)


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
        return Instance(n, [SuccinctSet.from_indices(n, ms) for ms in member_lists])
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


def reference_find_groups(inst: Instance) -> Segmentation:
    """The ``find_groups`` that ran ``UnionFind`` methods per member and
    rebuilt every subset member by member."""
    uf = UnionFind(inst.n)
    for s in inst.subsets:
        it = iter(s)
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

    comp_subsets: List[List[SuccinctSet]] = [[] for _ in comp_elements]
    comp_families: List[List[int]] = [[] for _ in comp_elements]
    for sid, s in enumerate(inst.subsets):
        comp = comp_of[next(iter(s))]
        sub_n = len(comp_elements[comp])
        comp_subsets[comp].append(
            SuccinctSet.from_indices(sub_n, (local_of[e] for e in s))
        )
        comp_families[comp].append(sid)

    components = []
    for elements, subsets, family in zip(comp_elements, comp_subsets, comp_families):
        components.append(
            Component(
                elements=SuccinctSet.from_indices(inst.n, elements),
                subfamily=tuple(family),
                subinstance=Instance(len(elements), subsets),
                element_ids=tuple(elements),
            )
        )
    return Segmentation(instance=inst, components=tuple(components))


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
    batched, for ``grasp`` and ``grasp-uf``: one solve per restart, back to
    back.  Returns the seed and the lifted cover of the first strictly
    smallest restart."""
    report = reduce(inst) if preprocess else None
    work = report.residual if report is not None else inst
    seg = find_groups(work) if algorithm == "grasp-uf" and work.n > 0 else None
    best_seed, best = seed, None
    for k in range(restarts):
        params = GraspParams(num_iter=iterations, max_rm=max_rm, seed=seed + k)
        if work.n == 0:
            cover = Cover.empty(0)
        elif algorithm == "grasp":
            cover = grasp_solve(work, params)
        else:
            su = SuParams(grasp=params, threads=threads)
            cover = grasp_su_solve(work, su, segmentation=seg)
        full = report.lift_cover(cover) if report is not None else cover
        if best is None or len(full) < len(best):
            best_seed, best = seed + k, full
    return best_seed, best


def reference_from_indices(capacity: int, indices) -> SuccinctSet:
    """The ``from_indices`` that OR-ed ``1 << i`` into a universe-wide int."""
    bits = 0
    for i in indices:
        if not 0 <= i < capacity:
            raise ValueError(f"element {i} outside universe of size {capacity}")
        bits |= 1 << i
    return SuccinctSet(capacity, bits)


def write_rail_count_first(inst: Instance) -> bytes:
    """Column-major file without cost tokens (``layout="count-first"``)."""
    lines = [f"{inst.n} {inst.m}"]
    for s in inst.subsets:
        members = list(s)
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
