"""The benchmark's workloads: input generators, solver settings and the
independent output check.

The generators are the benchmark's own code, so a later change to
``segcover.io`` cannot change the inputs.  Each turns a workload seed into
instance bytes plus the member list of every column; the solver receives
only the bytes, and the member lists are what a returned cover is checked
against.  Nothing here imports ``segcover``.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

# W1, the criterion-10a instance: GeneratorConfig(n=10_000, m=20_000,
# groups=32, seed=20_260_810).  Workload seed s uses generator seed W1_SEED + s.
W1_N, W1_M, W1_GROUPS, W1_DENSITY, W1_SEED = 10_000, 20_000, 32, 0.05, 20_260_810

# Rail-shaped connected instance: rail507's row count, about half its columns.
RAIL_N, RAIL_M, RAIL_MIN_ROWS, RAIL_MAX_ROWS = 507, 30_000, 2, 10


@dataclass(frozen=True)
class Generated:
    """Instance bytes and, per column (subset), its 0-based rows (elements)."""

    data: bytes
    n: int
    members: List[List[int]]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


def segmentable(n: int, m: int, groups: int, density: float, seed: int) -> Generated:
    """Block-structured instance with exactly ``groups`` components, as scp bytes.

    Elements split into ``groups`` contiguous near-equal blocks; column j
    draws from block ``j % groups``, always holds the block's first element,
    and each other block element with probability ``density``.  Elements no
    draw covered are added to their block's first column.  Rows are written
    with unit costs and ascending column ids.
    """
    rng = random.Random(seed)
    base, extra = divmod(n, groups)
    blocks = []
    start = 0
    for b in range(groups):
        size = base + (1 if b < extra else 0)
        blocks.append(range(start, start + size))
        start += size

    members: List[List[int]] = []
    for j in range(m):
        block = blocks[j % groups]
        members.append([block[0]] + [e for e in block[1:] if rng.random() < density])
    covered = bytearray(n)
    for rows in members:
        for e in rows:
            covered[e] = 1
    for b, block in enumerate(blocks):
        members[b].extend(e for e in block if not covered[e])

    coverers: List[List[int]] = [[] for _ in range(n)]
    for sid, rows in enumerate(members):
        for e in sorted(rows):
            coverers[e].append(sid)
    lines = [f"{n} {m}", " ".join(["1"] * m)]
    lines += [" ".join([str(len(ids))] + [str(sid + 1) for sid in ids]) for ids in coverers]
    return Generated(("\n".join(lines) + "\n").encode(), n, members)


def rail_shaped(n: int, m: int, min_rows: int, max_rows: int, seed: int) -> Generated:
    """Connected column-major instance, as cost-first rail bytes.

    Column j holds ``rng.randint(min_rows, max_rows)`` distinct rows drawn
    with ``rng.sample``.  A row no column drew is added to column ``row % m``,
    so the family always covers every row.
    """
    rng = random.Random(seed)
    members = [sorted(rng.sample(range(n), rng.randint(min_rows, max_rows))) for _ in range(m)]
    covered = bytearray(n)
    for rows in members:
        for e in rows:
            covered[e] = 1
    for e in range(n):
        if not covered[e]:
            members[e % m] = sorted(members[e % m] + [e])
    lines = [f"{n} {m}"]
    lines += [" ".join(["1", str(len(rows))] + [str(e + 1) for e in rows]) for rows in members]
    return Generated(("\n".join(lines) + "\n").encode(), n, members)


def w1(seed: int) -> Generated:
    return segmentable(W1_N, W1_M, W1_GROUPS, W1_DENSITY, W1_SEED + seed)


def rail(seed: int) -> Generated:
    return rail_shaped(RAIL_N, RAIL_M, RAIL_MIN_ROWS, RAIL_MAX_ROWS, seed)


@dataclass(frozen=True)
class Workload:
    """One input family and the ``segcover solve`` settings it runs with."""

    name: str
    generate: Callable[[int], Generated]
    fmt: str
    algorithm: str
    iterations: int
    threads: int = 2
    restarts: int = 2
    max_rm: float = 0.5
    solver_seed: int = 0

    def solver_args(self) -> List[str]:
        return [
            "--format", self.fmt,
            "--algorithm", self.algorithm,
            "--iterations", str(self.iterations),
            "--threads", str(self.threads),
            "--restarts", str(self.restarts),
            "--max-rm", str(self.max_rm),
            "--seed", str(self.solver_seed),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("segmented", w1, "scp", "grasp-uf", iterations=50),
        Workload("rail", rail, "rail", "grasp-uf", iterations=30),
        Workload("greedy", w1, "scp", "greedy", iterations=50),
    )
}


def check_cover(chosen: Sequence[object], gen: Generated) -> List[str]:
    """Problems with ``chosen`` as a cover of ``gen``; empty when it is valid.

    Checks ids are integers in range and unique, and that the union of their
    member lists is the whole universe.
    """
    m = len(gen.members)
    bad = [sid for sid in chosen if not isinstance(sid, int) or isinstance(sid, bool) or not 0 <= sid < m]
    if bad:
        return [f"{len(bad)} ids out of range 0..{m - 1}, first {bad[0]!r}"]
    problems = []
    if len(set(chosen)) != len(chosen):
        problems.append(f"{len(chosen) - len(set(chosen))} duplicate ids")
    covered = bytearray(gen.n)
    for sid in chosen:
        for e in gen.members[sid]:
            covered[e] = 1
    missing = gen.n - sum(covered)
    if missing:
        problems.append(f"{missing} of {gen.n} elements uncovered")
    return problems


def chosen_digest(chosen: Sequence[int]) -> str:
    """sha256 of the chosen-id list in order; equal lists give equal digests."""
    return hashlib.sha256(",".join(map(str, chosen)).encode()).hexdigest()
