#!/usr/bin/env python3
"""Time the solve path on a rail-shaped instance of a chosen size.

Builds cost-first rail bytes of the rail4284 shape (4284 rows; each column
holds 2 to 10 distinct random rows, and column ``j`` also holds every row
``r`` with ``r % m == j``, so the family covers every row), then parses them
with ``parse_rail`` and solves the instance with ``cli.run_algorithm``, the
path ``segcover solve`` runs: the forcing sweep, the union-find split and
``grasp-uf`` on each piece (one iteration by default), then lifting and
validation.  Prints one JSON line: the sizes, the parse time and the run
record's phase times in ms, the cover's cardinality, and the process's peak
RSS in MB once the bytes were built and at the end.

Example (rail4284 itself has about 1.09M columns):
    python scripts/soak_rail.py --m 200000
"""
import argparse
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from segcover.cli import run_algorithm
from segcover.io import parse_rail

PHASES = ("preprocess_ms", "segment_ms", "solve_ms", "merge_ms", "wall_ms")


def rail_bytes(n: int, m: int, min_rows: int, max_rows: int, seed: int) -> bytes:
    """The instance's bytes, written column by column; no member list is kept."""
    rng = random.Random(seed)
    rows = range(n)
    out = io.BytesIO()
    out.write(f"{n} {m}\n".encode())
    for j in range(m):
        members = set(rng.sample(rows, rng.randint(min_rows, max_rows)))
        members.update(range(j, n, m))
        line = " ".join(["1", str(len(members))] + [str(e + 1) for e in sorted(members)])
        out.write(line.encode() + b"\n")
    return out.getvalue()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for pool workers."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4284)
    parser.add_argument("--m", type=int, default=20_000)
    parser.add_argument("--min-rows", type=int, default=2)
    parser.add_argument("--max-rows", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    if not 1 <= args.min_rows <= args.max_rows <= args.n or args.m < 1:
        parser.error("need m >= 1 and 1 <= min-rows <= max-rows <= n")

    data = rail_bytes(args.n, args.m, args.min_rows, args.max_rows, args.seed)
    built_rss = peak_rss_mb()
    t0 = time.perf_counter()
    inst = parse_rail(data)
    parse_ms = (time.perf_counter() - t0) * 1e3
    record, _ = run_algorithm(
        inst, "soak", "grasp-uf",
        iterations=args.iterations, seed=args.seed, threads=args.threads,
    )
    print(json.dumps({
        "n": inst.n,
        "m": inst.m,
        "input_mb": len(data) / 1e6,
        "parse_ms": parse_ms,
        **{phase: getattr(record, phase) for phase in PHASES},
        "cardinality": record.cardinality,
        "rss_after_build_mb": built_rss,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
