#!/usr/bin/env python3
"""Time the front end on a rail-shaped instance of a chosen size.

Builds cost-first rail bytes of the rail4284 shape (4284 rows; each column
holds 2 to 10 distinct random rows, and column ``j`` also holds every row
``r`` with ``r % m == j``, so the family covers every row), then parses them
with ``parse_rail``, reduces the instance, segments the residual, builds
GRASP's row map of the residual and solves each residual piece with one
GRASP iteration.  Prints one JSON line: the sizes, the seconds each layer
took, and the process's peak RSS in MB once the bytes were built and at the
end.

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

from segcover.grasp import GraspParams, create_row_map, grasp_solve
from segcover.io import parse_rail
from segcover.preprocess import reduce
from segcover.segmentation import find_groups


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
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4284)
    parser.add_argument("--m", type=int, default=20_000)
    parser.add_argument("--min-rows", type=int, default=2)
    parser.add_argument("--max-rows", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not 1 <= args.min_rows <= args.max_rows <= args.n or args.m < 1:
        parser.error("need m >= 1 and 1 <= min-rows <= max-rows <= n")

    data = rail_bytes(args.n, args.m, args.min_rows, args.max_rows, args.seed)
    built_rss = peak_rss_mb()
    t0 = time.perf_counter()
    inst = parse_rail(data)
    t1 = time.perf_counter()
    report = reduce(inst)
    t2 = time.perf_counter()
    seg = find_groups(report.residual)
    t3 = time.perf_counter()
    create_row_map(report.residual)
    t4 = time.perf_counter()
    for component in seg.components:
        grasp_solve(component.subinstance, GraspParams(num_iter=1, seed=args.seed))
    t5 = time.perf_counter()
    print(json.dumps({
        "n": inst.n,
        "m": inst.m,
        "input_mb": len(data) / 1e6,
        "parse_s": t1 - t0,
        "reduce_s": t2 - t1,
        "find_groups_s": t3 - t2,
        "row_map_s": t4 - t3,
        "solve_s": t5 - t4,
        "excluded": len(report.excluded),
        "components": len(seg.components),
        "rss_after_build_mb": built_rss,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
