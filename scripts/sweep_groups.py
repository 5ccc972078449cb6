#!/usr/bin/env python3
"""Sweep the synthetic group count and compare solvers.

Generates one segmentable instance per group count and runs the greedy
baseline, sequential GRASP, and segmented GRASP on it through ``cli.sweep``,
the cell runner of ``segcover bench`` (unreduced; every cover is validated),
writing one CSV row per (solver, groups) cell with quality relative to
greedy and the wall time (``io.CSV_HEADER``, whose only timing is
``wall_ms``; phase timings appear only in ``segcover solve/bench --output
json``).

Example:
    python scripts/sweep_groups.py --n 10000 --m 20000 --iterations 50 \
        --threads 4 --out sweep.csv
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from segcover.cli import sweep
from segcover.io import GeneratorConfig, emit_results_csv, generate_segmentable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--m", type=int, default=20_000)
    parser.add_argument("--groups", default="1,2,4,8,16,32,64")
    parser.add_argument("--density", type=float, default=0.05)
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--max-rm", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    args = parser.parse_args()

    records = []
    for k in (int(g) for g in args.groups.split(",")):
        cfg = GeneratorConfig(
            n=args.n, m=args.m, groups=k, density=args.density, seed=args.seed
        )
        inst = generate_segmentable(cfg)
        name = f"synthetic-n{args.n}-m{args.m}-k{k}"

        cells = [("greedy", 1), ("grasp", 1), ("grasp-uf", args.threads)]
        rows = sweep(inst, name, cells, iterations=args.iterations, max_rm=args.max_rm,
                     seed=args.seed, preprocess=False)
        records += rows
        print(
            f"k={k}: " + " ".join(f"{r.algorithm}={r.cardinality}" for r in rows),
            file=sys.stderr,
        )

    data = emit_results_csv(records)
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
