#!/usr/bin/env python3
"""Sweep the synthetic group count and compare solvers.

Generates one segmentable instance per group count, runs the greedy
baseline, sequential GRASP, and segmented GRASP through
``cli.run_algorithm`` (unreduced; every cover is validated), and writes one
CSV row per (solver, groups) cell with quality relative to greedy plus phase
timings.

Example:
    python scripts/sweep_groups.py --n 10000 --m 20000 --iterations 50 \
        --threads 4 --out sweep.csv
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from segcover.cli import run_algorithm
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

        greedy, _ = run_algorithm(inst, name, "greedy", seed=args.seed, preprocess=False)
        greedy.rpd_star = 0.0  # greedy is its own baseline
        baseline = greedy.cardinality
        records.append(greedy)
        for algorithm, threads in (("grasp", 1), ("grasp-uf", args.threads)):
            record, _ = run_algorithm(
                inst, name, algorithm, iterations=args.iterations,
                max_rm=args.max_rm, seed=args.seed, threads=threads,
                preprocess=False, greedy_baseline=baseline,
            )
            records.append(record)
        print(
            f"k={k}: greedy={baseline} grasp={records[-2].cardinality} "
            f"grasp-uf={records[-1].cardinality}",
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
