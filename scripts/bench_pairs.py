#!/usr/bin/env python3
"""Compare a revision with the working tree in alternating benchmark pairs.

Each pair runs ``perfbench/run.py --trace 0`` once on each side, for each
workload.  A side is the git-tracked files of ``--base`` (a revision) or of
the working tree (``git ls-files``, as they are on disk); before every run
the side's files are copied into one and the same scratch directory, so
both sides run from the same path.  The side that runs first alternates
from pair to pair.  Each run's last stdout line is its JSON result.

For each workload and end-to-end metric of ``BENCHMARK.json``, prints the
median and quartiles of both sides' run values and the number of pairs in
which the working tree reads better and worse.  The last stdout line is one
JSON object with those figures and every pair's ``[base, change]`` values.

Example:
    python scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 10
"""
import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def export_base(revision: str, dest: Path) -> None:
    """The git-tracked files of ``revision``, written under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_tree(dest: Path) -> None:
    """The git-tracked files of the working tree, as they are on disk."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z"], capture_output=True, check=True
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(source: Path, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Copy ``source`` to ``tree`` and run the benchmark there; its JSON result."""
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(source, tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True,
    )
    lines = proc.stdout.decode().splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no output from {workload}: {proc.stderr.decode()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    """Median and inclusive quartiles."""
    q1, mid, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": mid, "q1": q1, "q3": q3}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")

    runs = {w: {"base": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        sources = {"base": Path(scratch) / "base", "change": Path(scratch) / "change"}
        export_base(args.base, sources["base"])
        sources["change"].mkdir()
        export_tree(sources["change"])
        tree = Path(scratch) / "tree"
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    result = run_once(sources[side], tree, workload, args.seed, args.seconds)
                    runs[workload][side].append(result)
                    print(f"pair {pair + 1} {workload} {side}: "
                          + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                          file=sys.stderr)

    report = {"base": args.base, "pairs": args.pairs, "seed": args.seed,
              "seconds": args.seconds, "workloads": {}}
    for workload, sides in runs.items():
        entry = report["workloads"][workload] = {
            "failed": {side: sum(r["failed"] for r in results) for side, results in sides.items()},
        }
        for name, better in metrics.items():
            per_pair = [[b["metrics"][name]["value"], c["metrics"][name]["value"]]
                        for b, c in zip(sides["base"], sides["change"])
                        if name in b["metrics"] and name in c["metrics"]]
            if not per_pair:
                continue
            sign = 1 if better == "lower" else -1
            entry[name] = {
                "base": spread([b for b, _ in per_pair]),
                "change": spread([c for _, c in per_pair]),
                "change_better": sum(sign * (c - b) < 0 for b, c in per_pair),
                "change_worse": sum(sign * (c - b) > 0 for b, c in per_pair),
                "per_pair": per_pair,
            }
            e = entry[name]
            print(f"{workload:10s} {name:12s} base {e['base']['median']:.6g} "
                  f"[{e['base']['q1']:.6g}, {e['base']['q3']:.6g}]  change "
                  f"{e['change']['median']:.6g} [{e['change']['q1']:.6g}, {e['change']['q3']:.6g}]  "
                  f"better {e['change_better']}/{len(per_pair)}, worse {e['change_worse']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
