"""segcover benchmark: input bytes to a validated cover, per workload.

    python3 perfbench/run.py --workload segmented --seed 0 --seconds 40 --trace 0

Generates the workload's instance from ``--seed`` (see ``workloads.py``),
then for ``--seconds`` runs solves one after another, each in a fresh
interpreter (``solver.py``) that receives only the bytes.  Every returned
cover is checked against the generator's own member lists, and all solves
of a run must return the same chosen-id list; a solve that raises, times
out or fails either check counts as failed.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
solves of ``wall_s`` (parse + ``run_algorithm``), ``setup_s`` (parse),
``cardinality`` and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced
solves alternate; the metrics are the per-layer ones from the traced solves
(medians), plus ``trace.overhead_s``, the traced minus the untraced median
``wall_s``.  A report goes first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any solve failed, 2 when ``src/segcover`` is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, Generated, Workload, check_cover, chosen_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 165.0  # no solve may end later than this after start-up
MIN_SOLVES = 2  # untraced solves per run, even past --seconds

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cardinality": "count", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("parallel_efficiency", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def solve(workload: Workload, gen: Generated, trace_dir: Optional[Path],
          timeout: float) -> Tuple[Optional[dict], str]:
    """Run one solve in a fresh interpreter; (result, "") or (None, error)."""
    cmd = [sys.executable, str(HERE / "solver.py")] + workload.solver_args()
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(gen.data, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        # The solver's pool workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"exit code {proc.returncode}: {' '.join(tail)}"
    try:
        return json.loads(out.decode().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON result on stdout"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "segcover" / "__init__.py").is_file():
        print(f"perfbench: no segcover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    gen = workload.generate(args.seed)
    print(f"workload {workload.name} seed {args.seed}: {len(gen.data)} bytes, n={gen.n}, "
          f"m={len(gen.members)}, sha256 {gen.sha256}")

    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    plain: List[dict] = []
    traced: List[dict] = []
    failures = 0
    digests: Dict[str, int] = {}
    solve_s: List[float] = []
    try:
        while True:
            use_trace = bool(args.trace) and len(solve_s) % 2 == 1
            elapsed = time.perf_counter() - started
            t0 = time.perf_counter()
            trace_dir = scratch / f"solve{len(solve_s)}" if use_trace else None
            result, error = solve(workload, gen, trace_dir, HARD_LIMIT_S - elapsed)
            solve_s.append(time.perf_counter() - t0)
            if result is not None:
                problems = check_cover(result["chosen"], gen)
                if problems:
                    error = "invalid cover: " + "; ".join(problems)
            if error:
                failures += 1
                print(f"solve {len(solve_s)} failed: {error}")
            else:
                digest = chosen_digest(result["chosen"])
                digests[digest] = digests.get(digest, 0) + 1
                result["digest"] = digest
                (traced if use_trace else plain).append(result)
                print(f"solve {len(solve_s)}{' traced' if use_trace else ''}: wall_s {result['wall_s']:.4f}, "
                      f"parse_s {result['parse_s']:.4f}, cardinality {len(result['chosen'])}, "
                      f"peak_rss_mb {result['peak_rss_mb']:.1f}")
            # Start another solve only if it is expected to end within
            # --seconds, once the minimum sample is in.
            elapsed = time.perf_counter() - started
            expected = median(solve_s)
            minimum = failures or ((plain and traced) if args.trace else len(plain) >= MIN_SOLVES)
            if (minimum and elapsed + expected > args.seconds) or elapsed + 1.5 * max(solve_s) > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    # Solves whose chosen ids differ from the most common list fail too.
    common = max(digests, key=digests.get) if digests else ""
    for result in plain + traced:
        if result["digest"] != common:
            print(f"solve failed: chosen-id digest {result['digest']} differs from {common}")
    plain = [r for r in plain if r["digest"] == common]
    traced = [r for r in traced if r["digest"] == common]
    attempted = len(solve_s)
    failed = attempted - len(plain) - len(traced)

    metrics: Dict[str, float] = {}
    samples = len(traced) if args.trace else len(plain)
    if plain and (traced or not args.trace):
        if args.trace:
            for name in traced[0]["layers"]:
                metrics[name] = median(r["layers"][name] for r in traced)
            metrics["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain)
        else:
            metrics = {
                "wall_s": median(r["wall_s"] for r in plain),
                "setup_s": median(r["parse_s"] for r in plain),
                "cardinality": median(len(r["chosen"]) for r in plain),
                "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            }

    print(f"solves: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4f}; "
          f"metrics are medians of {samples} {'traced ' if args.trace else ''}solves")
    print(f"chosen-id digest {common}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g}")
    if traced:
        mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        print("self time per span name in the solver process, median traced solve:")
        for name, t in sorted(mid["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {t:9.4f} s")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
