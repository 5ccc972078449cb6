"""One solve in a fresh interpreter: instance bytes on stdin, one JSON line out.

    python3 solver.py --format scp --algorithm grasp-uf --iterations 50 \\
        --threads 2 --restarts 2 --max-rm 0.5 --seed 0 [--trace-dir DIR] < inst

Times the ``segcover solve`` path from the bytes in memory: the explicit
format's parser (``parse_auto`` is bypassed), then ``cli.run_algorithm``,
which reduces, solves, lifts and validates.  Prints ``chosen`` (the cover's
subset ids in order), ``parse_s``, ``wall_s`` and ``peak_rss_mb`` (the peak of
this process and of its pool workers).  With ``--trace-dir`` the layer
functions are wrapped first (see ``tracer.py``) and the output also holds
``layers`` (the per-layer metrics) and ``self_s`` (self time per span name).

``segcover`` is imported from the ``src`` directory next to this one.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children, in MB."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--format", choices=("scp", "rail"), required=True)
    ap.add_argument("--algorithm", required=True)
    ap.add_argument("--iterations", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--restarts", type=int, required=True)
    ap.add_argument("--max-rm", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-dir", type=Path, default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import segcover
    from segcover import cli, io

    if Path(segcover.__file__).resolve().parent != SRC / "segcover":
        raise SystemExit(f"imported segcover from {segcover.__file__}, not from {SRC}")

    tracer = None
    if args.trace_dir is not None:
        from tracer import Tracer, layer_metrics, self_by_layer

        tracer = Tracer(args.trace_dir)
        tracer.install()

    data = sys.stdin.buffer.read()
    start = time.perf_counter()
    inst = io.parse_scp(data) if args.format == "scp" else io.parse_rail(data)
    parsed = time.perf_counter()
    _, cover = cli.run_algorithm(
        inst,
        "perfbench",
        args.algorithm,
        iterations=args.iterations,
        max_rm=args.max_rm,
        seed=args.seed,
        threads=args.threads,
        restarts=args.restarts,
    )
    end = time.perf_counter()

    out = {
        "chosen": list(cover.chosen),
        "parse_s": parsed - start,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        spans = tracer.collect()
        out["layers"] = layer_metrics(spans, tracer.root_pid, end - start, len(data))
        out["self_s"] = self_by_layer(spans, tracer.root_pid)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
