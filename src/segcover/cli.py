"""Command-line front end: solve single instances, generate synthetic ones,
and run benchmark sweeps emitting CSV or JSON records.

Exit codes: 0 success, 2 malformed instance file, 3 usage error, 4 a pool
worker process died.
``SEGCOVER_THREADS`` provides the default for ``--threads``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Cover, Instance, cover_is_feasible
from .grasp import GraspParams
from .grasp_su import SuParams, rpd, rpd_star, solve_restarts, split
from .greedy import greedy_solve
from .io import ParseError, emit_results_csv, parse_auto, parse_rail, parse_scp
from .io import GeneratorConfig, generate_segmentable, write_scp
from .preprocess import reduce

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_USAGE_ERROR = 3
EXIT_WORKER_ERROR = 4

ALGORITHMS = ("greedy", "grasp", "grasp-uf", "grasp-mst")
FORMATS = ("scp", "rail", "auto")


@dataclass
class RunRecord:
    """One benchmark cell; ``rpd`` is present iff ``bks`` is."""

    instance: str
    algorithm: str
    seed: int
    threads: int
    cardinality: Optional[int] = None
    bks: Optional[int] = None
    rpd: Optional[float] = None
    rpd_star: Optional[float] = None
    preprocess_ms: float = 0.0
    segment_ms: float = 0.0
    solve_ms: float = 0.0
    merge_ms: float = 0.0
    wall_ms: float = 0.0
    error: str = ""


class _Parser(argparse.ArgumentParser):
    """argparse flavour whose usage errors exit with code 3, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _default_threads() -> str:
    """``SEGCOVER_THREADS`` unparsed: argparse converts a string default only
    when the flag is absent, so a bad value becomes a usage error (exit 3)."""
    return os.environ.get("SEGCOVER_THREADS", "1")


def _bks(value: str) -> int:
    """``--bks`` and a manifest's ``bks=``: a best known solution, which must
    be a positive integer."""
    if not (value.isdecimal() and int(value) > 0):
        raise argparse.ArgumentTypeError(f"bks must be a positive integer, got {value!r}")
    return int(value)


def _parse_file(path: Path, fmt: str, rail_layout: str) -> Instance:
    data = path.read_bytes()
    if fmt == "scp":
        return parse_scp(data)
    if fmt == "rail":
        return parse_rail(data, layout=rail_layout)
    return parse_auto(data, rail_layout)


def run_algorithm(
    inst: Instance,
    name: str,
    algorithm: str,
    *,
    iterations: int = 300,
    max_rm: float = 0.5,
    seed: int = 0,
    threads: int = 1,
    restarts: int = 1,
    bks: Optional[int] = None,
    preprocess: bool = True,
    fixpoint_reduce: bool = False,
    greedy_baseline: Optional[int] = None,
) -> Tuple[RunRecord, Cover]:
    """Solve with independent restarts, validate, and build a run record.

    The one clock of a run: ``preprocess_ms`` times ``reduce``,
    ``segment_ms`` the ``split`` of the residual (once per run, every
    restart reuses its pieces), ``solve_ms`` the restarts' GRASP runs or
    ``greedy_solve`` (deterministic, so it runs once), and ``merge_ms`` the
    merges of each restart's piece covers.  Lifting and validating each
    restart's cover count only in ``wall_ms``.  Restart ``k`` runs with seed
    ``seed + k``; the first strictly smallest cover is kept.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if fixpoint_reduce and not preprocess:
        raise ValueError("fixpoint_reduce needs preprocess")
    params = GraspParams(num_iter=iterations, max_rm=max_rm, seed=seed)
    record = RunRecord(instance=name, algorithm=algorithm, seed=seed, threads=threads, bks=bks)

    wall_start = time.perf_counter()
    report = reduce(inst, fixpoint=fixpoint_reduce) if preprocess else None
    work = report.residual if report is not None else inst
    t0 = time.perf_counter()
    record.preprocess_ms = (t0 - wall_start) * 1e3
    if work.n == 0:
        covers = [Cover.empty()]
    elif algorithm == "greedy":
        covers = [greedy_solve(work)]
        record.solve_ms = (time.perf_counter() - t0) * 1e3
    else:
        pieces, merge = split(work, algorithm)
        t1 = time.perf_counter()
        partials = list(solve_restarts(pieces, SuParams(params, threads), restarts))
        t2 = time.perf_counter()
        covers = [merge(piece_covers) for piece_covers in partials]
        record.segment_ms = (t1 - t0) * 1e3
        record.solve_ms = (t2 - t1) * 1e3
        record.merge_ms = (time.perf_counter() - t2) * 1e3

    best_cover: Optional[Cover] = None
    for run_seed, cover in enumerate(covers, seed):
        full = report.lift_cover(cover) if report is not None else cover
        if not cover_is_feasible(full, inst):
            raise RuntimeError(f"{algorithm} produced an infeasible cover on {name}")
        if best_cover is None or len(full) < len(best_cover):
            best_cover, record.seed = full, run_seed
    record.wall_ms = (time.perf_counter() - wall_start) * 1e3

    record.cardinality = len(best_cover)
    if bks is not None:
        record.rpd = rpd(record.cardinality, bks)
    if greedy_baseline is not None:
        record.rpd_star = rpd_star(record.cardinality, greedy_baseline)
    return record, best_cover


def _run_options(args: argparse.Namespace) -> Dict[str, object]:
    """The ``run_algorithm`` keywords that ``solve`` and every ``bench`` run
    take from the shared solver flags."""
    return dict(
        iterations=args.iterations,
        max_rm=args.max_rm,
        seed=args.seed,
        restarts=args.restarts,
        preprocess=not args.no_preprocess,
        fixpoint_reduce=args.fixpoint_reduce,
    )


def _emit(records: Sequence[RunRecord], output: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if output == "csv":
        out.write(emit_results_csv(records).decode())
    else:
        for record in records:
            out.write(json.dumps(asdict(record)) + "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    path = Path(args.input)
    inst = _parse_file(path, args.format, args.rail_layout)
    record, _ = run_algorithm(
        inst, path.name, args.algorithm, threads=args.threads, bks=args.bks,
        **_run_options(args),
    )
    _emit([record], args.output)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        n=args.n, m=args.m, groups=args.groups, density=args.density, seed=args.seed
    )
    inst = generate_segmentable(cfg)
    data = write_scp(inst)
    if args.out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(args.out).write_bytes(data)
    return EXIT_OK


def _read_manifest(path: Path) -> List[Dict[str, str]]:
    """Lines of ``instance-path [key=value ...]``; '#' starts a comment."""
    entries = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        entry = {"path": tokens[0]}
        for token in tokens[1:]:
            if "=" not in token:
                raise ValueError(f"bad manifest token {token!r} in {path}")
            key, value = token.split("=", 1)
            if key == "format" and value not in FORMATS:
                raise ValueError(
                    f"manifest entry {tokens[0]}: unknown format {value!r}; "
                    f"choose from {', '.join(FORMATS)}"
                )
            if key == "bks":
                try:
                    _bks(value)
                except argparse.ArgumentTypeError as exc:
                    raise ValueError(f"manifest entry {tokens[0]}: {exc}") from None
            entry[key] = value
        entries.append(entry)
    return entries


def _cmd_bench(args: argparse.Namespace) -> int:
    manifest_path = Path(args.manifest)
    entries = _read_manifest(manifest_path)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r} in --algorithms")
    thread_counts = [int(t) for t in args.threads.split(",") if t.strip()]
    for flag, values in (("--algorithms", algorithms), ("--threads", thread_counts)):
        if not values:
            raise ValueError(f"{flag} needs at least one value")

    records: List[RunRecord] = []
    for entry in entries:
        inst_path = Path(entry["path"])
        if not inst_path.is_absolute():
            inst_path = manifest_path.parent / inst_path
        name = entry.get("name", inst_path.name)
        bks = int(entry["bks"]) if "bks" in entry else None
        fmt = entry.get("format", args.format)
        try:
            inst = _parse_file(inst_path, fmt, args.rail_layout)
        except (OSError, ParseError) as exc:
            for algorithm in algorithms:
                for threads in thread_counts:
                    records.append(
                        RunRecord(
                            instance=name,
                            algorithm=algorithm,
                            seed=args.seed,
                            threads=threads,
                            error=str(exc),
                        )
                    )
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            continue
        options = _run_options(args)
        baseline = run_algorithm(inst, name, "greedy", **options)[0].cardinality
        for algorithm in algorithms:
            for threads in thread_counts:
                record, _ = run_algorithm(
                    inst, name, algorithm, threads=threads, bks=bks,
                    greedy_baseline=baseline, **options,
                )
                records.append(record)
    _emit(records, args.output)
    return EXIT_OK


def _add_common_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--max-rm", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=1)
    parser.add_argument(
        "--output", choices=("csv", "json"), default="csv", help="record format"
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="auto",
        help="instance file format",
    )
    parser.add_argument(
        "--rail-layout", choices=("cost-first", "count-first"), default="cost-first",
        help="column record layout for rail files",
    )
    reduction = parser.add_mutually_exclusive_group()
    reduction.add_argument(
        "--no-preprocess", action="store_true", help="solve the raw instance"
    )
    reduction.add_argument(
        "--fixpoint-reduce",
        action="store_true",
        help="alternate forcing and residual-set dominance until stable",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[], help="solve one instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="grasp")
    solve.add_argument(
        "--threads", type=int, default=_default_threads(),
        help="worker count (default: $SEGCOVER_THREADS, else 1)",
    )
    solve.add_argument("--bks", type=_bks, default=None)
    _add_common_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    generate = sub.add_parser("generate", help="write a synthetic instance")
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--m", type=int, required=True)
    generate.add_argument("--groups", type=int, required=True)
    generate.add_argument("--density", type=float, default=0.05)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", default="-", help="output path, '-' for stdout")
    generate.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="sweep algorithms over a manifest")
    bench.add_argument("--manifest", required=True)
    bench.add_argument(
        "--algorithms", default="greedy,grasp-uf", help="comma-separated tags"
    )
    bench.add_argument(
        "--threads", default=_default_threads(),
        help="comma-separated worker counts (default: $SEGCOVER_THREADS, else 1)",
    )
    _add_common_solver_flags(bench)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"segcover: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except FileNotFoundError as exc:
        print(f"segcover: error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    except BrokenProcessPool as exc:
        print(f"segcover: error: worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER_ERROR
    except (ValueError, OSError) as exc:
        print(f"segcover: error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
