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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .core import Cover, Instance, cover_is_feasible
from .grasp import GraspParams
from .grasp_su import ALGORITHMS, SuParams, rpd, rpd_star, run_components, split
from .greedy import greedy_solve
from .io import ParseError, emit_results_csv, parse_auto, parse_rail, parse_scp
from .io import GeneratorConfig, generate_segmentable, write_scp
from .preprocess import force

EXIT_OK = 0
EXIT_PARSE_ERROR = 2
EXIT_USAGE_ERROR = 3
EXIT_WORKER_ERROR = 4

FORMATS = ("scp", "rail", "auto")
MANIFEST_KEYS = ("name", "bks", "format")


@dataclass
class RunRecord:
    """One benchmark cell; ``rpd`` is present iff ``bks`` is, and a cell
    the solver refused carries only its ``error``.  ``seed`` is the run's
    seed: restart ``k`` ran on ``seed + k``.

    The phases are ``run_algorithm``'s, the same steps for every algorithm:
    ``preprocess_ms`` is the forcing sweep (``preprocess.force``; dominance
    is not on the run path); ``segment_ms`` the ``split`` into pieces
    (the union-find for ``greedy`` and ``grasp-uf``, the bipartition for
    ``grasp-mst``); ``solve_ms`` the piece solves; ``merge_ms`` the merge of
    piece covers, which picks among restarts.  ``wall_ms`` also counts
    lifting and validation.  ``parse_ms``, outside ``wall_ms``, is the
    reading and parsing of the instance file, shared by the bench cells of
    one instance; it stays 0 for an instance that was not read from a file.
    """

    instance: str
    algorithm: str
    seed: int
    threads: int
    cardinality: Optional[int] = None
    bks: Optional[int] = None
    rpd: Optional[float] = None
    rpd_star: Optional[float] = None
    parse_ms: float = 0.0
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


def _checked(convert: Callable[[str], Any], rule: str, ok: Callable[[Any], bool]):
    """An argparse type: ``convert`` the value and refuse it, as "must
    <rule>", unless ``ok`` holds; a value ``convert`` cannot read keeps
    argparse's own message ("invalid int value: 'x'")."""

    def parse(value: str):
        number = convert(value)
        if not ok(number):
            raise argparse.ArgumentTypeError(f"must {rule}, got {value!r}")
        return number

    parse.__name__ = convert.__name__
    return parse


_positive = _checked(int, "be >= 1", lambda v: v >= 1)


def _thread_counts(value: str) -> List[int]:
    """``bench --threads``: comma-separated worker counts, each checked as
    ``solve --threads`` checks its one.  Named ``int`` below, so argparse
    reports an unreadable count as an invalid int value."""
    return [_positive(t) for t in value.split(",") if t.strip()]


_thread_counts.__name__ = "int"


def _parse_file(path: Path, fmt: str, rail_layout: str) -> Tuple[Instance, float]:
    """The instance in ``path`` and the ms that reading and parsing it took."""
    start = time.perf_counter()
    data = path.read_bytes()
    if fmt == "scp":
        inst = parse_scp(data)
    elif fmt == "rail":
        inst = parse_rail(data, layout=rail_layout)
    else:
        inst = parse_auto(data, rail_layout)
    return inst, (time.perf_counter() - start) * 1e3


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
    greedy_baseline: Optional[int] = None,
) -> Tuple[RunRecord, Cover]:
    """Solve with independent restarts, validate, and build a run record.

    Every algorithm runs one sequence, once per run: ``split`` the residual
    into pieces, solve them, ``merge`` their covers into one cover, then
    lift and validate it.  Only the piece solver differs: ``greedy`` is
    deterministic, so it runs ``greedy_solve`` once per piece, in-process;
    every other algorithm runs all its restarts, restart ``k`` on seed
    ``seed + k``, in one ``run_components`` call, and ``split``'s merge
    picks among them.  The instance is reduced by the forcing sweep alone
    (``preprocess.force``, skipped with ``preprocess=False``); ``reduce``'s
    dominance pass is for library callers.  ``RunRecord`` names the phases
    that this one clock of a run times.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    params = SuParams(GraspParams(num_iter=iterations, max_rm=max_rm, seed=seed), threads)
    record = RunRecord(instance=name, algorithm=algorithm, seed=seed, threads=threads, bks=bks)

    wall_start = time.perf_counter()
    report = force(inst) if preprocess else None
    work = report.residual if report is not None else inst
    t0 = time.perf_counter()
    pieces, merge = split(work, algorithm)
    t1 = time.perf_counter()
    if algorithm == "greedy":
        covers = [greedy_solve(piece) for piece in pieces]
    else:
        covers = run_components(pieces, params, restarts)
    t2 = time.perf_counter()
    cover = merge(covers)
    record.preprocess_ms = (t0 - wall_start) * 1e3
    record.segment_ms = (t1 - t0) * 1e3
    record.solve_ms = (t2 - t1) * 1e3
    record.merge_ms = (time.perf_counter() - t2) * 1e3

    full = report.lift_cover(cover) if report is not None else cover
    if not cover_is_feasible(full, inst):
        raise RuntimeError(f"{algorithm} produced an infeasible cover on {name}")
    record.wall_ms = (time.perf_counter() - wall_start) * 1e3

    record.cardinality = len(full)
    if bks is not None:
        record.rpd = rpd(record.cardinality, bks)
    if greedy_baseline is not None:
        record.rpd_star = rpd_star(record.cardinality, greedy_baseline)
    return record, full


def _run_options(args: argparse.Namespace) -> Dict[str, object]:
    """The ``run_algorithm`` keywords that ``solve`` and every ``bench`` run
    take from the shared solver flags."""
    return dict(
        iterations=args.iterations,
        max_rm=args.max_rm,
        seed=args.seed,
        restarts=args.restarts,
        preprocess=not args.no_preprocess,
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
    inst, parse_ms = _parse_file(path, args.format, args.rail_layout)
    record, _ = run_algorithm(
        inst, path.name, args.algorithm, threads=args.threads, bks=args.bks,
        **_run_options(args),
    )
    record.parse_ms = parse_ms
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
    """Lines of ``instance-path [key=value ...]``, each key one of
    ``MANIFEST_KEYS``; '#' starts a comment."""
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
            if key not in MANIFEST_KEYS:
                raise ValueError(
                    f"manifest entry {tokens[0]}: unknown key {key!r}; "
                    f"choose from {', '.join(MANIFEST_KEYS)}"
                )
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


def _refused(name: str, algorithm: str, threads: int, seed: int, exc: Exception) -> RunRecord:
    """The row of a cell that could not be solved: only its error."""
    return RunRecord(name, algorithm, seed, threads, error=str(exc))


def sweep(
    inst: Instance, name: str, cells: Iterable[Tuple[str, int]], *, bks: Optional[int] = None,
    **options: Any,
) -> List[RunRecord]:
    """One record per ``(algorithm, threads)`` cell of ``inst``, in order;
    ``options`` are further ``run_algorithm`` keywords.  greedy is
    deterministic: one solve gives every greedy row and the rpd* baseline
    (none when its cover is empty).  A cell the solver refuses with a
    ValueError becomes an error row, with a warning on stderr."""

    def run(algorithm: str, threads: int, baseline: Optional[int]) -> RunRecord:
        try:
            return run_algorithm(
                inst, name, algorithm, threads=threads, bks=bks,
                greedy_baseline=baseline, **options,
            )[0]
        except ValueError as exc:
            print(f"warning: {name} {algorithm} threads={threads}: {exc}", file=sys.stderr)
            return _refused(name, algorithm, threads, options.get("seed", 0), exc)

    greedy = run("greedy", 1, None)
    greedy.rpd_star = 0.0 if greedy.cardinality else None
    return [
        replace(greedy, threads=threads) if algorithm == "greedy"
        else run(algorithm, threads, greedy.cardinality or None)
        for algorithm, threads in cells
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    manifest_path = Path(args.manifest)
    entries = _read_manifest(manifest_path)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r} in --algorithms")
    for flag, values in (("--algorithms", algorithms), ("--threads", args.threads)):
        if not values:
            raise ValueError(f"{flag} needs at least one value")
    cells = [(a, t) for a in algorithms for t in args.threads]

    records: List[RunRecord] = []
    for entry in entries:
        inst_path = Path(entry["path"])
        if not inst_path.is_absolute():
            inst_path = manifest_path.parent / inst_path
        name = entry.get("name", inst_path.name)
        bks = int(entry["bks"]) if "bks" in entry else None
        fmt = entry.get("format", args.format)
        try:
            inst, parse_ms = _parse_file(inst_path, fmt, args.rail_layout)
        except (OSError, ParseError) as exc:
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            records += [_refused(name, a, t, args.seed, exc) for a, t in cells]
            continue
        rows = sweep(inst, name, cells, bks=bks, **_run_options(args))
        for record in rows:
            record.parse_ms = parse_ms
        records += rows
    _emit(records, args.output)
    return EXIT_OK


def _add_common_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--iterations", type=_checked(int, "be >= 0", lambda v: v >= 0), default=300
    )
    parser.add_argument(
        "--max-rm", type=_checked(float, "lie in (0, 1)", lambda v: 0 < v < 1), default=0.5
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=_positive, default=1)
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
    parser.add_argument("--no-preprocess", action="store_true", help="skip the forcing sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[], help="solve one instance file")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="grasp")
    solve.add_argument(
        "--threads", type=_positive, default=_default_threads(),
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
        "--threads", type=_thread_counts, default=_default_threads(),
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
