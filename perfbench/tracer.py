"""Layer spans for a traced solve, recorded from outside the package.

``Tracer.install`` wraps the public functions of ``io``, ``preprocess``,
``segmentation``, ``grasp``, ``grasp_su``, ``greedy``, ``core`` and ``cli``.
Each wrapper replaces every module-level binding of the wrapped object in
the ``segcover`` modules (``cli.reduce``, ``grasp_su.find_groups``,
``grasp_su._grasp_run`` and so on), so calls through an imported name are
traced too.  A span is ``(id, parent id, name, pid, start, end, info)``.

Pool workers are forked after the wrappers are installed, so they inherit
them together with the parent's open-span stack, whose top becomes the
parent of their task spans.  A worker writes its spans to
``<spill_dir>/w<pid>.jsonl`` before each task returns; ``collect`` merges
them with the parent's.  ``layer_metrics`` turns one solve's spans into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from segcover import cli, core, grasp, grasp_su, greedy, io, preprocess, segmentation

Span = Tuple[str, Optional[str], str, int, float, float, Optional[Dict[str, Any]]]
ID, PARENT, NAME, PID, START, END, INFO = range(7)

MB = 1e6


def maxrss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _rss(bound, result, state):
    return {"rss_mb": maxrss_mb()}


def _reduce_note(bound, report, state):
    return {
        "rss_mb": maxrss_mb(),
        "forced": len(report.forced),
        "excluded": len(report.excluded),
        "m": report.original.m,
    }


def _groups_note(bound, seg, state):
    return {
        "rss_mb": maxrss_mb(),
        "components": len(seg.components),
        "largest_m": max((c.subinstance.m for c in seg.components), default=0),
    }


def _prune_note(bound, cover, state):
    return {"dropped": len(bound.arguments["c"]) - len(cover)}


def _picks_note(bound, cover, state):
    return {"picks": len(cover)}


def _tasks_note(bound, covers, state):
    workers = min(bound.arguments["params"].threads, max(1, len(covers)))
    return {"workers": workers, "bytes": state}


def _count_iterations(bound):
    """Chain a counting ``TraceFn`` in front of the caller's; return the counts."""
    counts = {"iterations": 0, "accepted": 0}
    inner = bound.arguments.get("trace")

    def trace(iteration, size, accepted, improve):
        counts["iterations"] += 1
        counts["accepted"] += int(accepted)
        if inner is not None:
            inner(iteration, size, accepted, improve)

    bound.arguments["trace"] = trace
    return counts


def _task_bytes(bound):
    """Pickled size of the tasks run_components ships, built the way it does."""
    params = bound.arguments["params"].grasp
    return sum(
        len(pickle.dumps((i, sub, replace(params, seed=params.seed ^ i))))
        for i, sub in enumerate(bound.arguments["subinstances"])
    )


# (module, attribute, span name, note, before)
TARGETS = [
    (io, "parse_scp", "io.parse", _rss, None),
    (io, "parse_rail", "io.parse", _rss, None),
    (preprocess, "reduce", "preprocess.reduce", _reduce_note, None),
    (segmentation, "find_groups", "segmentation.find_groups", _groups_note, None),
    (segmentation, "merge_partial_covers", "segmentation.merge", None, None),
    (grasp, "create_row_map", "grasp.row_map", None, None),
    (grasp, "rand_construct", "grasp.construct", None, None),
    (grasp, "remove_sets", "grasp.destroy", None, None),
    (grasp, "remove_redundant_sets", "grasp.prune", _prune_note, None),
    (grasp, "improvement_loop", "grasp.improve", lambda b, r, counts: counts, _count_iterations),
    (grasp, "_grasp_run", "grasp.run", None, None),
    (grasp_su, "grasp_su_solve", "grasp_su.solve", None, None),
    (grasp_su, "run_components", "grasp_su.run_components", _tasks_note, _task_bytes),
    (grasp_su, "_solve_component", "grasp_su.task", _rss, None),
    (greedy, "greedy_solve", "greedy.solve", _picks_note, None),
    (core, "cover_is_feasible", "core.validate", None, None),
    (cli, "run_algorithm", "cli.run_algorithm", None, None),
]


def _rebind(orig: object, new: object) -> None:
    """Point every module-level name bound to ``orig`` in segcover at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname == "segcover" or modname.startswith("segcover."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


class Tracer:
    """Keeps one process's spans in memory; one instance per solver process."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.root_pid = self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[str] = []
        self.next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []

    def record(self, name: str, call: Callable[[], Any]) -> Tuple[Any, Span]:
        """Run ``call`` inside a span; the caller appends the span with its info."""
        sid = f"{self.pid}.{self.next_id}"
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
        return result, (sid, parent, name, self.pid, start, end, None)

    def wrap(self, fn: Callable, name: str, note=None, before=None) -> Callable:
        """``fn`` recording a span.  ``before(bound)`` runs ahead of it in a
        ``trace.probe`` span of its own, may edit the bound arguments and
        returns a state; the span's info is ``note(bound, result, state)``."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            state = None
            if before is not None:
                state, probe = self.record("trace.probe", lambda: before(bound))
                self.spans.append(probe)
            result, span = self.record(name, lambda: fn(*bound.args, **bound.kwargs))
            info = note(bound, result, state) if note is not None else None
            self.spans.append(span[:INFO] + (info,))
            if name == "grasp_su.task" and self.pid != self.root_pid:
                self.spill()
            return result

        return traced

    def spill(self) -> None:
        """Append this worker's spans to its spill file, then forget them."""
        with open(self.spill_dir / f"w{self.pid}.jsonl", "a") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """The solver process's spans plus every span the workers wrote out."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("w*.jsonl")):
            spans += [tuple(json.loads(line)) for line in path.read_text().splitlines()]
        return spans

    def install(self) -> None:
        """Wrap the layer functions and rebind every module-level reference."""
        for module, attr, name, note, before in TARGETS:
            orig = getattr(module, attr)
            _rebind(orig, self.wrap(orig, name, note, before))
        lift = preprocess.ReductionReport.lift_cover
        preprocess.ReductionReport.lift_cover = self.wrap(lift, "preprocess.lift")

        tracer = self
        base = grasp_su.ProcessPoolExecutor

        class CountedPool(base):
            """The pool grasp_su creates, with its construction recorded."""

            def __init__(self, *args, **kwargs):
                _, span = tracer.record("grasp_su.pool_spawn", lambda: base.__init__(self, *args, **kwargs))
                tracer.spans.append(span)

        _rebind(base, CountedPool)


def self_times(spans: List[Span], pid: int) -> Dict[str, float]:
    """Self time of each span of process ``pid``: its duration minus its children's."""
    own = [s for s in spans if s[PID] == pid]
    out = {s[ID]: s[END] - s[START] for s in own}
    for s in own:
        if s[PARENT] in out:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def self_by_layer(spans: List[Span], pid: int) -> Dict[str, float]:
    """Self time of process ``pid`` summed per span name."""
    names = {s[ID]: s[NAME] for s in spans}
    out: Dict[str, float] = {}
    for sid, t in self_times(spans, pid).items():
        out[names[sid]] = out.get(names[sid], 0.0) + t
    return out


def layer_metrics(spans: List[Span], main_pid: int, wall_s: float, input_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced solve; ``wall_s`` is parse + run_algorithm.

    Layer times are summed over every process, so a layer that runs inside
    pool workers reports their busy time.  Self times use the solver
    process's spans only: their sum is the share of ``wall_s`` the spans
    attribute, and the rest is reported as ``trace.unattributed_s``.
    """
    names = {s[ID]: s[NAME] for s in spans}

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def dur(group):
        return sum(s[END] - s[START] for s in group)

    def first(name, key):
        return next((s[INFO][key] for s in named(name)), 0)

    selfs = self_times(spans, main_pid)
    attributed = sum(selfs.values())

    postmerge = [s for s in named("grasp.prune") if names.get(s[PARENT]) == "grasp_su.solve"]
    loop_prunes = [s for s in named("grasp.prune") if names.get(s[PARENT]) != "grasp_su.solve"]
    calls = named("grasp_su.run_components")
    tasks = named("grasp_su.task")
    busy = dur(tasks)
    run_components_s = dur(calls)
    critical = sum(max((t[END] - t[START] for t in tasks if t[PARENT] == c[ID]), default=0.0) for c in calls)
    workers = max((c[INFO]["workers"] for c in calls), default=0)
    iterations = sum(s[INFO]["iterations"] for s in named("grasp.improve"))
    accepted = sum(s[INFO]["accepted"] for s in named("grasp.improve"))
    useful = first("preprocess.reduce", "forced") + first("preprocess.reduce", "excluded")
    parse_s = dur(named("io.parse"))

    return {
        "io.parse_s": parse_s,
        "io.input_mb": input_bytes / MB,
        "io.parse_mb_per_s": input_bytes / MB / parse_s,
        "preprocess.reduce_s": dur(named("preprocess.reduce")),
        "preprocess.forced": first("preprocess.reduce", "forced"),
        "preprocess.excluded": first("preprocess.reduce", "excluded"),
        "preprocess.useful_ratio": useful / first("preprocess.reduce", "m") if useful else 0.0,
        "preprocess.lift_s": dur(named("preprocess.lift")),
        "segmentation.find_groups_s": dur(named("segmentation.find_groups")),
        "segmentation.components": first("segmentation.find_groups", "components"),
        "segmentation.largest_m": first("segmentation.find_groups", "largest_m"),
        "segmentation.merge_s": dur(named("segmentation.merge")),
        "grasp.construct_s": dur(named("grasp.construct")),
        "grasp.destroy_s": dur(named("grasp.destroy")),
        "grasp.prune_s": dur(loop_prunes),
        "grasp.row_map_s": dur(named("grasp.row_map")),
        "grasp.iterations": iterations,
        "grasp.accepted": accepted,
        "grasp.accept_ratio": accepted / iterations if iterations else 0.0,
        "grasp_su.solve_s": dur(named("grasp_su.solve")),
        "grasp_su.run_components_s": run_components_s,
        "grasp_su.worker_busy_s": busy,
        "grasp_su.critical_task_s": critical,
        "grasp_su.parallel_efficiency": busy / (workers * run_components_s) if workers else 0.0,
        "grasp_su.overhead_s": run_components_s - busy / workers if workers else 0.0,
        "grasp_su.pools_spawned": len(named("grasp_su.pool_spawn")),
        "grasp_su.tasks": len(tasks),
        "grasp_su.task_mb": sum(c[INFO]["bytes"] for c in calls) / MB,
        "grasp_su.postmerge_prune_s": dur(postmerge),
        "grasp_su.postmerge_dropped": sum(s[INFO]["dropped"] for s in postmerge),
        "greedy.solve_s": dur(named("greedy.solve")),
        "greedy.picks": sum(s[INFO]["picks"] for s in named("greedy.solve")),
        "core.validate_s": dur(named("core.validate")),
        "core.validate_calls": len(named("core.validate")),
        "cli.run_algorithm_s": dur(named("cli.run_algorithm")),
        "cli.self_s": sum(selfs[s[ID]] for s in named("cli.run_algorithm")),
        "mem.rss_after_parse_mb": first("io.parse", "rss_mb"),
        "mem.rss_after_reduce_mb": first("preprocess.reduce", "rss_mb"),
        "mem.rss_after_segment_mb": first("segmentation.find_groups", "rss_mb"),
        "mem.worker_rss_mb": max((s[INFO]["rss_mb"] for s in tasks if s[PID] != main_pid), default=0.0),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - attributed,
        "trace.coverage_ratio": attributed / wall_s,
    }
