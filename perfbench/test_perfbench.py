"""Self-test of the benchmark: inputs, output check and traced solves.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from segcover.io import GeneratorConfig, generate_segmentable, write_scp  # noqa: E402

BASELINE = json.loads((HERE / "baseline.json").read_text())


def test_w1_bytes_equal_segcover_generator():
    cfg = GeneratorConfig(n=10_000, m=20_000, groups=32, seed=20_260_810)
    data = workloads.w1(0).data
    assert data == write_scp(generate_segmentable(cfg))
    assert len(data) == 1_877_657


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_regenerates_byte_identically(name):
    generate = workloads.WORKLOADS[name].generate
    first = generate(0)
    assert first.sha256 == BASELINE["workloads"][name]["input_sha256_seed0"]
    assert generate(0).data == first.data
    assert generate(1).data == generate(1).data != first.data


def test_rail_generator_covers_every_row():
    gen = workloads.rail_shaped(n=40, m=30, min_rows=2, max_rows=10, seed=3)
    assert not workloads.check_cover(list(range(30)), gen)
    assert all(2 <= len(rows) <= 11 and rows == sorted(set(rows)) for rows in gen.members)


def test_check_cover_reports_each_violation():
    gen = workloads.segmentable(n=12, m=8, groups=2, density=0.5, seed=1)
    everything = list(range(8))
    assert workloads.check_cover(everything, gen) == []
    assert "out of range" in workloads.check_cover([0, 8], gen)[0]
    assert "out of range" in workloads.check_cover([-1], gen)[0]
    assert "duplicate" in workloads.check_cover(everything + [0], gen)[0]
    assert "uncovered" in workloads.check_cover([0], gen)[0]


def _solve(gen, args, trace_dir=None):
    cmd = [sys.executable, str(HERE / "solver.py")] + args
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    proc = subprocess.run(cmd, input=gen.data, capture_output=True, check=True, timeout=120)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_traced_solve_records_worker_spans_and_keeps_the_cover(tmp_path):
    gen = workloads.segmentable(n=300, m=600, groups=4, density=0.05, seed=5)
    wl = workloads.Workload("small", lambda s: gen, "scp", "grasp-uf", iterations=5)
    plain = _solve(gen, wl.solver_args())
    traced = _solve(gen, wl.solver_args(), tmp_path)
    assert traced["chosen"] == plain["chosen"]
    assert not workloads.check_cover(plain["chosen"], gen)
    layers = traced["layers"]
    assert layers["grasp_su.pools_spawned"] == 2
    assert layers["grasp_su.tasks"] == 8
    assert layers["segmentation.components"] == 4
    assert layers["grasp.iterations"] == 5 * 8
    assert layers["mem.worker_rss_mb"] > 0
    assert layers["grasp.construct_s"] > 0
    assert layers["greedy.solve_s"] == 0
    assert 0.99 < layers["trace.coverage_ratio"] <= 1.0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared] == list(layers) + ["trace.overhead_s"]
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in declared)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rail", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
