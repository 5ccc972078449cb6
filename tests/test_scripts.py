import csv
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_groups_writes_one_row_per_solver_and_group_count():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_groups.py"),
         "--n", "400", "--m", "300", "--groups", "1,4", "--iterations", "5"],
        capture_output=True, timeout=300, check=True,
    )
    rows = list(csv.DictReader(io.StringIO(proc.stdout.decode())))
    assert [(r["algorithm"], r["instance"][-2:]) for r in rows] == [
        (algorithm, k) for k in ("k1", "k4") for algorithm in ("greedy", "grasp", "grasp-uf")
    ]
    assert all(int(r["cardinality"]) > 0 and float(r["wall_ms"]) > 0.0 for r in rows)


def test_soak_rail_prints_one_json_line_of_layer_times():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "soak_rail.py"), "--n", "300", "--m", "500"],
        capture_output=True, timeout=300, check=True,
    )
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["n"], record["m"]) == (300, 500)
    assert record["cardinality"] >= 1
    for key in ("parse_ms", "preprocess_ms", "segment_ms", "solve_ms", "wall_ms", "peak_rss_mb"):
        assert record[key] > 0
