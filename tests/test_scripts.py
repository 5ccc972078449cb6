import csv
import io
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
