import contextlib
import csv
import io
import itertools
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import cli, grasp_su, preprocess, segmentation
from segcover.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_USAGE_ERROR,
    EXIT_WORKER_ERROR,
    main,
)
from segcover.core import Instance
from segcover.greedy import greedy_solve
from segcover.io import CSV_HEADER, GeneratorConfig, generate_segmentable, parse_scp, write_scp
from segcover.preprocess import force, reduce

from conftest import DATA_DIR, make_instance
from oracles import mutated_file, reference_run_restarts

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(stdin: bytes, *argv):
    """Run ``python -m segcover`` from the source tree with ``stdin`` on a pipe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "segcover", *argv],
        input=stdin, capture_output=True, timeout=60, env=env,
    )


FIXTURE = str(DATA_DIR / "example12.scp")


class TestSolve:
    def test_greedy_on_fixture_without_preprocess(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--input", FIXTURE, "--algorithm", "greedy",
            "--format", "scp", "--no-preprocess",
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.startswith("instance,algorithm,seed")
        assert row.split(",")[4] == "4"  # greedy needs four subsets

    def test_grasp_reaches_optimum(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--input", FIXTURE, "--algorithm", "grasp",
            "--format", "scp", "--iterations", "300", "--max-rm", "0.5",
            "--seed", "5", "--bks", "3",
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert row[4] == "3"
        assert row[6] == "0.0000"  # rpd against bks=3

    @pytest.mark.parametrize("bks", ["0", "-2", "x"])
    def test_bad_bks_is_usage_error_before_any_solve(self, bks, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(cli, "run_algorithm", lambda *a, **k: solves.append(a))
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--input", FIXTURE, "--format", "scp", f"--bks={bks}"])
        assert exit_info.value.code == EXIT_USAGE_ERROR
        assert solves == []
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --bks: bks must be a positive integer, got '{bks}'" in err

    @pytest.mark.parametrize(
        "command, flags, env, message",
        [
            ("solve", ["--threads", "0"], None, "argument --threads: must be >= 1, got '0'"),
            ("solve", ["--restarts", "0"], None, "argument --restarts: must be >= 1, got '0'"),
            ("solve", ["--iterations", "-1"], None, "argument --iterations: must be >= 0, got '-1'"),
            ("solve", ["--max-rm", "1.5"], None, "argument --max-rm: must lie in (0, 1), got '1.5'"),
            ("solve", [], "-2", "argument --threads: must be >= 1, got '-2'"),
            ("bench", ["--threads", "0,1"], None, "argument --threads: must be >= 1, got '0'"),
            ("bench", ["--max-rm", "0"], None, "argument --max-rm: must lie in (0, 1), got '0'"),
        ],
    )
    def test_bad_solver_flag_is_usage_error_before_any_file_is_read(
        self, command, flags, env, message, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_algorithm", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "_parse_file", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "_read_manifest", lambda *a: calls.append(a))
        if env is not None:
            monkeypatch.setenv("SEGCOVER_THREADS", env)
        source = ["--input", FIXTURE] if command == "solve" else ["--manifest", FIXTURE]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *source, *flags])
        assert exit_info.value.code == EXIT_USAGE_ERROR
        assert calls == []
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_zero_iterations_still_succeeds(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--input", FIXTURE, "--format", "scp",
            "--iterations", "0",
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].split(",")[4] != ""

    def test_json_output_mirrors_record_fields(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "solve", "--input", FIXTURE, "--format", "scp",
            "--algorithm", "greedy", "--output", "json",
        )
        assert code == EXIT_OK
        record = json.loads(out.strip())
        assert {
            "instance", "algorithm", "seed", "threads", "cardinality", "bks",
            "rpd", "rpd_star", "parse_ms", "preprocess_ms", "segment_ms",
            "solve_ms", "merge_ms", "wall_ms",
        } <= set(record)
        # reduction fixes one subset and leaves an 8x5 residual that greedy
        # covers with two picks, so the lifted cover has three subsets
        assert record["cardinality"] == 3
        phases = [record[k] for k in
                  ("preprocess_ms", "segment_ms", "solve_ms", "merge_ms")]
        assert all(v >= 0.0 for v in phases)
        assert sum(phases) <= record["wall_ms"]
        assert record["parse_ms"] > 0.0  # outside wall_ms

        # bench: the cells of one instance share its parse; CSV rows keep
        # the fixed header
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{FIXTURE} name=a format=scp\n{FIXTURE} name=b format=scp\n")
        argv = ["bench", "--manifest", str(manifest), "--algorithms", "greedy,grasp-uf",
                "--iterations", "2"]
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["instance"] for r in records] == ["a", "a", "b", "b"]
        for cells in (records[:2], records[2:]):
            assert {r["parse_ms"] for r in cells} == {cells[0]["parse_ms"]}
            assert cells[0]["parse_ms"] > 0.0
        _, out, _ = run(capsys, *argv)
        assert out.splitlines()[0] == ",".join(CSV_HEADER)

    def test_grasp_cover_independent_of_threads(self, capsys):
        rows = []
        for threads in ("1", "2"):
            _, out, _ = run(
                capsys, "solve", "--input", FIXTURE, "--format", "scp",
                "--algorithm", "grasp", "--iterations", "25", "--seed", "6",
                "--threads", threads,
            )
            rows.append(out.strip().splitlines()[1].split(","))
        assert rows[0][:3] + rows[0][4:8] == rows[1][:3] + rows[1][4:8]

    @pytest.mark.parametrize(
        "flags",
        [("--algorithm", "par-grasp"), ("--one-pass-reduce",), ("--fixpoint-reduce",)],
    )
    def test_removed_alias_and_flag_are_usage_errors(self, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--input", FIXTURE, "--format", "scp", *flags])
        assert exit_info.value.code == EXIT_USAGE_ERROR

    def test_restarts_report_best(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--input", FIXTURE, "--format", "scp",
            "--iterations", "40", "--restarts", "5", "--seed", "100",
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].split(",")[4] == "3"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--input", "/no/such/file")
        assert code == EXIT_USAGE_ERROR
        assert "not found" in err

    def test_input_from_a_pipe(self):
        proc = run_module(
            Path(FIXTURE).read_bytes(), "solve", "--input", "/dev/stdin", "--format", "scp",
            "--algorithm", "greedy", "--no-preprocess",
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert proc.stdout.decode().splitlines()[1].split(",")[:5] == [
            "stdin", "greedy", "0", "1", "4"
        ]

    def test_greedy_with_negative_iterations_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--input", FIXTURE, "--format", "scp",
                  "--algorithm", "greedy", "--iterations", "-1"])
        assert exit_info.value.code == EXIT_USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --iterations: must be >= 0, got '-1'" in err

    def test_grasp_mst_on_one_element_residual_is_usage_error(self, tmp_path, capsys):
        # connected and valid, but reduction leaves one element and one subset
        path = tmp_path / "one.scp"
        path.write_bytes(b"1 3\n1 1 1\n3\n1 2 3\n")
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--format", "scp",
            "--algorithm", "grasp-mst",
        )
        assert code == EXIT_USAGE_ERROR
        assert out == ""
        assert err == "segcover: error: bipartition needs at least two elements\n"

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scp"
        bad.write_bytes(b"not numbers at all")
        code, _, err = run(capsys, "solve", "--input", str(bad), "--format", "scp")
        assert code == EXIT_PARSE_ERROR
        assert "byte offset" in err

    def test_file_valid_in_both_formats_needs_explicit_format(self, tmp_path, capsys):
        # the scp bytes of n=2, [{0,1},{0},{0}] also read as rail [[0],[1],[0]]
        path = tmp_path / "both.txt"
        path.write_bytes(write_scp(make_instance(2, ((1, 2), (1,), (1,)))))
        code, _, err = run(capsys, "solve", "--input", str(path), "--algorithm", "greedy")
        assert code == EXIT_PARSE_ERROR
        assert "--format" in err
        code, out, _ = run(
            capsys, "solve", "--input", str(path), "--algorithm", "greedy",
            "--format", "scp", "--no-preprocess",
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].split(",")[4] == "1"

    def test_rail_layout_applies_under_auto_format(self, tmp_path, capsys):
        # count-first masks (7, 5) need one subset; read cost-first, two
        path = tmp_path / "count_first.rail"
        path.write_bytes(b"3 2\n3 1 2 3\n2 1 3\n")
        records = []
        for fmt in ("auto", "rail"):
            code, out, _ = run(
                capsys, "solve", "--input", str(path), "--algorithm", "greedy",
                "--format", fmt, "--rail-layout", "count-first", "--output", "json",
            )
            assert code == EXIT_OK
            record = json.loads(out)
            records.append({k: v for k, v in record.items() if not k.endswith("_ms")})
        assert records[0] == records[1]
        assert records[0]["cardinality"] == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--input", FIXTURE, "--frobnicate"])
        assert exit_info.value.code == EXIT_USAGE_ERROR


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["generate", "--n", "100", "--m", "50", "--groups", "4", "--seed", "7"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_written_file_segments_as_requested(self, tmp_path, capsys):
        out_path = tmp_path / "gen.scp"
        code, _, _ = run(
            capsys, "generate", "--n", "300", "--m", "120", "--groups", "8",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == EXIT_OK
        from segcover.io import parse_scp
        from segcover.segmentation import find_groups

        inst = parse_scp(out_path.read_bytes())
        assert len(find_groups(inst).components) == 8

    def test_infeasible_config_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "generate", "--n", "4", "--m", "2", "--groups", "3",
        )
        assert code == EXIT_USAGE_ERROR
        assert "groups" in err


class TestBench:
    def test_sweep_produces_one_record_per_cell(self, tmp_path, capsys):
        gen = tmp_path / "inst.scp"
        run(capsys, "generate", "--n", "200", "--m", "80", "--groups", "4",
            "--seed", "1", "--out", str(gen))
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{gen.name} bks=40  # synthetic cell\n")
        code, out, _ = run(
            capsys, "bench", "--manifest", str(manifest),
            "--algorithms", "greedy,grasp-uf", "--threads", "1,2",
            "--iterations", "5",
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 4  # header + 2 algorithms x 2 thread counts
        assert all(row.split(",")[5] == "40" for row in rows[1:])

    def test_missing_instance_becomes_failed_cell(self, tmp_path, capsys):
        manifest = tmp_path / "bench.manifest"
        manifest.write_text("missing.scp name=gone\n")
        code, out, err = run(
            capsys, "bench", "--manifest", str(manifest), "--algorithms", "greedy",
        )
        assert code == EXIT_OK
        rows = out.strip().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("gone,greedy")
        assert rows[1].split(",")[4] == ""  # no cardinality
        assert "skipping" in err

    def test_rpd_star_sign_when_beating_greedy(self, tmp_path, capsys):
        gen = tmp_path / "inst.scp"
        run(capsys, "generate", "--n", "400", "--m", "120", "--groups", "8",
            "--seed", "2", "--out", str(gen))
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{gen}\n")
        code, out, _ = run(
            capsys, "bench", "--manifest", str(manifest),
            "--algorithms", "grasp-uf", "--threads", "1", "--iterations", "80",
            "--seed", "5",
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[1].split(",")
        assert float(row[7]) >= 0.0

    def test_unknown_manifest_format_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "a.scp").write_bytes((DATA_DIR / "example12.scp").read_bytes())
        manifest = tmp_path / "bench.manifest"
        manifest.write_text("a.scp format=rial\n")
        code, out, err = run(
            capsys, "bench", "--manifest", str(manifest), "--algorithms", "greedy",
        )
        assert code == EXIT_USAGE_ERROR
        assert out == ""
        assert "a.scp" in err and "'rial'" in err

    @pytest.mark.parametrize("bks", ["0", "x"])
    def test_bad_manifest_bks_is_usage_error_before_any_solve(
        self, bks, monkeypatch, tmp_path, capsys
    ):
        solves = []
        monkeypatch.setattr(cli, "run_algorithm", lambda *a, **k: solves.append(a))
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{FIXTURE} format=scp\n{FIXTURE} name=bad bks={bks}\n")
        code, out, err = run(capsys, "bench", "--manifest", str(manifest))
        assert code == EXIT_USAGE_ERROR
        assert out == ""
        assert solves == []
        assert f"manifest entry {FIXTURE}: bks must be a positive integer, got '{bks}'" in err

    @pytest.mark.parametrize("token", ["bsk=5", "path=other.scp"])
    def test_unknown_manifest_key_is_usage_error_before_any_solve(
        self, token, monkeypatch, tmp_path, capsys
    ):
        solves = []
        monkeypatch.setattr(cli, "run_algorithm", lambda *a, **k: solves.append(a))
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{FIXTURE} format=scp\n{FIXTURE} name=bad {token}\n")
        code, out, err = run(capsys, "bench", "--manifest", str(manifest))
        assert code == EXIT_USAGE_ERROR
        assert out == ""
        assert solves == []
        key = token.split("=")[0]
        assert err == (
            f"segcover: error: manifest entry {FIXTURE}: unknown key '{key}'; "
            "choose from name, bks, format\n"
        )

    def test_greedy_solves_once_per_manifest_entry(self, monkeypatch, tmp_path, capsys):
        solved = []

        def counted(inst):
            solved.append(inst)
            return greedy_solve(inst)

        monkeypatch.setattr(cli, "greedy_solve", counted)
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{FIXTURE} format=scp bks=3\n{FIXTURE} format=scp name=b\n")
        code, out, _ = run(
            capsys, "bench", "--manifest", str(manifest), "--algorithms", "greedy,grasp",
            "--threads", "1,2", "--iterations", "5", "--output", "json",
        )
        assert code == EXIT_OK
        assert len(solved) == 2
        records = [json.loads(line) for line in out.splitlines()]
        greedy = [r for r in records if r["algorithm"] == "greedy"]
        assert [(r["instance"], r["threads"]) for r in greedy] == [
            ("example12.scp", 1), ("example12.scp", 2), ("b", 1), ("b", 2)
        ]
        assert all(r["cardinality"] == 3 and r["rpd_star"] == 0.0 for r in greedy)
        assert [r["rpd"] for r in greedy] == [0.0, 0.0, None, None]
        assert all(r["rpd_star"] is not None for r in records)

    def test_refused_cell_is_an_error_row(self, tmp_path, capsys):
        """grasp-mst refuses a one-element residual, and rpd* has no baseline
        on an instance with no elements; every other cell is still solved."""
        (tmp_path / "one.scp").write_text("1 3\n1 1 1\n3\n1 2 3\n")
        (tmp_path / "none.scp").write_text("0 0\n")
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"one.scp\n{FIXTURE}\nnone.scp\n")
        code, out, err = run(
            capsys, "bench", "--manifest", str(manifest), "--format", "scp",
            "--algorithms", "greedy,grasp-mst", "--iterations", "5", "--output", "json",
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        cells = [(r["instance"], r["algorithm"], r["cardinality"]) for r in records]
        assert cells == [
            ("one.scp", "greedy", 1), ("one.scp", "grasp-mst", None),
            ("example12.scp", "greedy", 3), ("example12.scp", "grasp-mst", 3),
            ("none.scp", "greedy", 0), ("none.scp", "grasp-mst", 0),
        ]
        refused = records[1]["error"]
        assert refused == "bipartition needs at least two elements"
        assert [r["error"] for r in records] == ["", refused, "", "", "", ""]
        assert err == f"warning: one.scp grasp-mst threads=1: {refused}\n"
        assert [r["rpd_star"] for r in records] == [0.0, None, 0.0, 0.0, None, None]

    def test_refused_cell_carries_its_error_in_csv(self, tmp_path, capsys):
        (tmp_path / "one.scp").write_text("1 3\n1 1 1\n3\n1 2 3\n")
        manifest = tmp_path / "bench.manifest"
        manifest.write_text("one.scp\nmissing.scp\n")
        code, out, _ = run(
            capsys, "bench", "--manifest", str(manifest), "--format", "scp",
            "--algorithms", "greedy,grasp-mst", "--iterations", "5",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["instance"], r["algorithm"], r["cardinality"]) for r in rows] == [
            ("one.scp", "greedy", "1"), ("one.scp", "grasp-mst", ""),
            ("missing.scp", "greedy", ""), ("missing.scp", "grasp-mst", ""),
        ]
        assert [r["error"] for r in rows[:2]] == ["", "bipartition needs at least two elements"]
        assert all("missing.scp" in r["error"] for r in rows[2:])

    def test_manifest_from_a_pipe(self):
        proc = run_module(
            f"{FIXTURE} format=scp bks=3\n".encode(), "bench", "--manifest", "/dev/stdin",
            "--algorithms", "greedy",
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        rows = proc.stdout.decode().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[:6] == ["example12.scp", "greedy", "0", "1", "3", "3"]

    @pytest.mark.parametrize("flag", ["--algorithms", "--threads"])
    def test_empty_list_flag_is_usage_error(self, flag, tmp_path, capsys):
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{FIXTURE} format=scp\n")
        code, out, err = run(capsys, "bench", "--manifest", str(manifest), flag, ",")
        assert code == EXIT_USAGE_ERROR
        assert out == ""
        assert err == f"segcover: error: {flag} needs at least one value\n"

    def test_csv_stable_apart_from_timing_columns(self, tmp_path, capsys):
        gen = tmp_path / "inst.scp"
        run(capsys, "generate", "--n", "150", "--m", "60", "--groups", "2",
            "--seed", "4", "--out", str(gen))
        manifest = tmp_path / "bench.manifest"
        manifest.write_text(f"{gen}\n")
        args = [
            "bench", "--manifest", str(manifest),
            "--algorithms", "greedy,grasp", "--iterations", "10", "--seed", "9",
        ]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        wall = CSV_HEADER.index("wall_ms")
        rows = lambda text: [r.split(",") for r in text.splitlines()]
        strip_wall = lambda text: [r[:wall] + r[wall + 1:] for r in rows(text)]
        assert strip_wall(out1) == strip_wall(out2)


def _segmentations_per_run(monkeypatch, algorithm):
    """``find_groups`` calls in a ``run_algorithm`` call with three
    restarts, with reduction and without.  Every module-level
    ``find_groups`` binding in the package is counted."""
    calls = []
    original = segmentation.find_groups

    def counted(inst):
        calls.append(inst)
        return original(inst)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("segcover.") and getattr(module, "find_groups", None) is original:
            monkeypatch.setattr(module, "find_groups", counted)
    inst = generate_segmentable(GeneratorConfig(n=200, m=100, groups=4, seed=2))
    counts = []
    for preprocess in (True, False):
        calls.clear()
        record, _ = cli.run_algorithm(
            inst, "gen", algorithm, iterations=5, restarts=3, preprocess=preprocess
        )
        counts.append(len(calls))
        assert record.segment_ms > 0.0
    return counts


def test_grasp_uf_segments_once_per_run(monkeypatch):
    assert _segmentations_per_run(monkeypatch, "grasp-uf") == [1, 1]


def test_greedy_segments_once_per_run(monkeypatch):
    assert _segmentations_per_run(monkeypatch, "greedy") == [1, 1]


def test_each_phase_times_its_own_step():
    """greedy, and a grasp-uf run with two restarts, each have a segment, a
    solve and a merge phase; the phases never exceed the wall."""
    inst = generate_segmentable(GeneratorConfig(n=200, m=100, groups=4, seed=2))
    greedy, _ = cli.run_algorithm(inst, "gen", "greedy")
    segmented, _ = cli.run_algorithm(inst, "gen", "grasp-uf", iterations=5, restarts=2)
    for record in (greedy, segmented):
        assert min(record.segment_ms, record.solve_ms, record.merge_ms) > 0.0
        phases = (record.preprocess_ms, record.segment_ms, record.solve_ms, record.merge_ms)
        assert sum(phases) <= record.wall_ms


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_run_path_reduces_by_forcing_alone(monkeypatch, algorithm):
    """``run_algorithm`` never tests dominance, on an instance where the
    forcing sweep forces subsets and ``reduce`` would also exclude some."""
    inst = generate_segmentable(GeneratorConfig(n=60, m=120, groups=1, density=0.05, seed=1))
    assert reduce(inst).excluded and force(inst).forced
    dominated = mock.Mock(side_effect=AssertionError("dominance on the run path"))
    monkeypatch.setattr(preprocess, "_dominated", dominated)
    record, cover = cli.run_algorithm(inst, "gen", algorithm, iterations=3, restarts=2)
    assert record.cardinality == len(cover) > 0
    assert dominated.call_count == 0


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_empty_residual_is_the_forced_cover_without_a_pool(monkeypatch, algorithm):
    """Reduction forces every subset: the residual has no pieces, every
    restart merges to the empty cover, and no pool is spawned."""
    pools = []
    monkeypatch.setattr(grasp_su, "ProcessPoolExecutor", lambda *a, **k: pools.append(a))
    inst = Instance(3, [0b011, 0b100])
    assert force(inst).residual.n == 0
    record, cover = cli.run_algorithm(inst, "gen", algorithm, threads=2, restarts=3)
    assert cover.chosen == [0, 1]
    assert (record.cardinality, record.seed) == (2, 0)
    assert pools == []


def test_threads_default_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("SEGCOVER_THREADS", "3")
    code, out, _ = run(
        capsys, "solve", "--input", FIXTURE, "--format", "scp",
        "--algorithm", "greedy",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split(",")[3] == "3"


def test_non_integer_threads_environment_is_usage_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("SEGCOVER_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", FIXTURE])
    assert exc.value.code == EXIT_USAGE_ERROR
    assert "invalid int value: 'abc'" in capsys.readouterr().err

    manifest = tmp_path / "bench.manifest"
    manifest.write_text(f"{FIXTURE}\n")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--manifest", str(manifest), "--format", "scp"])
    assert exc.value.code == EXIT_USAGE_ERROR
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_explicit_threads_overrides_bad_environment(monkeypatch, capsys):
    monkeypatch.setenv("SEGCOVER_THREADS", "abc")
    code, out, _ = run(
        capsys, "solve", "--input", FIXTURE, "--format", "scp",
        "--algorithm", "greedy", "--threads", "2",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split(",")[3] == "2"


@given(st.integers(0, 1_000_000))
@settings(max_examples=100, deadline=None)
def test_solve_on_arbitrary_bytes_exits_0_or_2(seed):
    data = mutated_file(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance"
        path.write_bytes(data)
        for fmt in ("scp", "rail", "auto"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["solve", "--input", str(path), "--format", fmt])
            assert code in (EXIT_OK, EXIT_PARSE_ERROR), err.getvalue()
            assert "Traceback" not in err.getvalue()


@given(seed=st.integers(0, 100_000), preprocess=st.booleans())
@settings(max_examples=2, deadline=None)
def test_batched_restarts_match_reference_loop(seed, preprocess):
    """Every (algorithm, threads, components, restarts) cell of the grid gives
    the restart rule's cover, one solve after another, and records the seed
    it was given, or, for a grasp-mst cell whose residual is disconnected or
    has fewer than two elements, the same error.  A grasp-uf cover is no
    larger than any whole restart's."""
    for groups in (1, 2, 3, 5):
        # One improvement iteration on 40-element blocks: a later restart is
        # the best one in about two runs of five, so restart seeds matter.
        cfg = GeneratorConfig(
            n=40 * groups, m=30 * groups, groups=groups, density=0.15, seed=seed
        )
        inst = generate_segmentable(cfg)
        for algorithm, threads, restarts in itertools.product(
            ("grasp", "grasp-uf", "grasp-mst"), (1, 2, 3, 4), (1, 2, 3)
        ):
            kwargs = dict(iterations=1, seed=seed, restarts=restarts, preprocess=preprocess)
            cell = (algorithm, threads, groups, restarts)
            try:
                best = reference_run_restarts(inst, algorithm, **kwargs)
            except ValueError as exc:
                assert algorithm == "grasp-mst", cell
                with pytest.raises(ValueError) as raised:
                    cli.run_algorithm(inst, "gen", algorithm, threads=threads, **kwargs)
                assert str(raised.value) == str(exc), cell
                continue
            record, cover = cli.run_algorithm(inst, "gen", algorithm, threads=threads, **kwargs)
            assert cover.chosen == best.chosen, cell
            assert record.cardinality == len(best), cell
            assert record.seed == seed, cell
            if algorithm == "grasp-uf":
                # Whole restart k is the one-restart run on seed + k; both
                # covers are lifted by the same forced subsets.
                for k in range(restarts):
                    whole = reference_run_restarts(
                        inst, algorithm, **{**kwargs, "seed": seed + k, "restarts": 1}
                    )
                    assert len(cover) <= len(whole), (cell, k)


@pytest.mark.parametrize(
    "algorithm, groups, threads, pools, tasks",
    [
        ("grasp-uf", 1, 2, 1, 2),
        ("grasp-uf", 4, 2, 2, 8),
        ("grasp-uf", 1, 1, 0, 0),
        ("grasp-uf", 4, 1, 0, 0),
        ("grasp-mst", 1, 4, 1, 4),
    ],
)
def test_restart_batches_fill_one_pool_each(
    monkeypatch, algorithm, groups, threads, pools, tasks
):
    """A batch holds ceil(threads / pieces) restarts on one pool, and its
    tasks carry no instance: under fork the parent never pickles one.  The
    pieces are the components, or grasp-mst's two sides."""
    counts = {"pools": 0, "tasks": 0}
    base = grasp_su.ProcessPoolExecutor

    class CountedPool(base):
        def __init__(self, *args, **kwargs):
            counts["pools"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts["tasks"] += 1
            return super().submit(*args, **kwargs)

    pickled = []
    instance_reduce = Instance.__reduce__

    def counted_reduce(self):
        pickled.append(os.getpid())
        return instance_reduce(self)

    monkeypatch.setattr(grasp_su, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(Instance, "__reduce__", counted_reduce)
    inst = generate_segmentable(
        GeneratorConfig(n=30 * groups, m=20 * groups, groups=groups, seed=3)
    )
    cli.run_algorithm(
        inst, "gen", algorithm, iterations=3, threads=threads, restarts=2,
        preprocess=False,
    )
    assert counts == {"pools": pools, "tasks": tasks}
    if multiprocessing.get_start_method() == "fork":
        assert pickled == []


def _die(task):
    os._exit(1)


def test_dead_worker_is_exit_code_4(monkeypatch, capsys, tmp_path):
    path = tmp_path / "inst.scp"
    inst = generate_segmentable(GeneratorConfig(n=200, m=100, groups=4, seed=2))
    path.write_bytes(write_scp(inst))
    monkeypatch.setattr(grasp_su, "_solve_component", _die)
    code, out, err = run(
        capsys, "solve", "--input", str(path), "--format", "scp",
        "--algorithm", "grasp-uf", "--threads", "2", "--iterations", "2",
    )
    assert code == EXIT_WORKER_ERROR
    assert out == ""
    assert err.startswith("segcover: error: worker process died")
    assert err.count("\n") == 1


def test_parallel_restarts_run_clean_in_dev_mode(tmp_path):
    """With warnings as errors, grasp-uf runs a pooled batch of two restarts,
    then one in-process restart, and grasp-mst one pooled batch of its two
    sides for each of three restarts: an unclosed pool or file, or (3.12+) a
    fork while threads are alive, fails the run."""
    inst = generate_segmentable(GeneratorConfig(n=150, m=90, groups=1, density=0.1, seed=4))
    assert len(segmentation.find_groups(force(inst).residual).components) == 1
    path = tmp_path / "connected.scp"
    path.write_bytes(write_scp(inst))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for algorithm in ("grasp-uf", "grasp-mst"):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "segcover.cli", "solve",
             "--input", str(path), "--format", "scp", "--algorithm", algorithm,
             "--threads", "2", "--restarts", "3", "--iterations", "5"],
            capture_output=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, (algorithm, proc.stderr.decode())
        assert proc.stderr == b"", algorithm


def test_python_dash_m_segcover_runs_the_cli():
    proc = run_module(b"", "generate", "--n", "6", "--m", "4", "--groups", "2")
    assert proc.returncode == 0, proc.stderr.decode()
    inst = parse_scp(proc.stdout)
    assert (inst.n, inst.m) == (6, 4)
    assert proc.stdout == write_scp(generate_segmentable(GeneratorConfig(n=6, m=4, groups=2)))
