import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtiling
from dtiling import (
    MAX_N,
    DriverParams,
    complete_3graph,
    construct_G1,
    main,
    parse_certificate,
    parse_instance,
    perfect_tiling_exact,
    planted_extremal,
    random_codegree_instance,
    solve_driver,
    validate_tiling,
    write_instance,
)
from dtiling.cli import SCAN_BRANCHES, _build_parser


def run(argv):
    """main() returns exit codes; argparse errors raise SystemExit instead."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


MAIN = ("-c", "import sys; from dtiling.cli import main; sys.exit(main())")


def run_subprocess(argv, interpreter_args=MAIN, cwd=None):
    """The CLI in a fresh interpreter under a timeout, for runs that
    could hang or exhaust memory if a bound were missing; the package is
    on PYTHONPATH, as in a checkout that is not installed.
    ``interpreter_args`` start the CLI, by default through ``main``."""
    src = str(Path(dtiling.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *interpreter_args, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestGen:
    def test_g1_matches_library(self, capsys):
        assert run(["gen", "--kind", "g1", "--n", "8"]) == 0
        G = parse_instance(capsys.readouterr().out)
        assert G.edges == construct_G1(8).edges

    def test_random_gets_default_codegree(self, capsys):
        assert run(["gen", "--kind", "random", "--n", "16", "--seed", "2"]) == 0
        G = parse_instance(capsys.readouterr().out)
        assert G.edges == random_codegree_instance(16, 4, seed=2).edges

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert run(["gen", "--kind", "complete", "--n", "8", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert parse_instance(out.read_text()).n == 8

    def test_sts_needs_admissible_order(self, capsys):
        assert run(["gen", "--kind", "sts", "--n", "8"]) == 64

    def test_unknown_kind_rejected(self):
        assert run(["gen", "--kind", "complete3p", "--n", "9"]) == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "g0", "--n", str(MAX_N + 4)],
            ["gen", "--kind", "random", "--n", str(MAX_N + 4)],
            ["scan", "--n-range", f"{MAX_N}:{MAX_N + 4}:4"],
        ],
        ids=["gen-g0", "gen-random", "scan"],
    )
    def test_order_above_max_n_exits_64(self, argv):
        # In a subprocess under a timeout: building an order this large
        # runs for seconds and can exhaust memory.
        proc = run_subprocess(argv)
        assert proc.returncode == 64, proc.stderr
        assert str(MAX_N) in proc.stderr and "Traceback" not in proc.stderr

    def test_scan_past_max_edges_exits_64_before_any_solve(self, capsys):
        # C(232, 3) > MAX_EDGES: refused with the range, before the
        # smaller orders of the range are solved.
        assert run(["scan", "--n-range", "8:232:4", "--trials", "1"]) == 64
        assert "MAX_EDGES" in capsys.readouterr().err


class TestSolve:
    def write(self, tmp_path, G):
        path = tmp_path / "inst.txt"
        write_instance(G, path)
        return str(path)

    def test_complete_12_tiles(self, tmp_path, capsys):
        G = complete_3graph(12)
        path = self.write(tmp_path, G)
        assert run(["solve", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "tiled"
        cert = parse_certificate(report["certificate_text"])
        assert validate_tiling(G, cert.tiling, require_perfect=True).ok

    def test_g1_8_infeasible(self, tmp_path, capsys):
        path = self.write(tmp_path, construct_G1(8))
        assert run(["solve", path, "--mode", "exact"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "infeasible"
        assert report["certificate"] is None

    def test_planted_uses_extremal_branch(self, tmp_path, capsys):
        path = self.write(tmp_path, planted_extremal(16))
        assert run(["solve", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["branch"] == "extremal"

    def test_forced_extremal_stalls_elsewhere(self, tmp_path, capsys):
        G = random_codegree_instance(16, 4, seed=0)
        path = self.write(tmp_path, G)
        code = run(["solve", path, "--mode", "extremal"])
        report = json.loads(capsys.readouterr().out)
        if code == 0:
            assert report["branch"] == "extremal"
        else:
            assert code == 3 and report["verdict"] == "exhausted"

    def test_forced_absorb_small_n_stalls(self, tmp_path, capsys):
        path = self.write(tmp_path, complete_3graph(12))
        assert run(["solve", path, "--mode", "absorb"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "exhausted"
        assert report["attempts"]

    def test_cert_file_and_determinism(self, tmp_path, capsys):
        path = self.write(tmp_path, planted_extremal(16))
        c1 = tmp_path / "a.cert"
        c2 = tmp_path / "b.cert"
        assert run(["solve", path, "--no-timings", "--cert", str(c1)]) == 0
        out1 = capsys.readouterr().out
        assert run(["solve", path, "--no-timings", "--cert", str(c2)]) == 0
        out2 = capsys.readouterr().out
        assert c1.read_text() == c2.read_text()
        assert out1.replace(str(c1), "X") == out2.replace(str(c2), "X")
        assert "timings_ms" not in json.loads(out1)

    def test_paper_constants_fail_the_vertex_budget(self, tmp_path, capsys):
        # With the paper's alpha no family fits any order the solver
        # takes, so the paper's nominal sampling rate is never reached.
        assert int(1e-6 * MAX_N) // 8 == 0
        path = self.write(tmp_path, random_codegree_instance(48, 16, 0))
        # Forced into the branch, which skips the exact fallback.
        assert run(["solve", path, "--eps", "1e-18", "--alpha", "1e-6", "--mode", "absorb"]) == 3
        [attempt] = json.loads(capsys.readouterr().out)["attempts"]
        assert attempt["branch"] == "non-extremal"
        assert attempt["outcome"] == "family_construction_failure"
        assert "admits no 8-set" in attempt["reason"]

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["solve", "/nonexistent/inst.txt"]) == 64

    def test_bad_mode_rejected(self, tmp_path):
        assert run(["solve", "x", "--mode", "psychic"]) == 64

    @pytest.mark.parametrize("command", ["solve"])
    @pytest.mark.parametrize("value", ["nan", "0"])
    def test_time_limit_must_be_positive(self, tmp_path, capsys, command, value):
        # NaN passes a "<= 0" check and would leave every search without
        # a time cap.
        path = self.write(tmp_path, complete_3graph(12))
        assert run([command, path, f"--time-limit={value}"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_parser_defaults_are_the_driver_defaults(self):
        args = _build_parser().parse_args(["solve", "x"])
        shared = [name for name in DriverParams._fields if hasattr(args, name)]
        assert len(shared) == 6
        assert {name: getattr(args, name) for name in shared} == {
            name: getattr(DriverParams(), name) for name in shared
        }

    @pytest.mark.parametrize(
        "text, options",
        [
            ("99999999999999999999 1\n0 1 99999999999999999998\n", []),
            ("1000000000 0\n", []),
            ("1000000000 0\n", ["--mode", "exact"]),
        ],
        ids=["huge-vertex-id", "huge-header-n", "huge-header-n-exact"],
    )
    def test_unbounded_input_exits_64(self, tmp_path, text, options):
        # In a subprocess under a timeout: before the input bound, the
        # first raised OverflowError and the others never returned.
        path = tmp_path / "inst.txt"
        path.write_text(text)
        proc = run_subprocess(["solve", str(path), *options])
        assert proc.returncode == 64, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestVerify:
    def test_round_trip_ok(self, tmp_path, capsys):
        G = complete_3graph(12)
        inst = tmp_path / "inst.txt"
        write_instance(G, inst)
        cert = tmp_path / "out.cert"
        assert run(["solve", str(inst), "--cert", str(cert)]) == 0
        capsys.readouterr()
        assert run(["verify", str(inst), "--cert", str(cert), "--perfect"]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_corrupted_cert_names_violation(self, tmp_path, capsys):
        G = complete_3graph(12)
        inst = tmp_path / "inst.txt"
        write_instance(G, inst)
        cert = tmp_path / "bad.cert"
        cert.write_text("perfect 1\n0 1 2 3 | 0 1 2 | 0 1 3\n")
        assert run(["verify", str(inst), "--cert", str(cert)]) == 1
        assert "not perfect" in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["missing-cert", "directory-cert", "malformed-instance"])
    def test_unopenable_input_exits_64(self, tmp_path, capsys, what):
        inst = tmp_path / "inst.txt"
        cert = tmp_path / "out.cert"
        write_instance(complete_3graph(8), inst)
        assert run(["solve", str(inst), "--cert", str(cert), "--no-timings"]) == 0
        capsys.readouterr()
        if what == "missing-cert":
            cert = tmp_path / "missing.cert"
        elif what == "directory-cert":
            cert = tmp_path
        else:
            inst.write_text("8 1\n0 1 x\n")
        assert run(["verify", str(inst), "--cert", str(cert)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unreadable_cert(self, tmp_path, capsys):
        G = complete_3graph(8)
        inst = tmp_path / "inst.txt"
        write_instance(G, inst)
        cert = tmp_path / "bad.cert"
        cert.write_text("perfect xyz\n")
        assert run(["verify", str(inst), "--cert", str(cert)]) == 1
        assert "unreadable" in capsys.readouterr().out


class TestScan:
    def test_json_lines(self, capsys):
        assert run(["scan", "--n-range", "8:12:4", "--trials", "2", "--no-timings"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [l["n"] for l in lines] == [8, 12]
        for line in lines:
            assert set(line) == {"n", "d", "trials", "solved", "fraction", "branches"}
            assert sum(line["branches"].values()) == 2
            assert 0 <= line["solved"] <= 2

    def test_timings_included_by_default(self, capsys):
        assert run(["scan", "--n-range", "8:8:4", "--trials", "1"]) == 0
        (line,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert "mean_ms" in line

    def test_spread_and_branch_mix(self, capsys):
        assert run(["scan", "--n-range", "8:12:4", "--trials", "3", "--d-offset", "-1"]) == 0
        for line in map(json.loads, capsys.readouterr().out.splitlines()):
            assert line["p50_ms"] <= line["p90_ms"] <= line["max_ms"]
            assert line["max_ms"] >= line["mean_ms"]
            assert set(line["branches"]) == set(SCAN_BRANCHES)
            assert sum(line["branches"].values()) == 3

    def test_counts_the_small_search_branch(self, capsys):
        # At 16 vertices the small-set search runs first and tiles the
        # first trial.
        assert run(["scan", "--n-range", "16:16:4", "--trials", "1", "--d-offset", "-1", "--no-timings"]) == 0
        (line,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert line["branches"]["small-search"] == 1 and line["solved"] == 1

    def test_parallel_matches_serial(self, capsys):
        assert run(["scan", "--n-range", "8:8:4", "--trials", "2", "--no-timings"]) == 0
        serial = capsys.readouterr().out
        assert run(["scan", "--n-range", "8:8:4", "--trials", "2", "--no-timings", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("trials, workers", [(2, [2]), (1, []), (5, [3])])
    def test_pool_never_exceeds_the_tasks(self, monkeypatch, capsys, trials, workers):
        # A fork pool starts all of its workers at the first submit; this
        # stand-in starts none and records how many were asked for.  With
        # 3 CPUs, 5 trials ask for 3 workers.
        asked = []
        monkeypatch.setattr(os, "cpu_count", lambda: 3)

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # scan imports concurrent.futures when it runs, which keeps it and
        # multiprocessing out of the package import, so the stand-in goes
        # on concurrent.futures itself.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        argv = ["scan", "--n-range", "8:8:4", "--trials", str(trials), "--no-timings"]
        assert run(argv + ["--jobs", "100000"]) == 0
        assert asked == workers
        parallel = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == parallel

    def test_package_import_leaves_out_multiprocessing(self):
        # The CLI imports argparse, json and the pool when a command runs,
        # so importing the package (part of every solve's set-up) loads
        # none of them, nor multiprocessing.
        src = str(Path(dtiling.__file__).resolve().parent.parent)
        cli_only = ("multiprocessing", "argparse", "json", "concurrent.futures")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, dtiling; print([m for m in {cli_only} if m in sys.modules])"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.stdout.strip() == "[]", proc.stderr

    def test_package_import_leaves_out_dataclasses(self):
        # The records are plain classes, so importing the package loads
        # neither dataclasses nor the inspect it imports.  An isolated
        # interpreter ignores PYTHONPATH, so the probe puts src on the
        # path itself; it compares modules before and after the import,
        # since site may already have loaded some of its own.
        src = str(Path(dtiling.__file__).resolve().parent.parent)
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import dtiling; "
            "print(dtiling.__file__); print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, timeout=60
        )
        imported, new = proc.stdout.splitlines()
        assert imported.startswith(src) and new == "[]", proc.stderr

    @pytest.mark.parametrize(
        "spec", ["8:12", "a:b:4", "12:8:4", "0:8:4", "8:12:0", "9:13:4"]
    )
    def test_bad_ranges(self, spec, capsys):
        assert run(["scan", "--n-range", spec]) == 64


class TestUsage:
    def test_no_command(self):
        assert run([]) == 64

    @pytest.mark.parametrize("module", ["dtiling", "dtiling.cli"])
    def test_python_m_runs_the_command(self, module, tmp_path):
        # From a checkout, without the console script: the command runs
        # and writes its file.
        argv = ["gen", "--kind", "random", "--n", "20", "--d", "5", "--seed", "0", "--out", "e.txt"]
        proc = run_subprocess(argv, ["-m", module], tmp_path)
        assert proc.returncode == 0, proc.stderr
        G = parse_instance((tmp_path / "e.txt").read_text())
        assert G.edges == random_codegree_instance(20, 5, seed=0).edges

    @pytest.mark.parametrize("module", ["dtiling", "dtiling.cli"])
    def test_python_m_without_command_exits_64(self, module, tmp_path):
        assert run_subprocess([], ["-m", module], tmp_path).returncode == 64

    def test_unknown_flag(self):
        assert run(["solve", "x", "--badflag"]) == 64

    def test_driver_params_validated(self):
        from dtiling import InputError

        G = complete_3graph(8)

        with pytest.raises(InputError):
            solve_driver(G, DriverParams(mode="telepathy"))
