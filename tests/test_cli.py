"""CLI surface: flags, exit codes, and deterministic rendering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from filterpaths import __version__, formulas
from filterpaths.cli import FORMULA_IDS, _read_query, build_parser, main
from filterpaths.formulas import FORMULA_MAX_ROW
from filterpaths.oracle import ENUM_MAX_PATHS, enumerate_paths

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_auto_strip3(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--l", "2", "--m", "3", "--n", "7")
        assert code == 0
        assert "value 24" in out
        assert "strip 3" in out

    def test_auto_strip1_zero_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--l", "2", "--m", "0", "--n", "2")
        assert code == 0
        assert "value 0" in out
        assert "strip 1" in out

    def test_parity_violation_exits_2_with_hint(self, capsys):
        code, _, err = run_cli(capsys, "count", "--l", "2", "--m", "3", "--n", "6")
        assert code == 2
        assert "parity" in err

    def test_explicit_formula_out_of_domain(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--l", "3", "--m", "4", "--n", "6", "--formula", "desire1")
        assert code == 2
        assert err.startswith("error:")

    def test_explicit_th4(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--l", "2", "--m", "1", "--n", "7", "--formula", "th4")
        assert code == 0
        assert "value 8" in out
        assert "formula th4" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--l", "2", "--m", "3", "--n", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"value": "24", "strip": 3, "formula": "mj",
                       "parameters": {"l": 2, "m": 3, "n": 7}}

    def test_bad_flag_exits_2(self, capsys):
        code = main(["count", "--l", "2", "--m", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("formula", ["th3", "th4"])
    def test_negative_row_exits_2(self, capsys, formula):
        code, out, err = run_cli(
            capsys, "count", "--l", "2", "--m", "1", "--n", "-1", "--formula", formula)
        assert code == 2
        assert out == ""
        assert err == "error: row must be >= 0, got -1\n"

    def test_row_above_formula_limit_exits_2(self, capsys):
        n = 50002
        assert n > FORMULA_MAX_ROW
        code, out, err = run_cli(
            capsys, "count", "--l", "2", "--m", "2", "--n", str(n), "--formula", "desire2")
        assert (code, out) == (2, "")
        assert err == f"error: row must be <= FORMULA_MAX_ROW = {FORMULA_MAX_ROW}, got {n}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_past_int_str_digit_limit(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = str(formulas.wall_filter_right(2, 2, 20000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) > 4300
        code, out, err = run_cli(capsys, "count", "--l", "2", "--m", "2", "--n", "20000",
                                 "--formula", "desire2", "--format", fmt)
        assert (code, err) == (0, "")
        value = json.loads(out)["value"] if fmt == "json" else out.splitlines()[0]
        assert value == (expected if fmt == "json" else f"value {expected}")
        assert sys.get_int_max_str_digits() == limit

    def test_formula_choices(self, capsys):
        assert FORMULA_IDS == ("auto", "desire1", "desire2", "th3", "th4", "mj")
        code, _, err = run_cli(
            capsys, "count", "--l", "2", "--m", "1", "--n", "7", "--formula", "th32")
        assert code == 2
        assert "invalid choice" in err


class TestOracle:
    def test_canonical_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--arr", "W@0;F1@1;F2@3", "--m", "1", "--n", "5")
        assert code == 0
        assert out.strip() == "4"

    def test_literal_semantics(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--arr", "F2@1", "--m", "2", "--n", "4",
            "--semantics", "literal")
        assert code == 0
        assert out.strip() == "12"

    def test_overlapping_restrictions_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--arr", "F1@3,F2@4", "--m", "2", "--n", "4")
        assert code == 2
        assert "F1@3" in err and "F2@4" in err

    def test_bad_token_named(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--arr", "W@0;X@2", "--m", "0", "--n", "2")
        assert code == 2
        assert "X@2" in err

    def test_start_offset(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--arr", "F1@1;F2@3", "--start", "-2",
            "--m", "1", "--n", "5")
        assert code == 0
        assert out.strip() == "5"

    def test_derives_each_restriction_once(self, capsys, monkeypatch):
        from filterpaths import model

        derive, derived = model._restriction_rules, []

        def spy(r, semantics):
            derived.append(r)
            return derive(r, semantics)

        monkeypatch.setattr(model, "_restriction_rules", spy)
        model.step_rules.cache_clear()
        code, out, _ = run_cli(capsys, "oracle", "--arr", "W@0;F1@2;F2@5;F2@8",
                               "--m", "3", "--n", "9")
        assert (code, out) == (0, "40\n")
        assert [r.token() for r in derived] == ["W@0", "F1@2", "F2@5", "F2@8"]

    def test_dp_row_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--arr", "W@0", "--m", "1", "--n", "3001")
        assert code == 2
        assert out == ""
        assert "3000" in err


class TestPaths:
    def test_unrestricted_pair(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "--m", "0", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["RL  weight 1", "LR  weight 1",
                                    "paths 2  total weight 2"]

    def test_weighted_pair_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "paths", "--arr", "W@0;F1@1;F2@3;F2@5", "--m", "3", "--n", "5",
            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_weight"] == "8"
        assert [p["steps"] for p in doc["paths"]] == ["RRRRL", "RRLRR"]

    def test_depth_guard_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "paths", "--m", "1", "--n", "25")
        assert code == 2
        assert "25" in err

    def test_listing_above_the_path_cap_exits_2_before_any_path(self, capsys, monkeypatch):
        monkeypatch.setattr("filterpaths.oracle.WeightedPath",
                            lambda *_: pytest.fail("a path was built"))
        code, out, err = run_cli(capsys, "paths", "--m", "0", "--n", "24")
        assert (code, out) == (2, "")
        assert err == f"error: listing limited to {ENUM_MAX_PATHS} paths, got up to 2704156\n"

    def test_narrow_listing_at_the_row_limit(self, capsys):
        code, out, _ = run_cli(capsys, "paths", "--m", "20", "--n", "24")
        assert code == 0
        assert out.splitlines()[-1] == "paths 276  total weight 276"

    @pytest.mark.parametrize("argv", [
        ("--m", "0", "--n", "4"),
        ("--m", "0", "--n", "0"),  # one empty path
        ("--m", "1", "--n", "4"),  # off parity: an empty listing
        ("--arr", "W@0", "--m", "-2", "--n", "4"),  # every walk blocked
        ("--arr", "W@0;F1@1;F2@3;F2@5", "--m", "3", "--n", "5", "--semantics", "literal"),
        ("--start", "-3", "--arr", "W@0;F1@1;F2@3", "--m", "1", "--n", "10"),
    ])
    def test_json_is_json_dumps_of_the_listing(self, capsys, argv):
        code, out, _ = run_cli(capsys, "paths", *argv, "--format", "json")
        paths = enumerate_paths(_read_query(build_parser().parse_args(["paths", *argv])))
        doc = {"paths": [{"steps": p.steps(), "weight": str(p.weight)} for p in paths],
               "count": len(paths), "total_weight": str(sum(p.weight for p in paths))}
        assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")

    def test_json_listing_peaks_near_the_text_listing(self):
        # the JSON document is written one path at a time, so the largest
        # listing (184,756 paths) costs about what its text form does
        code = ("import os, resource, sys\n"
                "from filterpaths.cli import main\n"
                "sys.stdout = open(os.devnull, 'w')\n"
                "main(['paths', '--m', '0', '--n', '20', '--format', sys.argv[1]])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.__stdout__)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = {fmt: subprocess.Popen([sys.executable, "-c", code, fmt], env=env,
                                       stdout=subprocess.PIPE)
                 for fmt in ("text", "json")}
        peak = {fmt: int(p.communicate(timeout=120)[0]) for fmt, p in procs.items()}
        assert peak["json"] < 1.1 * peak["text"], peak


class TestCompare:
    def test_clean_run_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--l", "2..3", "--n-max", "10", "--d-max", "2",
            "--strips-max", "3", "--suite", "all", "--cases", "20",
            "--format", "text")
        assert code == 0
        assert "mismatches: 0" in out

    def test_literal_semantics_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--l", "2", "--n-max", "8", "--d-max", "1",
            "--suite", "lemmas", "--semantics", "literal", "--format", "text")
        assert code == 1
        assert "MISMATCH" in out

    def test_negative_n_max_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--n-max", "-1")
        assert code == 2
        assert "n_max" in err

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_cases_below_one_exits_2_before_any_suite(self, capsys, monkeypatch, cases):
        monkeypatch.setattr("filterpaths.cli.run_lemma_suite", pytest.fail)
        code, out, err = run_cli(capsys, "compare", "--suite", "all", "--cases", cases)
        assert code == 2
        assert out == ""
        assert err == f"error: --cases must be >= 1, got {cases}\n"

    @pytest.mark.parametrize("argv, message", [
        (("--l", "2,2"), "l_values must be distinct"),
        (("--n-max", "3001"), "n_max must be <= 3000"),
    ])
    def test_oversized_or_repeated_spec_exits_2_before_any_suite(
            self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr("filterpaths.cli.run_lemma_suite", pytest.fail)
        code, out, err = run_cli(capsys, "compare", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("text, bad", [("2..", "2.."), ("abc", "abc"), ("2, 3..x", "3..x")])
    def test_unparsable_l_names_the_flag_and_the_value(self, capsys, monkeypatch, text, bad):
        monkeypatch.setattr("filterpaths.cli.run_lemma_suite", pytest.fail)
        code, out, err = run_cli(capsys, "compare", "--l", text)
        assert code == 2
        assert out == ""
        assert err == (f"error: --l: bad value {bad!r}: expected an integer "
                       f"or a range such as 2..4\n")

    def test_family_dropping_spec_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--suite", "theorems", "--n-max", "8",
            "--a-max", "-1", "--b-max", "-1", "--strips-max", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: strips_max must be >= 1")

    def test_report_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "compare", "--l", "2", "--n-max", "6", "--d-max", "1",
            "--suite", "lemmas", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["mismatches"] == 0
        assert str(out_file) in out

    def test_report_file_is_the_stdout_text(self, capsys, tmp_path):
        argv = ("compare", "--l", "2,3", "--n-max", "10", "--d-max", "2", "--strips-max", "3",
                "--a-max", "1", "--b-max", "1", "--cases", "5", "--semantics", "literal")
        for fmt in ("json", "csv", "text"):
            out_file = tmp_path / f"report.{fmt}"
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            file_code, file_out, _ = run_cli(capsys, *argv, "--format", fmt,
                                             "--out", str(out_file))
            assert code == file_code == 1
            assert out_file.read_text() == out and out.endswith("\n"), fmt
            assert file_out.startswith("cells ") and file_out.endswith(f"  -> {out_file}\n")

    def test_unwritable_report_path_exits_2(self, capsys, tmp_path):
        # a missing directory fails at open; /dev/full takes the open and fails
        # at the first write that reaches it, in the middle of the report
        paths = [tmp_path / "missing" / "r.json"]
        if os.path.exists("/dev/full"):
            paths.append("/dev/full")
        for path in paths:
            code, out, err = run_cli(
                capsys, "compare", "--l", "2", "--n-max", "4", "--d-max", "1",
                "--suite", "lemmas", "--out", str(path))
            assert code == 2, path
            assert err.startswith("error: cannot write report: "), path
            assert "cells" not in out, path

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_json_and_csv_reports_peak_near_the_text_report(self):
        # the default report (8.5 MB of JSON) is written one lane at a time, so
        # its JSON and CSV forms cost about what the summary text does.  The
        # peak is VmHWM, this process image's own: Linux carries ru_maxrss over
        # an exec, so a child of a larger test process would report its size.
        code = ("import os, sys\n"
                "from filterpaths.cli import main\n"
                "sys.stdout = open(os.devnull, 'w')\n"
                "main(['compare', '--format', sys.argv[1]])\n"
                "with open('/proc/self/status') as fh:\n"
                "    hwm = next(line for line in fh if line.startswith('VmHWM:'))\n"
                "print(hwm.split()[1], file=sys.__stdout__)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = {fmt: subprocess.Popen([sys.executable, "-c", code, fmt], env=env,
                                       stdout=subprocess.PIPE)
                 for fmt in ("text", "json", "csv")}
        peak = {fmt: int(p.communicate(timeout=120)[0]) for fmt, p in procs.items()}
        assert peak["json"] < 1.1 * peak["text"], peak
        assert peak["csv"] < 1.1 * peak["text"], peak

    def test_deterministic_output(self, capsys):
        argv = ("compare", "--l", "2", "--n-max", "8", "--d-max", "2",
                "--suite", "lemmas", "--format", "csv")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestPq:
    def test_small_table(self, capsys):
        code, out, _ = run_cli(capsys, "pq", "--j-max", "3", "--k-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert "P_3: 1 2 3" in lines
        assert "Q_3: 1 2 3" in lines
        assert "recurrences ok" in lines

    def test_base_family(self, capsys):
        code, out, _ = run_cli(capsys, "pq", "--j-max", "2", "--k-max", "5")
        assert code == 0
        assert "P_2: 1 1 1 1 1 1" in out
        assert "Q_2: 0 0 0 0 0 0" in out

    def test_j_max_below_two_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pq", "--j-max", "1")
        assert code == 2
        assert "j-max" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "pq", "--j-max", "4", "--k-max", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,j,k0,k1,k2,k3"
        assert "P,4,1,4,9,16" in lines
        assert lines[-1] == "recurrences,ok"


def test_version_names_release_and_kernel(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out == f"filterpaths {__version__} (kernel: python)\n"


def test_module_invocation_byte_identical():
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "filterpaths.cli",
            "count", "--l", "2", "--m", "3", "--n", "7"]
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert b"value 24" in first.stdout


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """`main` reuses one parser; a run of calls in one process prints and
    exits as each call does in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    calls = [("count", "--l", "2", "--m", "3", "--n", "7"),
             ("count", "--l", "2", "--m", "3"),  # usage error: --n missing
             ("oracle", "--arr", "W@0;F1@1;F2@3", "--m", "3", "--n", "7", "--format", "json"),
             ("--help",),
             ("count", "--l", "2", "--m", "3", "--n", "7")]
    in_process = [run_cli(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    for argv, (code, out, err) in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "filterpaths.cli", *argv],
                               capture_output=True, env=env)
        assert (code, out.encode(), err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0]


def test_names_the_benchmark_reads_exist(capsys, monkeypatch):
    """perfbench/ drives every run through `cli.main`, swaps its own
    `cli.run_theorem_suite` in for the theorem sweep, records
    `filterpaths.KERNEL_BACKEND` and `model.step_rules.cache_info()` in
    every pass, and its tracer wraps the names below where they are
    called; deleting one of them must fail here rather than in the
    benchmark.  The theorem sweep's digest reads `report.cells`, and its
    digest check assigns shifted cells to it."""
    import filterpaths
    from filterpaths import cli, model, oracle, verify

    assert filterpaths.KERNEL_BACKEND == "python"
    assert len(model.step_rules.cache_info()) == 4
    traced = [(oracle, "advance_row"), (oracle, "step_rules"),
              (verify, "dp_count"), (cli, "dp_count"),
              (verify, "formulas"), (cli, "formulas"),
              (cli, "parse_arrangement"), (verify, "canonical_arrangement"),
              (verify, "validate"),
              (cli, "run_lemma_suite"), (cli, "run_theorem_suite"),
              (cli, "run_property_suite"),
              (verify.CompareReport, "to_json"), (verify.CompareReport, "to_csv"),
              (verify.CompareReport, "render")]
    assert [name for owner, name in traced if not hasattr(owner, name)] == []
    suite, captured = cli.run_theorem_suite, []

    def capture(spec):
        captured.append(suite(spec))
        return captured[-1]

    monkeypatch.setattr(cli, "run_theorem_suite", capture)
    code, _, _ = run_cli(capsys, "compare", "--suite", "theorems", "--n-max", "4",
                         "--format", "text")
    assert code == 0
    assert len(captured) == 1 and captured[0].total > 0
    report = captured[0]
    cells = report.cells
    assert len(cells) == report.total and {type(c) for c in cells} == {verify.Cell}
    shifted = [verify.Cell(c.formula_id, c.parameters, c.formula_value + 1, c.oracle_value + 1)
               for c in cells]
    report.cells = shifted
    assert report.cells == shifted != cells
    assert (report.total, report.mismatches) == (len(cells), 0)
