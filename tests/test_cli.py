"""CLI surface: flags, exit codes, and deterministic rendering."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from filterpaths import __version__
from filterpaths.cli import FORMULA_IDS, main
from filterpaths.formulas import FORMULA_MAX_ROW

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

    def test_unwritable_report_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compare", "--l", "2", "--n-max", "4", "--d-max", "1",
            "--suite", "lemmas", "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 2
        assert "report" in err

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
