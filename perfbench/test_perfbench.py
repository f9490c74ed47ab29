"""The benchmark's own tests: tiny-size runs of every workload, and checks
that a wrong answer is counted as failed rather than passed.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from filterpaths import cli, formulas, verify  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_declared_metrics(workload, trace):
    info, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in section] == list(result["metrics"])
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert info["env"]["kernel_backend"] in ("python", "compiled")
    if trace:
        assert info["missing_names"] == []
        assert all(info["passes"][mode] >= 1 for mode in ("plain", "spans", "counts"))
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)


def test_missing_package_source_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "perfbench" / "reference.json").write_text((HERE / "reference.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0 and out.stdout == ""


def perturbed(module, name: str):
    """A copy of `module` whose function `name` answers one too many."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(vars(module))
    real = getattr(module, name)
    setattr(proxy, name, lambda *args: real(*args) + 1)
    return proxy


def test_wrong_closed_form_fails_the_point_queries_it_touches(monkeypatch):
    monkeypatch.setattr(cli, "formulas", perturbed(formulas, "multiplicity"))
    seed = 1
    touched = sum(1 for q in workloads.make_queries(seed, "tiny") if q[0] == "mj")
    assert touched > 0
    result = workloads.point_queries(cli.main, seed, "tiny")
    assert result.failed == touched
    assert result.attempted == workloads.SCALES["tiny"]["queries"]


def test_wrong_closed_form_fails_the_compare_sweep(monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "formulas", perturbed(formulas, "multiplicity"))
    reference = workloads.load_reference()
    result = workloads.run_pass("compare-sweep", 0, "tiny", str(tmp_path), reference, cli.main)
    assert result.attempted > 0 and result.failed == result.attempted


def test_consistently_wrong_cells_fail_the_digest(monkeypatch):
    """Formula and oracle both off by one: no mismatch, but not the stored answer."""
    real = cli.run_theorem_suite

    def shifted(spec):
        report = real(spec)
        report.cells = [verify.Cell(c.formula_id, c.parameters, c.formula_value + 1,
                                    c.oracle_value + 1) for c in report.cells]
        return report

    monkeypatch.setattr(cli, "run_theorem_suite", shifted)
    reference = workloads.load_reference()
    result = workloads.run_pass("theorem-sweep", 0, "tiny", "", reference, cli.main)
    assert result.attempted > 0 and result.failed == result.attempted
    assert "cell digest differs from the stored one" in result.errors


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(x) for x in range(1, 201)]) == (95, 190.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_compare_refuses_different_kernel_backends(tmp_path):
    logs = []
    for backend in ("python", "compiled"):
        info = {"workload": "point-queries", "scale": "full", "trace": 0,
                "env": {"kernel_backend": backend}}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / f"{backend}.log"
        path.write_text(json.dumps({"info": info}) + "\n" + json.dumps(result) + "\n")
        logs.append(str(path))
    assert compare.main(["--base", logs[0], "--new", logs[1]]) == 2
    assert compare.main(["--base", logs[0], "--new", logs[0]]) == 0
