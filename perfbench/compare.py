"""Compare two sets of benchmark runs, metric by metric.

Usage: python3 perfbench/compare.py --base A1.log [A2.log ...] --new B1.log [B2.log ...]

Each log is the saved stdout of one `run.py` run.  Prints each metric's
median on both sides and how much worse the new median is, as a share of
the base median; a metric with a bound in BENCHMARK.json that worsens by
more than its bound is marked REGRESSION and makes the exit code 1.

Refuses, with exit code 2, runs that differ in kernel backend, workload,
scale or trace mode: those measure different programs or different work.
Runs of one side should hold the seed fixed or cover the same seeds on both
sides; see README.md on seed sensitivity.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark runs")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]

    kinds = {(i["env"]["kernel_backend"], i["workload"], i["scale"], i["trace"])
             for i, _ in base + new}
    if len(kinds) > 1:
        print("refusing to compare: runs differ in (kernel backend, workload, scale, trace): "
              + ", ".join(map(str, sorted(kinds))), file=sys.stderr)
        return 2
    incorrect = sum(1 for _, r in base + new if not r["correct"])
    if incorrect:
        print(f"warning: {incorrect} run(s) failed their correctness checks")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    regressions = 0
    print(f"{'metric':28s} {'base':>14s} {'new':>14s} {'worse by':>9s}")
    for name in base[0][1]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for _, r in base)
        n = statistics.median(r["metrics"][name]["value"] for _, r in new)
        spec = specs[name]
        worse = ((n - b) if spec["better"] == "lower" else (b - n)) / b if b else 0.0
        verdict = ""
        if "bound" in spec:
            verdict = "REGRESSION" if worse > spec["bound"] else "ok"
            regressions += verdict == "REGRESSION"
        print(f"{name:28s} {b:14.6g} {n:14.6g} {worse:9.3f} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
