"""filterpaths benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload compare-sweep --seed 0 --seconds 40 --trace 0

Runs closed-loop passes of the workload (see workloads.py), each in a fresh
interpreter, for about --seconds, and checks every answer.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics, each a median over passes.  The line before it is
{"info": {...}}: the environment, pass counts, failure fraction and the tail
percentile used.  Exits 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

HARD_LIMIT_S = 170  # every run must end within 180 s
SETUP_PER_PASS = 3  # set-up samples taken after each plain pass, spread over the run
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

# Times a fresh interpreter importing the package and building its CLI parser.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import filterpaths.cli
filterpaths.cli.build_parser()
print(time.perf_counter() - t0)
"""


def setup_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank; the maximum when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in reversed(TAIL_LADDER):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(spec: dict, expected: int, started: float) -> dict:
    """One pass in a fresh interpreter; a pass that dies fails all its results."""
    timeout = max(1.0, started + HARD_LIMIT_S - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"mode": spec["mode"], "dead": True, "attempted": expected,
                "failed": expected, "errors": [f"pass exceeded {timeout:.0f} s"]}
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        return {"mode": spec["mode"], "dead": True, "attempted": expected, "failed": expected,
                "errors": [f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]}
    result["mode"] = spec["mode"]
    return result


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes) if passes else 0.0


def end_to_end(plain: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = [x for p in plain for x in p["latencies_ms"]]
    percentile, tail_ms = tail(latencies) if latencies else (100.0, 0.0)
    rates = [(p["attempted"] - p["failed"]) / p["wall_s"] for p in plain if p["wall_s"] > 0]
    values = {
        "wall_s": median_of(plain, "wall_s"),
        "results_per_s": statistics.median(rates) if rates else 0.0,
        "query_ms.p50": statistics.median(latencies) if latencies else 0.0,
        "query_ms.tail": tail_ms,
        "peak_rss_mib": median_of(plain, "peak_rss_mib"),
        "setup_s": statistics.median(setup),
    }
    return values, {"tail_percentile": percentile, "latency_samples": len(latencies)}


def per_layer(passes: list[dict]) -> dict:
    by_mode = {m: [p for p in passes if p["mode"] == m] for m in ("plain", "spans", "counts")}
    values = {}
    for mode in ("spans", "counts"):
        done = by_mode[mode]
        for key in (done[0]["layers"] if done else ()):
            values[key] = statistics.median(p["layers"][key] for p in done)
    values["trace.overhead_s"] = (median_of(by_mode["spans"], "wall_s")
                                  - median_of(by_mode["plain"], "wall_s"))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="filterpaths benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "filterpaths" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    reference = workloads.load_reference()
    expected = workloads.expected_results(args.workload, args.seed, args.scale, reference)

    modes = ("plain", "spans", "counts") if args.trace else ("plain",)
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    passes: list[dict] = []
    setup: list[float] = []
    cycles: list[float] = []
    try:
        t0 = time.monotonic()
        # closed loop; a cycle starts only if one more is expected to end in time
        while not cycles or time.monotonic() - t0 + statistics.median(cycles) <= args.seconds:
            c0 = time.monotonic()
            for mode in modes:
                spec = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                        "mode": mode, "out_dir": out_dir}
                passes.append(run_worker(spec, expected, started))
                p = passes[-1]
                print(f"pass {len(passes)} {mode}: wall {p.get('wall_s', 0):.3f} s, "
                      f"{p['failed']}/{p['attempted']} failed", file=sys.stderr)
            if not args.trace:
                setup.extend(setup_seconds() for _ in range(SETUP_PER_PASS))
            cycles.append(time.monotonic() - c0)
            if any(p.get("dead") for p in passes):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    live = [p for p in passes if not p.get("dead")]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "passes": {m: sum(1 for p in live if p["mode"] == m) for m in modes},
        "attempted": attempted, "failed": failed, "failed_frac": failed / max(attempted, 1),
        "errors": [e for p in passes for e in p.get("errors", [])][:10],
        "env": {
            "kernel_backend": live[0]["kernel_backend"] if live else "unknown",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
        },
    }
    if args.workload == "compare-sweep":
        info["property_seed"] = workloads.property_seed(args.seed, reference["property_seeds"])
    if args.trace:
        values = per_layer(live)
        info["missing_names"] = sorted({m for p in live for m in p.get("missing", [])})
        section = "per_layer"
    else:
        values, tail_info = end_to_end([p for p in live if p["mode"] == "plain"], setup)
        info.update(tail_info)
        section = "end_to_end"
    # a declared metric the passes did not produce is a benchmark bug, unless none ran
    metrics = {m["name"]: {"value": values[m["name"]] if live else values.get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in declared[section]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0 and bool(live), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
