"""The benchmark's workloads: inputs drawn from a seed, one pass through the
package's command-line entry point, and the checks on every answer.

A pass is one closed-loop unit of work run in a fresh interpreter:

- compare-sweep: one `filterpaths compare` on the default grid, report
  written as JSON to a file;
- theorem-sweep: one `filterpaths compare --suite theorems --format text`
  at a larger n_max;
- point-queries: a batch of independent large-n spot checks, each one
  `count` (closed form) and one `oracle` (DP) call that must agree.

Every failed check counts against the pass's `failed`; nothing is skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("compare-sweep", "theorem-sweep", "point-queries")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# "full" is what the benchmark measures; "tiny" runs in the benchmark's tests.
SCALES = {
    "full": {
        "grid": [],
        "cases": 100,
        "theorem_n_max": 200,
        "queries": 60,
        "query_n": (200, 1200),
    },
    "tiny": {
        "grid": ["--l", "2,3", "--n-max", "12", "--d-max", "2", "--a-max", "1", "--b-max", "1"],
        "cases": 3,
        "theorem_n_max": 24,
        "queries": 5,
        "query_n": (20, 70),
    },
}

QUERY_FORMULAS = ("desire1", "desire2", "th3", "th4", "mj")

_SUMMARY = re.compile(r"cells:?\s+(\d+)\s+mismatches:?\s+(\d+)")


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    cells: int = 0


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def property_seed(seed: int, pool: list[int]) -> int:
    """The property-suite seed for a benchmark seed, drawn from the pool.

    Every pool seed enumerates within 2% of the paths of seed 0 (the CLI
    default), so the benchmark seed changes compare-sweep's inputs but not
    its amount of work.
    """
    return pool[random.Random(seed).randrange(len(pool))]


def cells_digest(rows) -> str:
    """sha256 over (formula_id, parameters, formula_value, oracle_value) rows.

    Built from values, not report bytes, so a format-only change to the
    report keeps the digest.
    """
    h = hashlib.sha256()
    for fid, params, fv, ov in rows:
        ps = ",".join(f"{k}={v}" for k, v in params)
        h.update(f"{fid}\t{ps}\t{fv}\t{ov}\n".encode())
    return h.hexdigest()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _call(main, argv: list[str]):
    """Run one CLI command in process; returns (exit code, stdout, seconds, error)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # a raising command is a failed result
        return None, buf.getvalue(), time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - t0, None


def _sweep_result(wall, peak, rc, stdout, error, rows, mismatches, expected) -> PassResult:
    """Shared checks of the two sweeps; any failed check fails every cell."""
    result = PassResult(wall_s=wall, peak_rss_mib=peak, latencies_ms=[wall * 1e3])
    problems = [error] if error else []
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = _SUMMARY.search(stdout)
    if not summary or (int(summary.group(1)), int(summary.group(2))) != (len(rows), 0):
        problems.append(f"summary line {stdout.strip()[:200]!r} does not match {len(rows)} cells")
    result.cells = len(rows)
    result.digest = cells_digest(rows)
    if expected is not None:
        if len(rows) != expected["cells"]:
            problems.append(f"{len(rows)} cells, expected {expected['cells']}")
        if result.digest != expected["sha256"]:
            problems.append("cell digest differs from the stored one")
    result.attempted = max(expected["cells"] if expected else len(rows), 1)
    result.failed = result.attempted if problems else mismatches
    result.errors = problems + ([f"{mismatches} mismatching cells"] if mismatches else [])
    return result


def compare_sweep(main, prop_seed: int, scale: str, out_dir: str, expected) -> PassResult:
    size = SCALES[scale]
    out = os.path.join(out_dir, "report.json")
    argv = ["compare", *size["grid"], "--cases", str(size["cases"]),
            "--seed", str(prop_seed), "--out", out]
    rc, stdout, wall, error = _call(main, argv)
    peak = _peak_rss_mib()  # before this pass's own parsing of the report
    rows, mismatches = [], 0
    if error is None:
        try:
            with open(out) as fh:
                report = json.load(fh)
            os.remove(out)
        except (OSError, ValueError) as exc:
            error = f"report unreadable: {exc}"
        else:
            for c in report["cells"]:
                rows.append((c["formula_id"], c["parameters"].items(),
                             c["formula_value"], c["oracle_value"]))
                if c["formula_value"] != c["oracle_value"] or c["match"] is not True:
                    mismatches += 1
            if report["summary"] != {"total": len(rows), "mismatches": mismatches}:
                error = f"report summary {report['summary']} disagrees with its cells"
    return _sweep_result(wall, peak, rc, stdout, error, rows, mismatches, expected)


def theorem_sweep(main, scale: str, expected) -> PassResult:
    from filterpaths import cli

    argv = ["compare", "--suite", "theorems",
            "--n-max", str(SCALES[scale]["theorem_n_max"]), "--format", "text"]
    suite = cli.run_theorem_suite
    captured = []

    def capture(spec):
        report = suite(spec)
        captured.append(report)
        return report

    cli.run_theorem_suite = capture  # the text report prints no values
    try:
        rc, stdout, wall, error = _call(main, argv)
    finally:
        cli.run_theorem_suite = suite
    peak = _peak_rss_mib()
    cells = [c for report in captured for c in report.cells]
    rows = [(c.formula_id, c.parameters, c.formula_value, c.oracle_value) for c in cells]
    mismatches = sum(1 for c in cells if c.formula_value != c.oracle_value)
    return _sweep_result(wall, peak, rc, stdout, error, rows, mismatches, expected)


def _m_range(fid: str, l: int, n: int) -> tuple[int, int]:
    """Endpoint columns where the formula applies and the count is positive."""
    if fid == "desire1":
        return 0, l - 2
    if fid == "desire2":
        return l - 1, n
    if fid in ("th3", "th4"):
        return l - 1, 2 * l - 2
    return (1 if l == 2 else 0), min(5 * l - 2, n)


def arrangement_text(fid: str, l: int, n: int) -> str:
    """The arrangement each closed form counts, in the CLI's text grammar."""
    if fid in ("desire1", "desire2"):
        return f"W@0;F1@{l - 1}"
    if fid == "th3":
        return f"F1@{l - 1};F2@{2 * l - 1}"
    if fid == "th4":
        return f"W@0;F1@{l - 1};F2@{2 * l - 1}"
    tokens = ["W@0", f"F1@{l - 1}"]
    k = 2
    while k * l - 1 <= n + 1:  # farther filters are out of reach by row n
        tokens.append(f"F2@{k * l - 1}")
        k += 1
    return ";".join(tokens)


def make_queries(seed: int, scale: str) -> list[tuple[str, int, int, int]]:
    """(formula, l, m, n) spot checks; one n per stratum, so no n repeats.

    Formulas take the strata in turn, so each spans the whole n range and the
    batch's DP work and peak memory (a wall halves the reachable columns) are
    nearly the same for every seed.  l = 2 has no positive strip-1 counts,
    so desire1 draws l >= 3 and mj skips column 0 there.
    """
    size = SCALES[scale]
    lo, hi = size["query_n"]
    count = size["queries"]
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        n = rng.randrange(lo + i * (hi - lo) // count, lo + (i + 1) * (hi - lo) // count)
        fid = QUERY_FORMULAS[i % len(QUERY_FORMULAS)]
        l = rng.randint(3 if fid == "desire1" else 2, 5)
        m_lo, m_hi = _m_range(fid, l, n)
        queries.append((fid, l, rng.choice([m for m in range(m_lo, m_hi + 1) if (m + n) % 2 == 0]), n))
    return queries


def _query_value(rc, stdout, _seconds, error) -> int:
    if error:
        raise ValueError(error)
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return int(json.loads(stdout)["value"])


def point_queries(main, seed: int, scale: str) -> PassResult:
    result = PassResult()
    t_pass = time.perf_counter()
    for fid, l, m, n in make_queries(seed, scale):
        t0 = time.perf_counter()
        counted = _call(main, ["count", "--l", str(l), "--m", str(m), "--n", str(n),
                               "--formula", fid, "--format", "json"])
        oracle = _call(main, ["oracle", "--arr", arrangement_text(fid, l, n),
                              "--m", str(m), "--n", str(n), "--format", "json"])
        try:
            closed = _query_value(*counted)
            dp = _query_value(*oracle)
            if closed != dp:
                raise ValueError(f"closed form {closed} != oracle {dp}")
            if dp <= 0:
                raise ValueError(f"non-positive count {dp}")
        except (ValueError, KeyError, TypeError) as exc:
            result.failed += 1
            result.errors.append(f"{fid} l={l} m={m} n={n}: {exc}"[:300])
        result.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        result.attempted += 1
    result.wall_s = time.perf_counter() - t_pass
    result.peak_rss_mib = _peak_rss_mib()
    return result


def expected(workload: str, seed: int, scale: str, reference: dict):
    """What a pass must produce: the stored cell count and digest of a sweep,
    or None for point-queries, which check each answer on its own."""
    digests = reference["digests"][scale]
    if workload == "compare-sweep":
        return digests["compare-sweep"].get(str(property_seed(seed, reference["property_seeds"])))
    if workload == "theorem-sweep":
        return digests["theorem-sweep"]
    return None


def expected_results(workload: str, seed: int, scale: str, reference: dict) -> int:
    """Results one pass attempts; a pass that dies fails all of them."""
    if workload == "point-queries":
        return SCALES[scale]["queries"]
    stored = expected(workload, seed, scale, reference)
    return stored["cells"] if stored else 1


def run_pass(workload: str, seed: int, scale: str, out_dir: str, reference: dict, main) -> PassResult:
    if workload == "point-queries":
        return point_queries(main, seed, scale)
    stored = expected(workload, seed, scale, reference)
    if stored is None:  # cannot happen for pool seeds; fail rather than skip
        return PassResult(attempted=1, failed=1, errors=["no stored digest for this seed"])
    if workload == "compare-sweep":
        prop_seed = property_seed(seed, reference["property_seeds"])
        return compare_sweep(main, prop_seed, scale, out_dir, stored)
    return theorem_sweep(main, scale, stored)
