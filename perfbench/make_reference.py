"""Regenerate reference.json: the property-seed pool and the stored digests.

Usage: python3 perfbench/make_reference.py      (about two minutes)

The pool holds property-suite seeds whose exhaustive enumeration visits
within 2% of the paths, and of the path rows, of seed 0 (the CLI default).
Screening counts paths with a small DP instead of enumerating them; every
pool seed is then run for real with the enumeration traced, and the traced
count must equal the screened one.

Digests come from the current package, whose cells are all checked formula
against oracle while they are made; a run with any failed check stops the
script.  Rerun it only when the sweeps' cells are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from filterpaths import cli, verify  # noqa: E402
from filterpaths.model import step_rules  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = 16
BAND = 0.02


def enumeration_work(prop_seed: int, cases: int) -> tuple[int, int]:
    """(paths, sum of paths x rows) the property suite would enumerate."""
    work = [0, 0]

    def count_only(q):
        rules = step_rules(q.arrangement)
        row = {q.start[0]: 1}
        for _ in range(q.end_n):
            nxt: dict[int, int] = defaultdict(int)
            for x, c in row.items():
                for dx in (1, -1):
                    if rules.get((x, dx), 1):
                        nxt[x + dx] += c
            row = nxt
        paths = row.get(q.end_m, 0)
        work[0] += paths
        work[1] += paths * q.end_n
        return iter(())

    real = verify.iter_paths
    verify.iter_paths = count_only
    try:
        verify.run_property_suite(prop_seed, cases)
    finally:
        verify.iter_paths = real
    return work[0], work[1]


def checked(result: workloads.PassResult, what: str) -> workloads.PassResult:
    if result.failed or result.errors:
        sys.exit(f"{what}: {result.failed} failed: {result.errors[:5]}")
    return result


def main() -> int:
    cases = workloads.SCALES["full"]["cases"]
    target = enumeration_work(0, cases)
    pool, screened = [0], {0: target}
    candidate = 0
    while len(pool) < POOL_SIZE:
        candidate += 1
        work = enumeration_work(candidate, cases)
        if all(abs(w / t - 1) <= BAND for w, t in zip(work, target)):
            pool.append(candidate)
            screened[candidate] = work
    print(f"pool {pool} (screened seeds 0..{candidate})")

    reference = {"band": BAND, "property_seeds": pool,
                 "paths": {str(s): screened[s][0] for s in pool}, "digests": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-") as out_dir:
        for scale in workloads.SCALES:
            r = checked(workloads.theorem_sweep(cli.main, scale, None), f"theorem-sweep {scale}")
            digests = {"theorem-sweep": {"cells": r.cells, "sha256": r.digest}, "compare-sweep": {}}
            for prop_seed in pool:
                tracer = spans.Tracer()
                tracer.install_spans()
                try:
                    r = workloads.compare_sweep(cli.main, prop_seed, scale, out_dir, None)
                finally:
                    tracer.restore()
                checked(r, f"compare-sweep {scale} seed {prop_seed}")
                enumerated = tracer.counts["oracle.paths_enumerated"]
                if scale == "full" and enumerated != screened[prop_seed][0]:
                    sys.exit(f"seed {prop_seed}: enumerated {enumerated} paths, "
                             f"screened {screened[prop_seed][0]}")
                digests["compare-sweep"][str(prop_seed)] = {"cells": r.cells, "sha256": r.digest}
                print(f"{scale} seed {prop_seed}: {r.cells} cells, {enumerated} paths")
            reference["digests"][scale] = digests
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
