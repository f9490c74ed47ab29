"""One benchmark pass in a fresh interpreter, so that its peak memory and
its caches belong to that pass alone.

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": ..., "scale": ...,
                                     "mode": "plain|spans|counts", "out_dir": ...}'

Prints the pass result as one JSON line.  `plain` measures end to end,
`spans` adds per-layer self times, `counts` counts the hottest formula
helpers (see spans.py).
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import filterpaths  # noqa: E402
from filterpaths import cli, model  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    reference = workloads.load_reference()
    tracer = spans.Tracer()
    entry = cli.main
    if spec["mode"] == "spans":
        tracer.install_spans()
        entry = tracer.span("cli.main", cli.main)
    elif spec["mode"] == "counts":
        tracer.install_counts()
    try:
        result = workloads.run_pass(spec["workload"], spec["seed"], spec["scale"],
                                    spec["out_dir"], reference, entry)
    finally:
        tracer.restore()

    layers: dict[str, float] = {}
    if spec["mode"] == "spans":
        layers = tracer.span_metrics()
        cache_info = getattr(model.step_rules, "cache_info", None)  # absent if uncached
        hits, misses = cache_info()[:2] if cache_info else (0, 0)
        layers["model.step_rules.hits"] = hits
        layers["model.step_rules.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    elif spec["mode"] == "counts":
        layers = tracer.count_metrics()
    print(json.dumps({**asdict(result), "layers": layers, "missing": tracer.missing,
                      "kernel_backend": filterpaths.KERNEL_BACKEND}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
