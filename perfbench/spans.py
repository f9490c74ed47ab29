"""Per-layer measurement for the benchmark's traced passes.

A `Tracer` replaces names in the namespaces of the modules that call them
with wrappers that time or count the call, and puts the originals back in
`restore()`.  Wrapping happens in the caller's namespace because the package
imports most functions by name: `verify` and `cli` hold their own references
to `count_table`, `dp_count`, `iter_paths` and the suites, and
`oracle.count_table` looks `advance_row` up in `oracle`'s globals.

Spans nest.  Each span's self time is its duration minus the time of the
spans it encloses, so the self times of one pass add up to the traced
`cli.main` time.  Only the totals per span name are kept.

Functions called hundreds of thousands of times per pass (`binom`,
`poly_p`, `poly_q`) are only counted, and only in a separate counting pass:
timing them would change the proportions the spans are meant to show.
"""

from __future__ import annotations

import inspect
import time
import types
from collections import defaultdict

# Span names, each reported as "<name>.s" (self time in seconds).
SPAN_NAMES = (
    "cli.main",
    "verify.lemmas",
    "verify.theorems",
    "verify.properties",
    "verify.serialize",
    "oracle.dp_count",
    "oracle.count_table",
    "oracle.iter_paths",
    "kernel.advance_row",
    "formulas.eval",
    "model.arrangement",
)

# Counters filled by the spans pass; max_bits holds a maximum, not a sum.
SPAN_COUNTERS = (
    "oracle.dp_cells",
    "oracle.paths_enumerated",
    "formulas.max_bits",
    "verify.report_bytes",
    "verify.cells",
)

# Functions counted in the counting pass, keyed by the metric they add to.
COUNTED = (
    ("binom", "formulas.binom.calls"),
    ("poly_p", "formulas.poly.calls"),
    ("poly_q", "formulas.poly.calls"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._cells: dict[str, list[int]] = {}

    def patch(self, owner, name: str, make) -> None:
        """Replace owner.name with make(original); note names that are gone."""
        if not hasattr(owner, name):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(result, args) runs after it closes."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    def generator_span(self, name: str, fn, count_key: str):
        """Span over a generator from its first item to exhaustion.

        The span stays open while the consumer handles each item, so the
        consumer must not enter other spans between items; the property
        suite only sums the weights.
        """
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                counts[count_key] += n

        return wrapper

    def counter(self, key: str, fn):
        cell = self._cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers -------------------------------------------------------

    def _row_cells(self, result, args) -> None:
        self.counts["oracle.dp_cells"] += len(args[0])

    def _bits(self, result, args) -> None:
        if isinstance(result, int):
            bits = result.bit_length()
            if bits > self.counts["formulas.max_bits"]:
                self.counts["formulas.max_bits"] = bits

    def _report_cells(self, result, args) -> None:
        self.counts["verify.cells"] += len(result.cells)

    def _text_bytes(self, result, args) -> None:
        self.counts["verify.report_bytes"] += len(result.encode())

    def _formulas_proxy(self, module):
        """A stand-in for `formulas` whose public functions open spans.

        Only the caller's name is replaced, so calls inside `formulas` stay
        unwrapped and each span is an outermost evaluator call.
        """
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                setattr(proxy, name, self.span("formulas.eval", fn, self._bits))
        return proxy

    # -- installation ----------------------------------------------------

    def install_spans(self) -> None:
        from filterpaths import cli, oracle, verify

        self.patch(oracle, "advance_row",
                   lambda f: self.span("kernel.advance_row", f, self._row_cells))
        for owner in (oracle, verify):
            self.patch(owner, "count_table", lambda f: self.span("oracle.count_table", f))
            self.patch(owner, "iter_paths", lambda f: self.generator_span(
                "oracle.iter_paths", f, "oracle.paths_enumerated"))
        for owner in (verify, cli):
            self.patch(owner, "dp_count", lambda f: self.span("oracle.dp_count", f))
            self.patch(owner, "formulas", self._formulas_proxy)
        for owner, name in ((cli, "parse_arrangement"), (verify, "canonical_arrangement"),
                            (verify, "validate"), (oracle, "validate"),
                            (oracle, "step_rules")):
            self.patch(owner, name, lambda f: self.span("model.arrangement", f))
        for name, span_name in (("run_lemma_suite", "verify.lemmas"),
                                ("run_theorem_suite", "verify.theorems"),
                                ("run_property_suite", "verify.properties")):
            self.patch(cli, name, lambda f, s=span_name: self.span(s, f, self._report_cells))
        for method in ("to_json", "to_csv", "render"):
            self.patch(verify.CompareReport, method,
                       lambda f: self.span("verify.serialize", f, self._text_bytes))

    def install_counts(self) -> None:
        from filterpaths import formulas

        for name, key in COUNTED:
            self.patch(formulas, name, lambda f, k=key: self.counter(k, f))

    # -- results ---------------------------------------------------------

    def span_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{name}.s": self.self_s.get(name, 0.0) for name in SPAN_NAMES}
        out["kernel.advance_row.calls"] = self.calls.get("kernel.advance_row", 0)
        out["oracle.count_table.calls"] = self.calls.get("oracle.count_table", 0)
        out["formulas.eval.calls"] = self.calls.get("formulas.eval", 0)
        for key in SPAN_COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    def count_metrics(self) -> dict[str, int]:
        return {key: cell[0] for key, cell in self._cells.items()}
