"""Differential-verification harness.

Sweeps parameter grids, evaluates every closed form against the DP
oracle, and assembles a deterministic machine-readable report.  The
report's integer fields serialize as decimal strings so arbitrarily large
counts survive any consumer.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable

from . import formulas
from .model import (
    Arrangement,
    Kind,
    Restriction,
    WeightRule,
    canonical_arrangement,
    validate,
)
from .oracle import DP_MAX_ROWS, PathQuery, count_table, dp_count, iter_paths


@dataclass(frozen=True)
class SweepSpec:
    l_values: tuple[int, ...] = (2, 3, 4, 5)
    n_max: int = 48
    d_max: int = 6
    strips_max: int = 5
    a_max: int = 3
    b_max: int = 3
    semantics: WeightRule = WeightRule.LANDING

    def check(self) -> "SweepSpec":
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.n_max > DP_MAX_ROWS:
            raise ValueError(f"n_max must be <= {DP_MAX_ROWS} (DP row limit), got {self.n_max}")
        if any(l < 2 for l in self.l_values):
            raise ValueError(f"all l values must be >= 2, got {self.l_values}")
        if len(set(self.l_values)) < len(self.l_values):
            raise ValueError(f"l_values must be distinct, got {self.l_values}")
        for name, floor in (("d_max", 1), ("strips_max", 1), ("a_max", 0), ("b_max", 0)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        return self


@dataclass(frozen=True)
class Cell:
    formula_id: str
    parameters: tuple[tuple[str, int], ...]
    formula_value: int
    oracle_value: int

    @property
    def match(self) -> bool:
        return self.formula_value == self.oracle_value


@dataclass
class CompareReport:
    cells: list[Cell] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def mismatches(self) -> int:
        return sum(1 for c in self.cells if not c.match)

    def mismatch_cells(self) -> list[Cell]:
        return [c for c in self.cells if not c.match]

    def extend(self, other: "CompareReport") -> None:
        self.cells.extend(other.cells)

    def as_dict(self) -> dict:
        return {
            "cells": [
                {
                    "formula_id": c.formula_id,
                    "parameters": dict(c.parameters),
                    "formula_value": str(c.formula_value),
                    "oracle_value": str(c.oracle_value),
                    "match": c.match,
                }
                for c in self.cells
            ],
            "summary": {"total": self.total, "mismatches": self.mismatches},
        }

    def to_json(self) -> str:
        """The text of `json.dumps(self.as_dict(), indent=2)`, one f-string per cell.

        Strings (ids, parameter names) go through `json.dumps`, each distinct
        one once, so their escaping is the encoder's; the rest are ints.
        """
        q = functools.cache(json.dumps)

        def cell(c: Cell) -> str:
            params = ",\n".join(f"        {q(k)}: {v}" for k, v in dict(c.parameters).items())
            params = f"{{\n{params}\n      }}" if params else "{}"
            return (f'    {{\n      "formula_id": {q(c.formula_id)},\n'
                    f'      "parameters": {params},\n'
                    f'      "formula_value": "{c.formula_value}",\n'
                    f'      "oracle_value": "{c.oracle_value}",\n'
                    f'      "match": {"true" if c.match else "false"}\n    }}')

        cells = "[\n" + ",\n".join(map(cell, self.cells)) + "\n  ]" if self.cells else "[]"
        return (f'{{\n  "cells": {cells},\n  "summary": {{\n    "total": {self.total},\n'
                f'    "mismatches": {self.mismatches}\n  }}\n}}')

    def to_csv(self) -> str:
        lines = ["formula_id,parameters,formula_value,oracle_value,match"]
        for c in self.cells:
            params = " ".join(f"{k}={v}" for k, v in c.parameters)
            lines.append(
                f"{c.formula_id},{params},{c.formula_value},{c.oracle_value},"
                f"{str(c.match).lower()}"
            )
        return "\n".join(lines) + "\n"

    def render(self, max_mismatches: int = 20) -> str:
        lines = [f"cells: {self.total}   mismatches: {self.mismatches}"]
        for c in self.mismatch_cells()[:max_mismatches]:
            params = " ".join(f"{k}={v}" for k, v in c.parameters)
            lines.append(
                f"  MISMATCH {c.formula_id} [{params}] "
                f"formula={c.formula_value} oracle={c.oracle_value}"
            )
        rest = self.mismatches - max_mismatches
        if rest > 0:
            lines.append(f"  ... and {rest} more")
        return "\n".join(lines) + "\n"


def _params(**kwargs: int) -> tuple[tuple[str, int], ...]:
    return tuple(kwargs.items())


def _rs(*pairs: tuple[Kind, int]) -> tuple[Restriction, ...]:
    return tuple(Restriction(kind, axis) for kind, axis in pairs)


@dataclass(frozen=True)
class Formula:
    """One closed form and the grid that checks it against the DP oracle.

    Per grid value g (of `grid`: "d", "l", or "" for none) and start index
    i (of `index`, if any), the DP runs from column `start(g, i)` under
    `restrictions(spec, g)` and row n's endpoints span `m_range(spec, g, n)`.
    `value(f, **params)` evaluates the closed form via the module f.
    """

    id: str
    grid: str
    restrictions: Callable[..., tuple[Restriction, ...]]
    m_range: Callable[..., tuple[int, int]]
    value: Callable[..., int]
    index: str = ""
    start: Callable[[int, int], int] = lambda g, i: 0


W, WR, F1, F2 = Kind.WALL_LEFT, Kind.WALL_RIGHT, Kind.FILTER1, Kind.FILTER2
_LEFT_OF = lambda s, d, n: (-n, min(d - 1, n))
_NEG = lambda s, d, n: (max(-d, -n), n)
_WALL_FILTER = lambda s, l: _rs((W, 0), (F1, l - 1))
_PAIR = lambda s, l: _rs((F1, l - 1), (F2, 2 * l - 1))
_STRIP2 = lambda s, l, n: (l - 1, min(2 * l - 2, n))

LEMMAS = (
    Formula("free", "", lambda s, g: (), lambda s, g, n: (-n, n),
            lambda f, m, n: f.count_free(m, n)),
    Formula("wall_left", "d", lambda s, d: _rs((W, 1 - d)), lambda s, d, n: (1 - d, n),
            lambda f, d, m, n: f.wall_left(1 - d, m, n)),
    Formula("wall_right", "d", lambda s, d: _rs((WR, d - 1)), lambda s, d, n: (-n, d - 1),
            lambda f, d, m, n: f.wall_right(d - 1, m, n)),
    Formula("filter1_left", "d", lambda s, d: _rs((F1, d)), _LEFT_OF,
            lambda f, d, m, n: f.filter1_left(d, m, n)),
    Formula("filter1_right", "d", lambda s, d: _rs((F1, d)), lambda s, d, n: (d, n),
            lambda f, d, m, n: f.filter1_right(d, m, n)),
    Formula("filter1_neg", "d", lambda s, d: _rs((F1, -d)), _NEG,
            lambda f, d, m, n: f.filter1_neg(d, m, n)),
    Formula("filter2_left", "d", lambda s, d: _rs((F2, d)), _LEFT_OF,
            lambda f, d, m, n: f.filter2_left(d, m, n)),
    Formula("filter2_right", "d", lambda s, d: _rs((F2, d)), lambda s, d, n: (d + 1, n),
            lambda f, d, m, n: f.filter2_right(d, m, n)),
    Formula("filter2_neg", "d", lambda s, d: _rs((F2, -d)), _NEG,
            lambda f, d, m, n: f.filter2_neg(d, m, n)),
)

THEOREMS = (
    Formula("desire1", "l", _WALL_FILTER, lambda s, l, n: (0, min(l - 2, n)),
            lambda f, l, m, n: f.wall_filter_strip1(l, m, n)),
    Formula("desire2", "l", _WALL_FILTER, lambda s, l, n: (l - 1, n),
            lambda f, l, m, n: f.wall_filter_right(l, m, n)),
    Formula("th3", "l", _PAIR, _STRIP2, lambda f, l, m, n: f.two_filters(l, m, n)),
    Formula("th32", "l", _PAIR, _STRIP2,
            lambda f, a, l, m, n: f.two_filters_from_even(a, l, m, n),
            index="a", start=lambda l, a: -2 * a * l),
    Formula("th33", "l", _PAIR, _STRIP2,
            lambda f, b, l, m, n: f.two_filters_from_odd(b, l, m, n),
            index="b", start=lambda l, b: -2 * b * l - 2),
    Formula("th4", "l", lambda s, l: _rs((W, 0), (F1, l - 1), (F2, 2 * l - 1)), _STRIP2,
            lambda f, l, m, n: f.wall_two_filters(l, m, n)),
    Formula("mj", "l", lambda s, l: canonical_arrangement(l, s.n_max).restrictions,
            lambda s, l, n: (0, min(s.strips_max * l - 2, n)),
            lambda f, l, m, n: f.multiplicity(l, m, n)),
)

FORMULAS = LEMMAS + THEOREMS


def _values(spec: SweepSpec, name: str):
    """The values a sweep parameter takes; the empty name is a single pass."""
    return {"l": spec.l_values, "d": range(1, spec.d_max + 1),
            "a": range(spec.a_max + 1), "b": range(spec.b_max + 1)}.get(name, (None,))


def _endpoints(n_max: int, m_range):
    """All (m, n) with n <= n_max, parity-matched, m within m_range(n)."""
    for n in range(0, n_max + 1):
        lo, hi = m_range(n)
        start = lo if (n - lo) % 2 == 0 else lo + 1
        for m in range(start, hi + 1, 2):
            yield m, n


def _sweep(spec: SweepSpec, rows: tuple[Formula, ...]) -> CompareReport:
    """Every row's cells, all rows per grid value, in table order.

    Consecutive rows with the same start and arrangement share one DP
    table; no other table is kept, so at most one is alive at a time.
    """
    spec.check()
    report = CompareReport()
    key = table = None
    for grid, group in groupby(rows, attrgetter("grid")):
        group = tuple(group)
        for g in _values(spec, grid):
            for row in group:
                arr = Arrangement(row.restrictions(spec, g), spec.semantics)
                for i in _values(spec, row.index):
                    start = row.start(g, i)
                    if key != (start, arr):
                        table = None  # release the old table before building the next
                        table = count_table(start, spec.n_max, arr)
                        key = (start, arr)
                    fixed = {k: v for k, v in ((row.index, i), (grid, g)) if k}
                    for m, n in _endpoints(spec.n_max, lambda n: row.m_range(spec, g, n)):
                        params = dict(fixed, m=m, n=n)
                        report.cells.append(Cell(row.id, tuple(params.items()),
                                                 row.value(formulas, **params),
                                                 table.count(m, n)))
    return report


def run_lemma_suite(spec: SweepSpec) -> CompareReport:
    """One-restriction formulas vs the DP oracle over the full grid."""
    return _sweep(spec, LEMMAS)


def run_theorem_suite(spec: SweepSpec) -> CompareReport:
    """Multi-restriction formulas vs the DP oracle over the sweep grid."""
    return _sweep(spec, THEOREMS)


def _random_arrangement(rng: random.Random) -> Arrangement:
    """A random valid arrangement: spaced one-way columns of random kinds."""
    kinds = (Kind.WALL_LEFT, Kind.WALL_RIGHT, Kind.FILTER1, Kind.FILTER2)
    count = rng.randint(0, 3)
    axes: list[int] = []
    axis = rng.randint(-8, 4)
    for _ in range(count):
        axes.append(axis)
        axis += rng.randint(2, 5)
    rs = tuple(Restriction(rng.choice(kinds), a) for a in axes)
    semantics = rng.choice((WeightRule.LANDING, WeightRule.LITERAL))
    return validate(Arrangement(rs, semantics))


def run_property_suite(seed: int, cases: int, n_max: int = 20) -> CompareReport:
    """Randomized oracle properties, reproducible from the seed.

    Per case: DP vs exhaustive enumeration, translation invariance of the
    DP under a random shift, and nonnegativity.
    """
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    rng = random.Random(seed)
    report = CompareReport()
    for i in range(cases):
        arr = _random_arrangement(rng)
        start = rng.randint(-6, 6)
        n = rng.randint(0, n_max)
        m = start + n - 2 * rng.randint(0, n)
        q = PathQuery((start, 0), m, n, arr)
        dp = dp_count(q)

        enum_total = sum(p.weight for p in iter_paths(q))
        report.cells.append(
            Cell("dp_vs_enum", _params(case=i, start=start, m=m, n=n), dp, enum_total)
        )

        t = rng.randint(-5, 5)
        shifted = dp_count(PathQuery((start + t, 0), m + t, n, arr.shifted(t)))
        report.cells.append(
            Cell("translation", _params(case=i, shift=t, m=m, n=n), shifted, dp)
        )

        report.cells.append(
            Cell("nonnegative", _params(case=i, m=m, n=n), dp, max(dp, 0))
        )
    return report
