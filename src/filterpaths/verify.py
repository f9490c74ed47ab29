"""Differential-verification harness.

Sweeps parameter grids, evaluates every closed form against the DP
oracle, and assembles a deterministic machine-readable report.  The
report is stored a lane at a time: a `Lane` is one formula with fixed
parameters on one row n, its endpoints m0, m0 + 2, ... and two lists of
values, the closed form's and the oracle's.  `CompareReport.cells` spells
the lanes out as one `Cell` per endpoint, on demand.  The report's
integer fields serialize as decimal strings so arbitrarily large counts
survive any consumer.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from itertools import count, groupby
from operator import attrgetter, ne
from typing import Callable, Iterable, NamedTuple

from . import formulas
from .model import (
    Arrangement,
    Kind,
    Restriction,
    WeightRule,
    canonical_arrangement,
    validate,
)
from .oracle import DP_MAX_ROWS, ENUM_MAX_ROWS, PathQuery, dp_count, dp_rows, enum_weight

RENDER_MAX_MISMATCHES = 20  # mismatch lines `CompareReport.render` lists before "... and N more"


@dataclass(frozen=True)
class SweepSpec:
    l_values: tuple[int, ...] = (2, 3, 4, 5)
    n_max: int = 48
    d_max: int = 6
    strips_max: int = 5
    a_max: int = 3
    b_max: int = 3
    semantics: WeightRule = WeightRule.LANDING

    def __post_init__(self) -> None:
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


class Cell(NamedTuple):
    formula_id: str
    parameters: tuple[tuple[str, int], ...]
    formula_value: int
    oracle_value: int

    @property
    def match(self) -> bool:
        return self.formula_value == self.oracle_value


class Lane(NamedTuple):
    """Endpoint m0 + 2i of one formula with fixed parameters on row n: the
    closed form's value formula_values[i], the oracle's oracle_values[i].
    Its cells' parameters are the fixed ones, then ("m", m), ("n", n)."""

    formula_id: str
    fixed: tuple[tuple[str, int], ...]
    n: int
    m0: int
    formula_values: list[int]
    oracle_values: list[int]

    def cells(self) -> list[Cell]:
        fid, fixed, n = self.formula_id, self.fixed, self.n
        return [Cell(fid, (*fixed, ("m", m), ("n", n)), fv, ov)
                for m, fv, ov in zip(count(self.m0, 2), self.formula_values, self.oracle_values)]


@dataclass
class CompareReport:
    """A report's cells, stored as `Lane`s in report order.

    `total`, `mismatches`, `mismatch_cells` and the three texts (`render`,
    `to_csv`, `to_json`) read the lanes; only `cells` and
    `mismatch_cells` build `Cell`s, the latter for mismatching endpoints.
    """

    lanes: list[Lane] = field(default_factory=list)

    @property
    def cells(self) -> list[Cell]:
        """Every endpoint of every lane as a `Cell`, built on each read.

        Assigning a list of cells replaces the lanes, one lane per cell;
        each cell's parameters must end in ("m", m), ("n", n).
        """
        return [c for lane in self.lanes for c in lane.cells()]

    @cells.setter
    def cells(self, cells: Iterable[Cell]) -> None:
        lanes = []
        for fid, params, fv, ov in cells:
            *fixed, (m_key, m), (n_key, n) = params
            if (m_key, n_key) != ("m", "n"):
                raise ValueError(f"cell parameters must end in m and n, got {params}")
            lanes.append(Lane(fid, tuple(fixed), n, m, [fv], [ov]))
        self.lanes = lanes

    @property
    def total(self) -> int:
        return sum(len(lane.formula_values) for lane in self.lanes)

    @property
    def mismatches(self) -> int:
        return sum(sum(map(ne, lane.formula_values, lane.oracle_values)) for lane in self.lanes)

    def mismatch_cells(self) -> list[Cell]:
        return [c for lane in self.lanes if lane.formula_values != lane.oracle_values
                for c in lane.cells() if not c.match]

    def extend(self, other: "CompareReport") -> None:
        self.lanes.extend(other.lanes)

    def to_json(self) -> str:
        """`json.dumps(d, indent=2)` of the report's dict d, written a lane at a time.

        d is {"cells": [...], "summary": {"total": ..., "mismatches": ...}},
        one entry per cell: its formula_id, its parameters as an object,
        formula_value and oracle_value as decimal strings, and match.  A
        lane's text before m (the id and fixed parameters) and between m
        and the formula value (its n) is made once; then each endpoint is
        one f-string.  Strings (ids, parameter names) go through
        `json.dumps`, each distinct one once, so their escaping is the
        encoder's; the rest are ints.
        """
        q = functools.cache(json.dumps)
        cells = []
        for fid, fixed, n, m0, fvs, ovs in self.lanes:
            params = "".join(f"{q(k)}: {v},\n        " for k, v in fixed)
            head = f'    {{\n      "formula_id": {q(fid)},\n      "parameters": {{\n        {params}"m": '
            mid = f',\n        "n": {n}\n      }},\n      "formula_value": "'
            cells += [f'{head}{m}{mid}{fv}",\n      "oracle_value": "{ov}",\n'
                      f'      "match": {"true" if fv == ov else "false"}\n    }}'
                      for m, fv, ov in zip(count(m0, 2), fvs, ovs)]
        cells = "[\n" + ",\n".join(cells) + "\n  ]" if cells else "[]"
        return (f'{{\n  "cells": {cells},\n  "summary": {{\n    "total": {self.total},\n'
                f'    "mismatches": {self.mismatches}\n  }}\n}}')

    def to_csv(self) -> str:
        lines = ["formula_id,parameters,formula_value,oracle_value,match"]
        for fid, fixed, n, m0, fvs, ovs in self.lanes:
            head = f"{fid}," + "".join(f"{k}={v} " for k, v in fixed) + "m="
            lines += [f"{head}{m} n={n},{fv},{ov},{'true' if fv == ov else 'false'}"
                      for m, fv, ov in zip(count(m0, 2), fvs, ovs)]
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        bad = self.mismatch_cells()
        lines = [f"cells: {self.total}   mismatches: {len(bad)}"]
        for c in bad[:RENDER_MAX_MISMATCHES]:
            params = " ".join(f"{k}={v}" for k, v in c.parameters)
            lines.append(
                f"  MISMATCH {c.formula_id} [{params}] "
                f"formula={c.formula_value} oracle={c.oracle_value}"
            )
        rest = len(bad) - RENDER_MAX_MISMATCHES
        if rest > 0:
            lines.append(f"  ... and {rest} more")
        return "\n".join(lines) + "\n"


def _rs(*pairs: tuple[Kind, int]) -> tuple[Restriction, ...]:
    return tuple(Restriction(kind, axis) for kind, axis in pairs)


@dataclass(frozen=True)
class Formula:
    """One closed form and the grid that checks it against the DP oracle.

    Per grid value g (of `grid`: "d", "l", or "" for none) and start index
    i (of `index`, if any), the DP runs from column `start(g, i)` under
    `restrictions(spec, g)` and row n's endpoints span `m_range(spec, g, n)`.
    `value(f, *fixed, m, n)` evaluates the closed form via the module f,
    where fixed is (i, g) with the absent ones left out, the order of a
    cell's parameters.  Where given, `lane(f, *fixed, ms, n)` evaluates
    every endpoint of the range ms at once, as a slice of a closed-form
    lane that `value` reads too; the sweep then makes no `value` call.
    """

    id: str
    grid: str
    restrictions: Callable[..., tuple[Restriction, ...]]
    m_range: Callable[..., tuple[int, int]]
    value: Callable[..., int]
    index: str = ""
    start: Callable[[int, int], int] = lambda g, i: 0
    lane: Callable[..., list[int]] | None = None


W, WR, F1, F2 = Kind.WALL_LEFT, Kind.WALL_RIGHT, Kind.FILTER1, Kind.FILTER2
_LEFT_OF = lambda s, d, n: (-n, min(d - 1, n))
_NEG = lambda s, d, n: (max(-d, -n), n)
_WALL_FILTER = lambda s, l: _rs((W, 0), (F1, l - 1))
_PAIR = lambda s, l: _rs((F1, l - 1), (F2, 2 * l - 1))
_STRIP2 = lambda s, l, n: (l - 1, min(2 * l - 2, n))


def _mj_values(f, l: int, ms: range, n: int) -> list[int]:
    """mj at every m in ms, which runs from column 0 or 1 to the end of a strip or to n.

    Strip 1 is one `multiplicity` call per m (it reduces to
    `wall_filter_strip1`); each later strip j is all of `_mj_lane(l, j, n)`.
    """
    values = [f.multiplicity(l, m, n) for m in range(ms[0], min(l - 2, ms[-1]) + 1, 2)]
    for j in range(2, f.strip_index(l, ms[-1]) + 1):
        values += f._mj_lane(l, j, n)
    return values


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
            lambda f, l, m, n: f.wall_filter_right(l, m, n),
            lane=lambda f, l, ms, n: f._right_values(l, ms, n)),
    Formula("th3", "l", _PAIR, _STRIP2, lambda f, l, m, n: f.two_filters(l, m, n),
            lane=lambda f, l, ms, n: f._two_filter_values(0, 0, l, ms, n)),
    Formula("th32", "l", _PAIR, _STRIP2,
            lambda f, a, l, m, n: f.two_filters_from_even(a, l, m, n),
            index="a", start=lambda l, a: -2 * a * l,
            lane=lambda f, a, l, ms, n: f._two_filter_values(a, 0, l, ms, n)),
    Formula("th33", "l", _PAIR, _STRIP2,
            lambda f, b, l, m, n: f.two_filters_from_odd(b, l, m, n),
            index="b", start=lambda l, b: -2 * b * l - 2,
            lane=lambda f, b, l, ms, n: f._two_filter_values(b, 2, l, ms, n)),
    Formula("th4", "l", lambda s, l: _rs((W, 0), (F1, l - 1), (F2, 2 * l - 1)), _STRIP2,
            lambda f, l, m, n: f.wall_two_filters(l, m, n)),
    Formula("mj", "l", lambda s, l: canonical_arrangement(l, s.n_max).restrictions,
            lambda s, l, n: (0, min(s.strips_max * l - 2, n)),
            lambda f, l, m, n: f.multiplicity(l, m, n), lane=_mj_values),
)

FORMULAS = LEMMAS + THEOREMS


def _values(spec: SweepSpec, name: str):
    """The values a sweep parameter takes; the empty name is a single pass."""
    return {"l": spec.l_values, "d": range(1, spec.d_max + 1),
            "a": range(spec.a_max + 1), "b": range(spec.b_max + 1)}.get(name, (None,))


def _oracle_values(row: list, start: int, n: int, ms: range) -> list[int]:
    """`row_count(row, start, m)` for every m in ms: one slice of the stream's
    row n, zero-padded where ms leaves the row or its parity."""
    k0, odd = divmod(ms[0] - start + n, 2)
    k1 = k0 + len(ms)
    if odd or k1 <= 0 or k0 >= len(row):
        return [0] * len(ms)
    return [0] * -k0 + row[max(k0, 0):k1] + [0] * (k1 - len(row))


def _sweep(spec: SweepSpec, rows: tuple[Formula, ...]) -> CompareReport:
    """Every row's lanes, all rows per grid value, in table order.

    Each (row, grid value, start index) gives one lane per row n; those
    with the same start and arrangement read one `dp_rows` stream.  n is
    the outer loop: row n of every stream is taken, then every lane on
    row n is made, so each stream holds one row and the closed forms build
    each Pascal row once.  A lane's endpoints m, m + 2, ... are
    neighbouring cells of its stream's row, so its oracle values are one
    slice of it; its formula values are one `Formula.lane` call, or one
    positional `value` call per m.  The lanes are joined in table order.
    """
    plan, stream_of = [], {}
    for grid, group in groupby(rows, attrgetter("grid")):
        group = tuple(group)
        for g in _values(spec, grid):
            for row in group:
                arr = Arrangement(row.restrictions(spec, g), spec.semantics)
                for i in _values(spec, row.index):
                    start = row.start(g, i)
                    s = stream_of.setdefault((start, arr), len(stream_of))
                    fixed = tuple((k, v) for k, v in ((row.index, i), (grid, g)) if k)
                    plan.append((row, g, fixed, tuple(v for _, v in fixed), start, s, []))
    streams = [dp_rows(start, spec.n_max, arr) for start, arr in stream_of]
    for n, dp in enumerate(zip(*streams)):
        for row, g, fixed, values, start, s, lanes in plan:
            lo, hi = row.m_range(spec, g, n)
            ms = range(lo + (n - lo) % 2, hi + 1, 2)
            if not ms:
                continue
            if row.lane:
                fv = row.lane(formulas, *values, ms, n)
            else:
                value = row.value
                fv = [value(formulas, *values, m, n) for m in ms]
            lanes.append(Lane(row.id, fixed, n, ms[0], fv, _oracle_values(dp[s], start, n, ms)))
    return CompareReport([lane for *_, lanes in plan for lane in lanes])


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

    Per case: DP vs exhaustive enumeration (`enum_weight`), translation
    invariance of the DP under a random shift, and nonnegativity.  Rows go
    up to n_max, which enumeration caps at ENUM_MAX_ROWS.
    """
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    if not 0 <= n_max <= ENUM_MAX_ROWS:
        raise ValueError(f"n_max must be in 0..{ENUM_MAX_ROWS} (enumeration limit), got {n_max}")
    rng = random.Random(seed)
    report = CompareReport()
    for i in range(cases):
        arr = _random_arrangement(rng)
        start = rng.randint(-6, 6)
        n = rng.randint(0, n_max)
        m = start + n - 2 * rng.randint(0, n)
        q = PathQuery((start, 0), m, n, arr)
        dp = dp_count(q)

        enum_total = enum_weight(q)
        report.lanes.append(Lane("dp_vs_enum", (("case", i), ("start", start)), n, m,
                                 [dp], [enum_total]))

        t = rng.randint(-5, 5)
        shifted = dp_count(PathQuery((start + t, 0), m + t, n, arr.shifted(t)))
        report.lanes.append(Lane("translation", (("case", i), ("shift", t)), n, m,
                                 [shifted], [dp]))

        report.lanes.append(Lane("nonnegative", (("case", i),), n, m, [dp], [max(dp, 0)]))
    return report
