"""Sweep harness: clean runs, the literal-mode negative control, reports."""

import dataclasses
import functools
import hashlib
import json
import random
from itertools import groupby
from operator import attrgetter

import pytest

from filterpaths import formulas, verify
from filterpaths.model import Arrangement, WeightRule
from filterpaths.oracle import DP_MAX_ROWS, ENUM_MAX_ROWS, PathQuery, dp_count, dp_rows, row_count
from filterpaths.verify import (
    Cell,
    Lane,
    SweepSpec,
    run_lemma_suite,
    run_property_suite,
    run_theorem_suite,
)


def _cells_digest(cells) -> str:
    """sha256 over the cells' (formula_id, parameters, formula_value,
    oracle_value) rows, as the benchmark digests a sweep."""
    h = hashlib.sha256()
    for fid, params, fv, ov in cells:
        ps = ",".join(f"{k}={v}" for k, v in params)
        h.update(f"{fid}\t{ps}\t{fv}\t{ov}\n".encode())
    return h.hexdigest()


SMALL = SweepSpec(l_values=(2, 3), n_max=12, d_max=2, strips_max=3, a_max=1, b_max=1)


def _cells_by_endpoint(spec, rows):
    """The sweep one cell at a time, the reference for `verify._sweep`: one
    `Cell`, one `value` call and one `row_count` per endpoint."""
    lanes, stream_of = [], {}
    for grid, group in groupby(rows, attrgetter("grid")):
        group = tuple(group)
        for g in verify._values(spec, grid):
            for row in group:
                arr = Arrangement(row.restrictions(spec, g), spec.semantics)
                for i in verify._values(spec, row.index):
                    start = row.start(g, i)
                    s = stream_of.setdefault((start, arr), len(stream_of))
                    fixed = tuple((k, v) for k, v in ((row.index, i), (grid, g)) if k)
                    lanes.append((row, g, fixed, tuple(v for _, v in fixed), start, s, []))
    streams = [dp_rows(start, spec.n_max, arr) for start, arr in stream_of]
    for n, dp in enumerate(zip(*streams)):
        for row, g, fixed, values, start, s, cells in lanes:
            lo, hi = row.m_range(spec, g, n)
            counts, value, fid = dp[s], row.value, row.id
            cells += [Cell(fid, (*fixed, ("m", m), ("n", n)), value(formulas, *values, m, n),
                           row_count(counts, start, m))
                      for m in range(lo + (n - lo) % 2, hi + 1, 2)]
    return [c for *_, cells in lanes for c in cells]


def _as_dict(report):
    """The report as the document `to_json` encodes, built cell by cell."""
    return {
        "cells": [
            {
                "formula_id": c.formula_id,
                "parameters": dict(c.parameters),
                "formula_value": str(c.formula_value),
                "oracle_value": str(c.oracle_value),
                "match": c.match,
            }
            for c in report.cells
        ],
        "summary": {"total": report.total, "mismatches": report.mismatches},
    }


def _csv_by_cell(report):
    """`to_csv`'s text built cell by cell."""
    lines = ["formula_id,parameters,formula_value,oracle_value,match"]
    for c in report.cells:
        params = " ".join(f"{k}={v}" for k, v in c.parameters)
        lines.append(f"{c.formula_id},{params},{c.formula_value},{c.oracle_value},"
                     f"{str(c.match).lower()}")
    return "\n".join(lines) + "\n"


def _report(*lanes):
    return verify.CompareReport(list(lanes))


# Mismatches in three lanes, split by matching cells and by a clean lane.
SPREAD = _report(
    Lane("free", (), 9, -3, [1, 2, 3, 4, 5, 6, 7], [1, 0, 0, 0, 0, 0, 0]),
    Lane("wall_left", (("d", 2),), 9, -1, [4, 4], [4, 4]),
    Lane("th32", (("a", 1), ("l", 2)), 10, 1, [5, 6, 7, 8, 9, 10, 11, 12],
         [0, 0, 0, 8, 0, 0, 0, 0]),
    Lane("mj", (("l", 3),), 11, 1, [*range(20, 30)], [*range(21, 31)]),
)
REPORTS = [
    verify.CompareReport(),
    run_lemma_suite(SweepSpec(l_values=(2,), n_max=8, d_max=2, semantics=WeightRule.LITERAL)),
    _report(Lane('say "\u00e9t\u00e9"\\\n', (("\u00e9", 7),), 5, -3, [10**40, 0], [-2, 0]),
            Lane("free", (), 0, 0, [1], [1])),
    SPREAD,
]
REPORT_IDS = ["empty", "literal-mismatches", "escapes", "mismatches-in-several-lanes"]


class TestLemmaSuite:
    def test_clean_under_landing_semantics(self):
        report = run_lemma_suite(SMALL)
        assert report.total > 500
        assert report.mismatches == 0

    def test_covers_every_formula(self):
        ids = {c.formula_id for c in run_lemma_suite(SMALL).cells}
        assert ids == {
            "free", "wall_left", "wall_right",
            "filter1_left", "filter1_right", "filter1_neg",
            "filter2_left", "filter2_right", "filter2_neg",
        }

    def test_literal_semantics_flags_filter2_cells(self):
        spec = SweepSpec(l_values=(2,), n_max=8, d_max=2,
                         semantics=WeightRule.LITERAL)
        report = run_lemma_suite(spec)
        assert report.mismatches > 0
        bad_ids = {c.formula_id for c in report.mismatch_cells()}
        assert bad_ids <= {"filter2_right", "filter2_neg"}
        control = [
            c for c in report.mismatch_cells()
            if c.formula_id == "filter2_right"
            and dict(c.parameters) == {"d": 1, "m": 2, "n": 4}
        ]
        assert len(control) == 1
        assert control[0].formula_value == 8
        assert control[0].oracle_value == 12

    def test_trivial_grid(self):
        report = run_lemma_suite(SweepSpec(l_values=(2,), n_max=0, d_max=1))
        assert report.mismatches == 0


class TestTheoremSuite:
    def test_clean_small_grid(self):
        report = run_theorem_suite(SMALL)
        assert report.mismatches == 0
        ids = {c.formula_id for c in report.cells}
        assert ids == {"desire1", "desire2", "th3", "th32", "th33", "th4", "mj"}

    def test_known_cell_value(self):
        spec = SweepSpec(l_values=(2,), n_max=9, d_max=1, strips_max=2)
        report = run_theorem_suite(spec)
        cell = [c for c in report.cells
                if c.formula_id == "mj" and dict(c.parameters) == {"l": 2, "m": 1, "n": 9}]
        assert len(cell) == 1
        assert cell[0].formula_value == cell[0].oracle_value == 16

    def test_deterministic(self):
        assert run_theorem_suite(SMALL) == run_theorem_suite(SMALL)


class TestPropertySuite:
    def test_clean_and_reproducible(self):
        a = run_property_suite(seed=1, cases=60)
        b = run_property_suite(seed=1, cases=60)
        assert a.mismatches == 0
        assert a == b

    def test_seed_changes_cells(self):
        a = run_property_suite(seed=1, cases=30)
        b = run_property_suite(seed=2, cases=30)
        assert a != b

    def test_cases_validated(self):
        with pytest.raises(ValueError):
            run_property_suite(seed=1, cases=0)

    @pytest.mark.parametrize("n_max", [-1, ENUM_MAX_ROWS + 1, 30])
    def test_n_max_refused_before_any_case(self, n_max, monkeypatch):
        def no_case(q):
            raise AssertionError("a case ran")

        monkeypatch.setattr(verify, "dp_count", no_case)
        monkeypatch.setattr(verify, "enum_weight", no_case)
        with pytest.raises(ValueError, match="n_max"):
            run_property_suite(seed=1, cases=5, n_max=n_max)

    def test_n_max_zero_allowed(self):
        report = run_property_suite(seed=1, cases=5, n_max=0)
        assert report.total == 15 and report.mismatches == 0


class TestReports:
    def test_json_schema_and_decimal_strings(self):
        report = run_lemma_suite(SweepSpec(l_values=(2,), n_max=6, d_max=1))
        doc = json.loads(report.to_json())
        assert set(doc) == {"cells", "summary"}
        assert doc["summary"] == {"total": report.total, "mismatches": 0}
        cell = doc["cells"][0]
        assert set(cell) == {"formula_id", "parameters", "formula_value",
                             "oracle_value", "match"}
        assert isinstance(cell["formula_value"], str)
        assert isinstance(cell["oracle_value"], str)
        int(cell["formula_value"])  # decimal string

    def test_summary_counts_mismatches(self):
        spec = SweepSpec(l_values=(2,), n_max=8, d_max=1,
                         semantics=WeightRule.LITERAL)
        report = run_lemma_suite(spec)
        doc = json.loads(report.to_json())
        assert doc["summary"]["mismatches"] == report.mismatches > 0
        flagged = [c for c in doc["cells"] if not c["match"]]
        assert len(flagged) == report.mismatches

    @pytest.mark.parametrize("report", REPORTS, ids=REPORT_IDS)
    def test_to_json_is_the_indented_encoding(self, report):
        text = report.to_json()
        assert text == json.dumps(_as_dict(report), indent=2)
        assert ('"match": false' in text) == (report.mismatches > 0)

    @pytest.mark.parametrize("report", REPORTS, ids=REPORT_IDS)
    def test_to_csv_is_the_cell_by_cell_text(self, report):
        assert report.to_csv() == _csv_by_cell(report)

    def test_csv_shape(self):
        report = run_lemma_suite(SweepSpec(l_values=(2,), n_max=4, d_max=1))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "formula_id,parameters,formula_value,oracle_value,match"
        assert len(lines) == report.total + 1

    def test_render_mentions_counts(self):
        report = run_lemma_suite(SweepSpec(l_values=(2,), n_max=4, d_max=1))
        text = report.render()
        assert f"cells: {report.total}" in text
        assert "mismatches: 0" in text

    def test_render_lists_the_first_mismatches_then_the_rest_count(self):
        cells = [verify.Cell("free", (("m", m), ("n", 9)), m, m + 1) for m in range(25)]
        cells.insert(3, verify.Cell("free", (("m", 1), ("n", 1)), 1, 1))
        report = verify.CompareReport()
        report.cells = cells
        lines = report.render().splitlines()
        assert lines[0] == "cells: 26   mismatches: 25"
        assert lines[1:-1] == [f"  MISMATCH free [m={m} n=9] formula={m} oracle={m + 1}"
                               for m in range(verify.RENDER_MAX_MISMATCHES)]
        assert lines[-1] == "  ... and 5 more"

    def test_render_caps_mismatches_that_span_lanes(self):
        """6 + 7 + 10 mismatches in three lanes, then 3 in a fourth: the cap
        falls inside the third lane, and the rest counts its last 3 and the
        fourth lane's."""
        report = _report(*SPREAD.lanes, Lane("th4", (("l", 2),), 12, 1, [0, 1, 2], [3, 4, 5]))
        lines = report.render().splitlines()
        assert lines[0] == "cells: 30   mismatches: 26"
        assert lines[1:7] == [f"  MISMATCH free [m={m} n=9] formula={(m + 5) // 2} oracle=0"
                              for m in range(-1, 11, 2)]
        assert lines[7:14] == [f"  MISMATCH th32 [a=1 l=2 m={m} n=10] formula={(m + 9) // 2} "
                               f"oracle=0" for m in range(1, 16, 2) if m != 7]
        assert lines[14:21] == [f"  MISMATCH mj [l=3 m={m} n=11] formula={20 + m // 2} "
                                f"oracle={21 + m // 2}" for m in range(1, 14, 2)]
        assert lines[21:] == ["  ... and 6 more"]

    def test_cells_view_and_assignment(self):
        assert [tuple(c) for c in SPREAD.lanes[1].cells()] == [
            ("wall_left", (("d", 2), ("m", m), ("n", 9)), 4, 4) for m in (-1, 1)]
        assert SPREAD.cells == [c for lane in SPREAD.lanes for c in lane.cells()]
        assert SPREAD.total == len(SPREAD.cells) == 27
        assert SPREAD.mismatches == sum(not c.match for c in SPREAD.cells) == 23
        report = verify.CompareReport()
        report.cells = SPREAD.cells
        assert report.cells == SPREAD.cells and len(report.lanes) == 27
        assert report.to_json() == SPREAD.to_json()
        with pytest.raises(ValueError, match="m and n"):
            report.cells = [Cell("free", (("n", 1), ("m", 1)), 0, 0)]


class TestLanesAgainstCells:
    """The lane sweep's `cells` against the sweep one cell at a time."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(),
        SweepSpec(n_max=0),
        SweepSpec(n_max=1),
        SweepSpec(l_values=(3,), n_max=30, d_max=4, strips_max=7, a_max=2, b_max=2),
        SweepSpec(l_values=(2, 5), n_max=20, semantics=WeightRule.LITERAL),
    ], ids=["default", "n_max-0", "n_max-1", "single-l", "literal"])
    @pytest.mark.parametrize("rows", [verify.LEMMAS, verify.THEOREMS], ids=["lemmas", "theorems"])
    def test_same_cells(self, spec, rows):
        report = verify._sweep(spec, rows)
        assert report.cells == _cells_by_endpoint(spec, rows)
        assert report.mismatches == sum(not c.match for c in report.cells)

    def test_no_cell_and_no_row_count_in_the_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built per endpoint")

        monkeypatch.setattr(verify, "Cell", refuse)
        monkeypatch.setattr(verify, "row_count", refuse, raising=False)
        report = run_theorem_suite(SMALL)
        report.extend(run_lemma_suite(SMALL))
        assert report.total > 1000 and report.mismatches == 0

    @pytest.mark.parametrize("m0, count", [
        (-9, 3), (-9, 6), (-9, 12), (-3, 2), (-1, 4), (1, 3), (5, 4), (7, 2), (9, 3),
    ])
    @pytest.mark.parametrize("start", [0, -2, 1])
    def test_oracle_values_are_the_row_counts(self, m0, count, start):
        n = 6
        row = [10 + k for k in range(n + 1)]
        ms = range(m0, m0 + 2 * count, 2)
        assert verify._oracle_values(row, start, n, ms) == [row_count(row, start, m) for m in ms]


class TestSweepSpecValidation:
    def test_negative_n_max(self):
        with pytest.raises(ValueError):
            SweepSpec(n_max=-1)

    def test_l_below_two(self):
        with pytest.raises(ValueError):
            SweepSpec(l_values=(1,))

    def test_d_max_below_one(self):
        with pytest.raises(ValueError):
            SweepSpec(d_max=0)

    @pytest.mark.parametrize("field, value", [
        ("a_max", -1),
        ("b_max", -1),
        ("strips_max", 0),
    ])
    def test_field_below_floor(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("l_values", (2, 2)),  # a repeated l would sweep its cells twice
        ("n_max", DP_MAX_ROWS + 1),
    ])
    def test_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec(**{field: value})


class TestFormulaTable:
    def test_every_row_matches_the_dp_at_large_n(self):
        """Each row's closed form against `dp_count` on its own arrangement
        and start, at seeded draws of n up to 1500: far past the sweeps'
        n_max, over every one-way-column layout of the table."""
        rng = random.Random(21)
        spec = SweepSpec()
        checked = 0
        for row in verify.FORMULAS:
            for _ in range(6):
                g = rng.choice(verify._values(spec, row.grid))
                i = rng.choice(verify._values(spec, row.index))
                ms = range(0)
                while not ms:
                    n = rng.randint(0, 1500)
                    lo, hi = row.m_range(SweepSpec(n_max=n), g, n)
                    ms = range(lo + (n - lo) % 2, hi + 1, 2)
                m = rng.choice(ms)
                fixed = [v for k, v in ((row.index, i), (row.grid, g)) if k]
                arr = Arrangement(row.restrictions(SweepSpec(n_max=n), g))
                want = dp_count(PathQuery((row.start(g, i), 0), m, n, arr))
                assert row.value(formulas, *fixed, m, n) == want, (row.id, fixed, m, n)
                checked += 1
        assert checked == 6 * len(verify.FORMULAS) == 96

    @pytest.mark.parametrize("suite, calls", [
        (run_lemma_suite, 37),  # filter{1,2}_left/right share a stream per d
        (run_theorem_suite, 44),  # th3 and th32 at a=0 share a stream per l
    ])
    def test_consecutive_rows_share_one_table(self, monkeypatch, suite, calls):
        seen = []
        real = verify.dp_rows

        def spy(start_x, n_rows, arr):
            seen.append((start_x, arr))
            return real(start_x, n_rows, arr)

        monkeypatch.setattr(verify, "dp_rows", spy)
        suite(SweepSpec())
        assert len(seen) == calls
        assert len(set(seen)) == calls

    @pytest.mark.parametrize("n_max", [0, 7, 48])
    def test_each_pascal_row_built_once(self, n_max):
        formulas._row.cache_clear()
        run_theorem_suite(SweepSpec(n_max=n_max))
        assert formulas._row.cache_info().misses == n_max + 1

    @pytest.mark.parametrize("semantics, mismatches, digest", [
        (WeightRule.LANDING, 0,
         "a1268ec45a84b7507c5fb3e0ade375647b5a4b2d63f85eea14743dc7cbe54acf"),
        (WeightRule.LITERAL, 381,
         "49daf4927a38ecbab3e9c572302d018632d404760936224caeda22890bac5f0b"),
    ])
    def test_report_bytes_golden(self, semantics, mismatches, digest):
        spec = SweepSpec(l_values=(2, 3), n_max=16, d_max=3, a_max=2, b_max=2,
                         semantics=semantics)
        report = run_lemma_suite(spec)
        report.extend(run_theorem_suite(spec))
        assert (report.total, report.mismatches) == (2768, mismatches)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_each_lane_built_once(self, monkeypatch):
        """The sweep builds each running sum (l, n, sign), ballot row n and mj
        lane (l, j, n) once, and the rows with a lane make no `value` call."""
        built = {"_row_sums": [], "_ballot_row": [], "_mj_lane": []}

        def counting(name):
            build = getattr(formulas, name).__wrapped__

            def spy(*key):
                built[name].append(key)
                return build(*key)
            return functools.lru_cache(maxsize=1)(spy)

        def no_value(*args):
            raise AssertionError(f"a lane row made a value call {args}")

        for name in built:
            monkeypatch.setattr(formulas, name, counting(name))
        laned = [row.id for row in verify.THEOREMS if row.lane]
        assert {"desire2", "th3", "th32", "th33", "mj"} <= set(laned)
        monkeypatch.setattr(verify, "THEOREMS", tuple(
            dataclasses.replace(row, value=no_value) if row.lane else row
            for row in verify.THEOREMS))
        cells = run_theorem_suite(SweepSpec()).cells
        at = [(c.formula_id, dict(c.parameters)) for c in cells]
        sums = {(p["l"], p["n"], 1 if fid == "desire2" else -1)
                for fid, p in at if fid in ("desire2", "th3", "th32", "th33")}
        strips = {(p["l"], formulas.strip_index(p["l"], p["m"]), p["n"])
                  for fid, p in at if fid == "mj"}
        assert sorted(built["_row_sums"]) == sorted(sums)
        assert sorted(built["_ballot_row"]) == sorted({(n,) for l, j, n in strips if j >= 2})
        assert sorted(built["_mj_lane"]) == sorted(s for s in strips if s[1] >= 2)

    def test_theorem_sweep_cells_golden(self):
        """The theorem-sweep benchmark's pass, cell for cell, against its stored digest."""
        cells = run_theorem_suite(SweepSpec(n_max=200)).cells
        assert len(cells) == 60977
        assert _cells_digest(cells) == "42232b4c16ca415e656e615927ddfa109d2bf5a218e4ad00826708849728ccf1"

    @pytest.mark.parametrize("seed, digest", [
        (0, "ec5d22ccd26d744d41c71ce5c0eece69c9bf9437f422c87711e905cdb370f82a"),
        (508, "d509d16821a355b7b622acaf6d770b2d16b818d125c3d94974824ab12b6e6bbb"),
    ])
    def test_compare_sweep_cells_golden(self, seed, digest):
        """The compare-sweep benchmark's pass for two property seeds, cell for
        cell, against its stored digest; the property cells' oracle values
        come from `enum_weight`."""
        report = run_lemma_suite(SweepSpec())
        report.extend(run_theorem_suite(SweepSpec()))
        report.extend(run_property_suite(seed, 100))
        assert len(report.cells) == 39818
        assert _cells_digest(report.cells) == digest
