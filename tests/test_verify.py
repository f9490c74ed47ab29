"""Sweep harness: clean runs, the literal-mode negative control, reports."""

import hashlib
import json

import pytest

from filterpaths import verify
from filterpaths.model import WeightRule
from filterpaths.oracle import DP_MAX_ROWS
from filterpaths.verify import (
    SweepSpec,
    run_lemma_suite,
    run_property_suite,
    run_theorem_suite,
)

SMALL = SweepSpec(l_values=(2, 3), n_max=12, d_max=2, strips_max=3, a_max=1, b_max=1)


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

    @pytest.mark.parametrize("report", [
        verify.CompareReport(),
        run_lemma_suite(SweepSpec(l_values=(2,), n_max=8, d_max=2,
                                  semantics=WeightRule.LITERAL)),
        verify.CompareReport([
            verify.Cell('say "\u00e9t\u00e9"\\\n', (("m", -3), ("\u00e9", 7)), 10**40, -2),
            verify.Cell("free", (), 0, 0),
        ]),
    ], ids=["empty", "literal-mismatches", "escapes-and-no-parameters"])
    def test_to_json_is_the_indented_encoding(self, report):
        text = report.to_json()
        assert text == json.dumps(report.as_dict(), indent=2)
        assert ('"match": false' in text) == (report.mismatches > 0)

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


class TestSweepSpecValidation:
    def test_negative_n_max(self):
        with pytest.raises(ValueError):
            SweepSpec(n_max=-1).check()

    def test_l_below_two(self):
        with pytest.raises(ValueError):
            SweepSpec(l_values=(1,)).check()

    def test_d_max_below_one(self):
        with pytest.raises(ValueError):
            SweepSpec(d_max=0).check()

    @pytest.mark.parametrize("field, value", [
        ("a_max", -1),
        ("b_max", -1),
        ("strips_max", 0),
    ])
    def test_field_below_floor(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec(**{field: value}).check()

    @pytest.mark.parametrize("field, value", [
        ("l_values", (2, 2)),  # a repeated l would sweep its cells twice
        ("n_max", DP_MAX_ROWS + 1),
    ])
    def test_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SweepSpec(**{field: value}).check()


class TestFormulaTable:
    @pytest.mark.parametrize("suite, calls", [
        (run_lemma_suite, 37),  # filter{1,2}_left/right share a table per d
        (run_theorem_suite, 44),  # th3 and th32 at a=0 share a table per l
    ])
    def test_consecutive_rows_share_one_table(self, monkeypatch, suite, calls):
        seen = []
        real = verify.count_table

        def spy(start_x, n_rows, arr):
            seen.append((start_x, arr))
            return real(start_x, n_rows, arr)

        monkeypatch.setattr(verify, "count_table", spy)
        suite(SweepSpec())
        assert len(seen) == calls
        assert all(a != b for a, b in zip(seen, seen[1:]))

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
