"""Acceptance suite: the full exact-equivalence grids, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) and
enforces its wall-clock budget.  All comparisons are exact integer
equality; there is no tolerance anywhere.
"""

import time

import pytest

from filterpaths.cli import main as cli_main
from filterpaths.formulas import (
    _right_series,
    _strip1_series,
    multiplicity,
    poly_p,
    poly_q,
    pq_recurrence_check,
    strip_index,
    wall_term,
    wall_two_filters,
)
from filterpaths.model import WeightRule, canonical_arrangement, parse_arrangement
from filterpaths.oracle import (
    DP_MAX_ROWS,
    PathQuery,
    dp_count,
    dp_rows,
    enumerate_paths,
    row_count,
)
from filterpaths.verify import (
    SweepSpec,
    run_lemma_suite,
    run_property_suite,
    run_theorem_suite,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if self.elapsed < self.seconds else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.name}: {status} "
                  f"[{self.elapsed:.1f}s of {self.seconds:.0f}s budget]")
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded budget: {self.elapsed:.1f}s")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL [{self.elapsed:.1f}s]")


def test_criterion_1_lemma_suite():
    with Budget("1 lemma suite", 60):
        spec = SweepSpec(l_values=(2,), n_max=32, d_max=6)
        report = run_lemma_suite(spec)
        assert {c.formula_id for c in report.cells} == {
            "free", "wall_left", "wall_right",
            "filter1_left", "filter1_right", "filter1_neg",
            "filter2_left", "filter2_right", "filter2_neg",
        }
        assert report.mismatches == 0, report.render()


def test_criterion_2_theorem_suite():
    with Budget("2 theorem suite", 120):
        spec = SweepSpec(l_values=(2, 3, 4, 5, 6), n_max=40,
                         d_max=1, strips_max=5, a_max=3, b_max=3)
        report = run_theorem_suite(spec)
        ids = {c.formula_id for c in report.cells}
        assert {"desire1", "desire2", "th3", "th32", "th33", "th4"} <= ids
        assert report.mismatches == 0, report.render()


def test_criterion_3_main_theorem():
    anchors = {(2, 1, 7): 8, (2, 3, 5): 8, (2, 3, 7): 24, (2, 4, 4): 2}
    with Budget("3 main theorem", 180):
        seen_anchors = {}
        for l in (2, 3, 4, 5):
            n_max = 48
            strips_cap = 5 * l - 2  # last column of strip 5
            for n, row in enumerate(dp_rows(0, n_max, canonical_arrangement(l, n_max))):
                for m in range(n % 2, min(n, strips_cap) + 1, 2):
                    value = multiplicity(l, m, n)
                    assert value == row_count(row, 0, m), (l, m, n)
                    if (l, m, n) in anchors:
                        seen_anchors[(l, m, n)] = value
        assert seen_anchors == anchors
        # re-derive the anchors with the second, exhaustive oracle
        for (l, m, n), want in anchors.items():
            arr = canonical_arrangement(l, n)
            total = sum(p.weight for p in enumerate_paths(PathQuery((0, 0), m, n, arr)))
            assert total == want, (l, m, n)


def test_criterion_4_literal_negative_control(tmp_path, capsys):
    with Budget("4 negative control", 60):
        spec = SweepSpec(l_values=(2,), n_max=8, d_max=1,
                         semantics=WeightRule.LITERAL)
        report = run_lemma_suite(spec)
        control = [
            c for c in report.mismatch_cells()
            if c.formula_id == "filter2_right"
            and dict(c.parameters) == {"d": 1, "m": 2, "n": 4}
        ]
        assert len(control) == 1
        assert (control[0].formula_value, control[0].oracle_value) == (8, 12)
        code = cli_main([
            "compare", "--l", "2", "--n-max", "8", "--d-max", "1",
            "--suite", "lemmas", "--semantics", "literal",
            "--out", str(tmp_path / "literal.json"),
        ])
        capsys.readouterr()
        assert code == 1


def test_criterion_5_pq_families():
    with Budget("5 p/q families", 5):
        assert pq_recurrence_check(12, 30) is None
        assert all(poly_p(2, k) == 1 for k in range(31))
        assert all(poly_q(2, k) == 0 for k in range(31))


def test_criterion_6_oracle_properties():
    with Budget("6 oracle properties", 120):
        report = run_property_suite(seed=20260808, cases=200, n_max=20)
        assert report.total == 600  # dp-vs-enum, translation, nonnegativity
        assert report.mismatches == 0, report.render()
        for l in (2, 3, 4, 5):
            for n in range(0, 49):
                for m in range(n % 2, min(n, 5 * l - 2) + 1, 2):
                    j = strip_index(l, m)
                    if j >= 2:
                        assert multiplicity(l, m, n) % 2 ** (j - 2) == 0, (l, m, n)


def test_criterion_7_series_difference_identity():
    # Formal identity between the two wall-plus-filter series: evaluated on
    # the right-of-filter range m >= l-1, their difference telescopes to the
    # left-start sum (below that range extra nonvanishing terms break it).
    with Budget("7 series identity", 60):
        for l in (2, 3, 4, 5):
            for n in range(0, 41):
                for m in range(l - 1 + (n - l + 1) % 2, n + 1, 2):
                    difference = _strip1_series(l, m, n) - _right_series(l, m, n)
                    expected = sum(
                        wall_term(m - 2 * k * l, n)
                        for k in range(1, (n + l) // (2 * l) + 1)
                    )
                    assert difference == expected, (l, m, n)


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("family", ["mj", "wall_two_filters"])
def test_criterion_8_very_large_n(family, l):
    # Scaling probes up to the DP's row limit: mj in strip 5 on the periodic
    # arrangement, wall_two_filters between its filters.  Both endpoints
    # sit left of a filter, so dp_count keeps only the few columns left of
    # it and its time is linear in n: all four n together take about
    # 0.05 s (2-core Xeon); the budget leaves room for a slow host.
    with Budget(f"8 very large n, {family} l={l}", 3):
        for n in (500, 1000, 2000, DP_MAX_ROWS):
            if family == "mj":
                m = 4 * l
                arr = canonical_arrangement(l, n)
                want = multiplicity(l, m, n)
            else:
                m = l + l % 2
                arr = parse_arrangement(f"W@0;F1@{l - 1};F2@{2 * l - 1}")
                want = wall_two_filters(l, m, n)
            assert (m + n) % 2 == 0 and want > 0
            assert dp_count(PathQuery((0, 0), m, n, arr)) == want, n
