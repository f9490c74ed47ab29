"""Closed forms: frozen desk values, domain guards, and oracle spot checks.

Expected values were independently re-derived by exhaustive path
enumeration before being frozen here; the small formula-vs-oracle sweeps
at the end guard the same equalities continuously (the full grids run in
the acceptance suite).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from filterpaths import formulas
from filterpaths.formulas import (
    DomainError,
    InvalidN,
    binom,
    count_free,
    filter1_left,
    filter1_neg,
    filter1_right,
    filter2_left,
    filter2_neg,
    filter2_right,
    multiplicity,
    poly_p,
    poly_q,
    pq_recurrence_check,
    strip_index,
    two_filters,
    two_filters_from_even,
    two_filters_from_odd,
    wall_filter_right,
    wall_filter_strip1,
    wall_left,
    wall_right,
    wall_term,
    wall_two_filters,
)
from filterpaths.model import Arrangement, Kind, Restriction, canonical_arrangement
from filterpaths.oracle import count_table


class TestBinom:
    def test_basic(self):
        assert binom(5, 2) == 10

    def test_out_of_range_convention(self):
        assert binom(3, -1) == 0
        assert binom(2, 3) == 0

    def test_negative_upper_index(self):
        with pytest.raises(InvalidN):
            binom(-1, 0)

    @given(st.integers(0, 60), st.integers(-5, 65))
    def test_matches_math_comb(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binom(n, k) == expected


class TestFreeAndWallTerm:
    def test_count_free(self):
        assert count_free(1, 3) == 3
        assert count_free(0, 0) == 1
        assert count_free(1, 2) == 0  # parity

    def test_wall_term_counts(self):
        assert wall_term(1, 3) == 2
        assert wall_term(3, 3) == 1

    def test_wall_term_signed_for_negative_columns(self):
        assert wall_term(-7, 5) == -1

    def test_wall_term_parity_zero(self):
        assert wall_term(2, 3) == 0


class TestOneWallFormulas:
    def test_wall_left_at_zero_matches_wall_term(self):
        assert wall_left(0, 1, 3) == 2 == wall_term(1, 3)

    def test_wall_left_shifted(self):
        assert wall_left(-1, 1, 3) == 3

    def test_wall_right(self):
        assert wall_right(1, 0, 2) == 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            wall_left(0, -2, 4)  # endpoint left of wall
        with pytest.raises(DomainError):
            wall_left(1, 2, 4)  # left wall axis must be <= 0
        with pytest.raises(DomainError):
            wall_right(1, 2, 4)  # endpoint right of wall
        with pytest.raises(DomainError):
            wall_right(-1, -2, 4)


class TestOneFilterFormulas:
    def test_filter1_left(self):
        assert filter1_left(1, 0, 4) == 2

    def test_filter1_right(self):
        assert filter1_right(1, 2, 4) == 4

    def test_filter1_neg_uses_prose_shift(self):
        # reflected start (-2d, 0) => minus-d shift; the plus-d variant gives 6
        assert filter1_neg(1, 1, 3) == 4

    def test_filter2_right_doubles(self):
        assert filter2_right(1, 2, 4) == 8

    def test_filter2_neg(self):
        assert filter2_neg(1, 0, 2) == 3
        assert filter2_neg(1, 1, 3) == 4

    def test_end_on_negative_axis_included(self):
        assert filter1_neg(1, -1, 3) == 6
        assert filter2_neg(1, -1, 3) == 6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            filter1_left(1, 1, 3)  # endpoint not left
        with pytest.raises(DomainError):
            filter1_right(2, 1, 3)  # endpoint not right
        with pytest.raises(DomainError):
            filter2_right(1, 1, 3)  # strictly right required
        with pytest.raises(DomainError):
            filter1_neg(1, -3, 3)  # endpoint left of the filter
        for fn in (filter1_left, filter1_right, filter1_neg,
                   filter2_left, filter2_right, filter2_neg):
            with pytest.raises(DomainError):
                fn(0, 1, 3)  # axis parameter must be >= 1


class TestWallFilterFormulas:
    def test_strip1_values(self):
        assert wall_filter_strip1(2, 0, 2) == 0
        assert wall_filter_strip1(3, 1, 3) == 1
        assert wall_filter_strip1(5, 1, 1) == 1

    def test_right_values(self):
        assert wall_filter_right(2, 2, 4) == 3
        assert wall_filter_right(3, 3, 3) == 1
        assert wall_filter_right(2, 2, 2) == 1

    def test_domains(self):
        with pytest.raises(DomainError):
            wall_filter_strip1(2, 1, 3)
        with pytest.raises(DomainError):
            wall_filter_right(3, 1, 3)
        with pytest.raises(DomainError):
            wall_filter_strip1(1, 0, 2)


class TestTwoFilterFormulas:
    def test_two_filters_values(self):
        assert two_filters(2, 1, 1) == 1
        assert two_filters(2, 1, 3) == 3
        assert two_filters(3, 2, 2) == 1

    def test_from_even_reduces_to_base_at_zero(self):
        for l in (2, 3, 4):
            for n in range(0, 21):
                for m in range(l - 1, 2 * l - 1):
                    assert two_filters_from_even(0, l, m, n) == two_filters(l, m, n)

    def test_from_odd_calibrated_shift(self):
        # start (-2, 0): the single surviving walk is RRR
        assert two_filters_from_odd(0, 2, 1, 3) == 1
        assert two_filters_from_odd(0, 2, 1, 5) == 5

    def test_wall_two_filters_bounce_weights(self):
        assert wall_two_filters(2, 1, 3) == 2
        assert wall_two_filters(2, 1, 5) == 4
        assert wall_two_filters(2, 1, 7) == 8

    def test_domains(self):
        with pytest.raises(DomainError):
            two_filters(2, 3, 5)
        with pytest.raises(DomainError):
            two_filters_from_even(-1, 2, 1, 3)
        with pytest.raises(DomainError):
            two_filters_from_odd(-1, 2, 1, 3)
        with pytest.raises(DomainError):
            wall_two_filters(2, 0, 4)


# One in-domain call per formula id, with the row left free.
EVALUATORS = {
    "free": lambda n: count_free(0, n),
    "wall_left": lambda n: wall_left(0, 1, n),
    "wall_right": lambda n: wall_right(0, 0, n),
    "filter1_left": lambda n: filter1_left(1, 0, n),
    "filter1_right": lambda n: filter1_right(1, 1, n),
    "filter1_neg": lambda n: filter1_neg(1, 0, n),
    "filter2_left": lambda n: filter2_left(1, 0, n),
    "filter2_right": lambda n: filter2_right(1, 2, n),
    "filter2_neg": lambda n: filter2_neg(1, 0, n),
    "desire1": lambda n: wall_filter_strip1(3, 1, n),
    "desire2": lambda n: wall_filter_right(2, 1, n),
    "th3": lambda n: two_filters(2, 1, n),
    "th32": lambda n: two_filters_from_even(1, 2, 1, n),
    "th33": lambda n: two_filters_from_odd(1, 2, 1, n),
    "th4": lambda n: wall_two_filters(2, 1, n),
    "mj": lambda n: multiplicity(2, 1, n),
}


@pytest.mark.parametrize("formula_id", EVALUATORS)
@pytest.mark.parametrize("n", [-1, -2])
def test_negative_row_raises(formula_id, n):
    with pytest.raises(DomainError):
        EVALUATORS[formula_id](n)


class TestPolyFamilies:
    def test_base_family_constant(self):
        assert all(poly_p(2, k) == 1 for k in range(31))
        assert all(poly_q(2, k) == 0 for k in range(31))

    def test_small_values(self):
        assert poly_p(3, 2) == 3
        assert poly_q(3, 1) == 2
        assert poly_p(4, 1) == 4
        assert poly_q(4, 1) == 6

    def test_recurrence_check_passes(self):
        assert pq_recurrence_check(4, 5) is None
        assert pq_recurrence_check(3, 0) is None

    def test_recurrence_check_domain(self):
        with pytest.raises(DomainError):
            pq_recurrence_check(2, 5)

    def test_poly_domains(self):
        with pytest.raises(DomainError):
            poly_p(1, 0)
        with pytest.raises(DomainError):
            poly_q(2, -1)

    @given(st.integers(2, 9), st.integers(0, 24))
    def test_nondecreasing_in_k(self, j, k):
        assert poly_p(j, k + 1) >= poly_p(j, k)
        assert poly_q(j, k + 1) >= poly_q(j, k)


class TestMultiplicity:
    def test_strip_index(self):
        assert [strip_index(2, m) for m in range(0, 6)] == [1, 2, 2, 3, 3, 4]
        assert strip_index(5, 3) == 1
        assert strip_index(5, 4) == 2

    def test_anchors(self):
        assert multiplicity(2, 1, 7) == 8
        assert multiplicity(2, 3, 5) == 8
        assert multiplicity(2, 3, 7) == 24
        assert multiplicity(2, 4, 4) == 2
        assert multiplicity(2, 1, 9) == 16

    def test_strip1_dispatch(self):
        assert multiplicity(2, 0, 2) == wall_filter_strip1(2, 0, 2) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            multiplicity(2, 3, 6)  # parity
        with pytest.raises(DomainError):
            multiplicity(2, 8, 4)  # past the last reachable column
        with pytest.raises(DomainError):
            multiplicity(2, -1, 3)

    @given(st.integers(2, 5), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_divisible_by_power_prefactor(self, l, n):
        for m in range(n % 2, min(n, 20) + 1, 2):
            j = strip_index(l, m)
            if j >= 2:
                assert multiplicity(l, m, n) % 2 ** (j - 2) == 0


class TestFormulaOracleSpotChecks:
    """Small-grid equalities; acceptance runs the full grids."""

    def test_one_restriction_grid(self):
        cases = [
            (Restriction(Kind.WALL_LEFT, -2), lambda m, n: wall_left(-2, m, n),
             lambda n: range(-2, n + 1)),
            (Restriction(Kind.WALL_RIGHT, 2), lambda m, n: wall_right(2, m, n),
             lambda n: range(-n, 3)),
            (Restriction(Kind.FILTER1, 2), lambda m, n: filter1_left(2, m, n),
             lambda n: range(-n, 2)),
            (Restriction(Kind.FILTER1, 2), lambda m, n: filter1_right(2, m, n),
             lambda n: range(2, n + 1)),
            (Restriction(Kind.FILTER1, -2), lambda m, n: filter1_neg(2, m, n),
             lambda n: range(-2, n + 1)),
            (Restriction(Kind.FILTER2, 2), lambda m, n: filter2_left(2, m, n),
             lambda n: range(-n, 2)),
            (Restriction(Kind.FILTER2, 2), lambda m, n: filter2_right(2, m, n),
             lambda n: range(3, n + 1)),
            (Restriction(Kind.FILTER2, -2), lambda m, n: filter2_neg(2, m, n),
             lambda n: range(-2, n + 1)),
        ]
        for restriction, formula, m_range in cases:
            table = count_table(0, 14, Arrangement((restriction,)))
            for n in range(0, 15):
                for m in m_range(n):
                    if (n - m) % 2 == 0:
                        assert formula(m, n) == table.count(m, n), (restriction, m, n)

    def test_multiplicity_grid(self):
        for l in (2, 3):
            table = count_table(0, 18, canonical_arrangement(l, 18))
            for n in range(0, 19):
                for m in range(n % 2, n + 1, 2):
                    assert multiplicity(l, m, n) == table.count(m, n), (l, m, n)
