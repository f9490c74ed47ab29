"""Closed forms: frozen desk values, domain guards, and oracle spot checks.

Expected values were independently re-derived by exhaustive path
enumeration before being frozen here; the small formula-vs-oracle sweeps
at the end guard the same equalities continuously (the full grids run in
the acceptance suite).
"""

import importlib.util
import inspect
import math
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings, strategies as st

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
from filterpaths.oracle import PathQuery, dp_count, dp_rows, row_count


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


# The evaluators that read the cached Pascal row; m = 1 takes an odd row.
ROW_READERS = {**{i: EVALUATORS[i] for i in ("desire1", "desire2", "th3", "th32", "th33",
                                             "th4", "mj")},
               "wall_term": lambda n: wall_term(1, n)}


@pytest.mark.parametrize("name", ROW_READERS)
def test_rows_above_the_limit_are_refused_before_building(name):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="FORMULA_MAX_ROW"):
            ROW_READERS[name](formulas.FORMULA_MAX_ROW + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _cold_peak(fn, *args):
    """fn(*args) and the peak bytes it allocates, with every row cache empty."""
    for cache in (formulas._row, formulas._row_sums, formulas._ballot_row, formulas._pq,
                  formulas._mj_lane):
        cache.cache_clear()
    tracemalloc.start()
    try:
        value = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def test_large_row_memory_stays_small():
    value, peak = _cold_peak(wall_filter_right, 2, 2, 10000)
    assert value > 0
    assert peak < 16 * 2**20


def test_large_row_multiplicity_memory_stays_small():
    value, peak = _cold_peak(multiplicity, 2, 9, 10001)
    assert value > 0
    assert peak < 8 * 2**20


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

    def test_series_is_the_paper_sum(self):
        """`_mj_lane`'s coefficient lists, running sums of A(x), equal `_poly`."""
        for j in range(2, 61):
            for odd in (0, 1):
                want = [formulas._poly(j, k, odd) for k in range(61)]
                assert formulas._pq_series(j, odd, 61) == want, (j, odd)
        assert formulas._pq_series(7, 1, 0) == formulas._pq_series(7, 1, -2) == []

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

    def test_far_strip_is_fast_from_a_cold_cache(self):
        for cache in (formulas._row, formulas._mj_lane, formulas._poly):
            cache.cache_clear()
        t0 = time.perf_counter()
        value = multiplicity(2, 999, 4999)  # strip 501
        assert time.perf_counter() - t0 < 0.5
        assert value > 0

    def test_work_budget(self):
        """Strip 1000 on row 10001 (l = 2) is the first over the budget: j*K = 1000 * 1001."""
        assert 999 * 1001 <= formulas.MJ_MAX_WORK < 1000 * 1001
        for cache in (formulas._ballot_row, formulas._pq, formulas._mj_lane):
            cache.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="MJ_MAX_WORK"):
                multiplicity(2, 1997, 10001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert formulas._ballot_row.cache_info().currsize == 0
        value = multiplicity(2, 1995, 10001)  # strip 999 runs
        assert value > 0 and value % 2 ** 997 == 0

    @pytest.mark.parametrize("l, m, n", [(2, 201, 2001), (3, 400, 2000), (5, 600, 2500)])
    def test_far_strips_match_the_dp(self, l, m, n):
        assert strip_index(l, m) > 100
        assert multiplicity(l, m, n) == dp_count(PathQuery((0, 0), m, n, canonical_arrangement(l, n)))

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
            for n, row in enumerate(dp_rows(0, 14, Arrangement((restriction,)))):
                for m in m_range(n):
                    if (n - m) % 2 == 0:
                        assert formula(m, n) == row_count(row, 0, m), (restriction, m, n)

    def test_multiplicity_grid(self):
        for l in (2, 3):
            for n, row in enumerate(dp_rows(0, 18, canonical_arrangement(l, 18))):
                for m in range(n % 2, n + 1, 2):
                    assert multiplicity(l, m, n) == row_count(row, 0, m), (l, m, n)


# -- slow-path reference ------------------------------------------------------
#
# The series evaluated term by term, one `binom` call per term, with an
# uncached `_poly`: no Pascal row.  `_reference_module()` loads a second copy
# of formulas.py and swaps these bodies in (their globals rebound to the copy),
# so every public function of the copy keeps the shared domain checks and
# differs from `formulas` only in how the series are evaluated.


def _ref_wall_term(m, n):
    if n < 0:
        raise DomainError(f"row must be >= 0, got {n}")
    if (n - m) % 2:
        return 0
    h = (n - m) // 2
    return binom(n, h) - binom(n, h - 1)


def _ref__one_image(m, n, shift, sign=-1):
    if n < 0:
        raise DomainError(f"row must be >= 0, got {n}")
    if (n - m) % 2:
        return 0
    return count_free(m, n) + sign * binom(n, (n - m) // 2 + shift)


def _ref__strip1_series(l, m, n):
    total = wall_term(m, n)
    for k in range(1, (n + l) // (2 * l) + 1):
        total += wall_term(m - 2 * k * l, n)
    for k in range(1, n // (2 * l) + 1):
        total += wall_term(m + 2 * k * l, n)
    return total


def _ref__right_series(l, m, n):
    total = wall_term(m, n)
    for k in range(1, (n - l + 1) // (2 * l) + 1):
        total += wall_term(m + 2 * k * l, n)
    return total


def _ref__two_filter_series(i, s, l, m, n):
    _check_strip2(l, m)  # noqa: F821 - resolved in the reference module
    if n < 0:
        raise DomainError(f"row must be >= 0, got {n}")
    total = 0
    for k in range(i, (n - l + 1 - s) // (2 * l) + 1):
        total += (-1) ** (k - i) * count_free(m + 2 * k * l + s, n)
    for k in range(i, (n - s) // (2 * l)):
        total -= (-1) ** (k - i) * count_free(m - 2 * (k + 2) * l + 2 - s, n)
    return total


def _ref_wall_two_filters(l, m, n):
    _check_strip2(l, m)  # noqa: F821
    if n < 0:
        raise DomainError(f"row must be >= 0, got {n}")
    total = 0
    for k in range(0, (n - l + 1) // (4 * l) + 1):
        total += wall_term(m + 4 * k * l, n)
    for k in range(0, (n - 2 * l) // (4 * l) + 1):
        total += wall_term(m - 4 * k * l - 4 * l, n)
    return total


def _ref__poly(j, k, odd):
    if j < 2:
        raise DomainError(f"strip index must be >= 2, got {j}")
    if k < 0:
        raise DomainError(f"term index must be >= 0, got {k}")
    total = 0
    for i in range(0, j // 2 + 1):
        c = binom(j - 2, 2 * i + odd)
        if c:
            total += c * binom(k - i + j - 2, j - 2)
    return total


def _ref_multiplicity(l, m, n):
    j = strip_index(l, m)
    if (m + n) % 2:
        raise DomainError(f"(m + n) must be even, got m={m}, n={n}")
    if m > n:
        raise DomainError(f"column {m} unreachable by row {n}")
    if j == 1:
        return wall_filter_strip1(l, m, n)
    total = 0
    for k in range(0, (n - (j - 1) * l + 1) // (4 * l) + 1):
        total += poly_p(j, k) * wall_term(m + 4 * k * l, n)
    for k in range(0, (n - j * l) // (4 * l) + 1):
        total += poly_p(j, k) * wall_term(m - 4 * k * l - 2 * j * l, n)
    for k in range(0, (n - (j + 1) * l + 1) // (4 * l) + 1):
        total -= poly_q(j, k) * wall_term(m + 2 * l + 4 * k * l, n)
    for k in range(0, (n - (j + 2) * l) // (4 * l) + 1):
        total -= poly_q(j, k) * wall_term(m - 4 * k * l - 2 * (j + 1) * l, n)
    return 2 ** (j - 2) * total


def _no_lane(*args):
    raise AssertionError(f"the slow path read a lane {args}")


def _reference_module():
    spec = importlib.util.spec_from_file_location("_formulas_reference", formulas.__file__)
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    ref.DomainError, ref.InvalidN = DomainError, InvalidN
    for fn in (_ref_wall_term, _ref__one_image, _ref__strip1_series, _ref__right_series,
               _ref__two_filter_series, _ref_wall_two_filters, _ref__poly, _ref_multiplicity):
        name = fn.__name__.removeprefix("_ref_")
        setattr(ref, name, types.FunctionType(fn.__code__, vars(ref), name, fn.__defaults__))
    # the slow path must not read a running sum, a ballot row or a lane
    ref._row_sums = ref._ballot_row = ref._mj_lane = _no_lane
    return ref


REFERENCE = _reference_module()

# Every public function with the number of small parameters it takes before
# (m, n); binom takes (n, m), strip_index (l, m) and the p/q forms (j, n).
PUBLIC = {
    "binom": 0, "count_free": 0, "wall_term": 0, "wall_left": 1, "wall_right": 1,
    "filter1_left": 1, "filter1_right": 1, "filter1_neg": 1, "filter2_left": 1,
    "filter2_right": 1, "filter2_neg": 1, "wall_filter_strip1": 1, "wall_filter_right": 1,
    "two_filters": 1, "two_filters_from_even": 2, "two_filters_from_odd": 2,
    "wall_two_filters": 1, "poly_p": 1, "poly_q": 1, "pq_recurrence_check": 1,
    "strip_index": 1, "multiplicity": 1,
}
PQ = ("poly_p", "poly_q", "pq_recurrence_check")
SMALL = range(-1, 7)


def test_reference_covers_every_public_function():
    public = {name for name, obj in vars(formulas).items()
              if inspect.isfunction(obj) and not name.startswith("_")}
    assert public == set(PUBLIC)


def _outcome(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message must agree too
        return type(exc), str(exc)


def _differences(name, calls):
    out = []
    for args in calls:
        new = _outcome(getattr(formulas, name), args)
        old = _outcome(getattr(REFERENCE, name), args)
        if new != old or type(new) is not type(old):
            out.append((args, new, old))
    return out


def _args(name, small, m, n):
    """One call of a public function from its small parameters, m and n."""
    if name == "binom":
        return (n, m)
    if name == "strip_index":
        return (small[0], m)
    if name in PQ:
        return (small[0], n)
    return (*small[:PUBLIC[name]], m, n)


def _grid(name, n):
    """Each small parameter in SMALL (start indices in -1..2 and 5), m over ±(n + 6)."""
    if name in PQ:
        return [(j, n) for j in SMALL] if name != "pq_recurrence_check" or n <= 12 else []
    heads = {0: [()], 1: [(p,) for p in SMALL],
             2: [(i, p) for i in (-1, 0, 1, 2, 5) for p in SMALL]}[PUBLIC[name]]
    return [_args(name, head, m, n) for head in heads for m in range(-n - 6, n + 7)]


@pytest.mark.parametrize("name", PUBLIC)
def test_matches_slow_path_on_grid(name):
    calls = [args for n in [*range(-2, 61), 97, 150, 203] for args in _grid(name, n)]
    assert _differences(name, calls) == []


@given(st.sampled_from(sorted(PUBLIC)), st.tuples(st.integers(-1, 8), st.integers(-1, 8)),
       st.integers(-410, 410), st.integers(-2, 400))
@settings(max_examples=300, deadline=None)
def test_matches_slow_path_on_random_rows(name, small, m, n):
    if name == "pq_recurrence_check":
        n %= 40  # k_max: the check walks every (j, k) below it
    assert _differences(name, [_args(name, small, m, n)]) == []


@pytest.mark.parametrize("name, small, m", [
    ("wall_term", (), -7), ("wall_term", (), 1000), ("wall_filter_strip1", (5,), 2),
    ("wall_filter_right", (2,), 2), ("wall_filter_right", (3,), 500),
    ("two_filters", (3,), 3), ("two_filters_from_even", (2, 4), 4),
    ("two_filters_from_odd", (1, 3), 4), ("wall_two_filters", (2,), 1),
    ("multiplicity", (2,), 6), ("multiplicity", (3,), 9),
])
def test_matches_slow_path_at_large_rows(name, small, m):
    assert _differences(name, [_args(name, small, m, n) for n in (2000, 2001)]) == []


# One call: which lane reader, indices into the example's l and n pools, m, a
# strip (for the two-filter forms, the start index), and whether m is moved
# onto n's parity.
TWO_FILTERS = ("two_filters", "two_filters_from_even", "two_filters_from_odd")
LANE_CALL = st.tuples(st.sampled_from(("wall_filter_right", "multiplicity", *TWO_FILTERS)),
                      st.integers(0, 2), st.integers(0, 2), st.integers(-3, 420),
                      st.integers(0, 9), st.booleans())
LARGE_ROWS = [("wall_filter_right", 0, 0, 2, 0, True), ("multiplicity", 1, 0, 0, 2, True),
              ("wall_filter_right", 1, 0, 2, 0, True), ("multiplicity", 0, 1, 1, 2, True),
              ("wall_filter_right", 0, 1, 300, 0, True), ("multiplicity", 0, 0, 1, 3, True),
              ("wall_filter_right", 0, 0, 1999, 0, False), ("multiplicity", 1, 1, 2, 3, True),
              ("two_filters", 0, 0, 1, 0, True), ("two_filters_from_odd", 1, 1, 2, 4, True),
              ("two_filters_from_even", 0, 1, 0, 1, True), ("two_filters", 1, 1, 2, 0, True)]


@given(st.lists(st.integers(1, 7), min_size=2, max_size=3),
       st.lists(st.integers(-2, 400), min_size=1, max_size=3),
       st.lists(LANE_CALL, min_size=2, max_size=20))
@example([2, 3], [2000, 2001], LARGE_ROWS)
@settings(max_examples=150, deadline=None)
def test_lanes_match_the_slow_path_in_any_call_order(ls, ns, calls):
    """Interleaved (l, n): a one-entry lane cache must never answer for another key."""
    for name, li, ni, m, strip, on_parity in calls:
        l, n = ls[li % len(ls)], ns[ni % len(ns)]
        if name == "multiplicity":  # m in the strip, or one past it: two l share strips
            m = (strip - 1) * l - 1 + m % (l + 1)
        elif name in TWO_FILTERS:  # m in strip 2
            m = l - 1 + m % l
        m += on_parity * ((n - m) % 2)
        start = (strip,) if name in TWO_FILTERS[1:] else ()
        assert _differences(name, [(*start, l, m, n)]) == []


@given(st.integers(-30, 30), st.integers(0, 40), st.integers(-6, 6).filter(bool),
       st.integers(-25, 25), st.integers(-25, 25), st.sampled_from((1, -1)))
@settings(max_examples=300)
def test_free_sum_is_the_termwise_sum(m, n, half_d, k0, k1, sign):
    d = 2 * half_d
    expected = sum(sign ** (k - k0) * count_free(m + k * d, n) for k in range(k0, k1 + 1))
    assert formulas._free_sum(m, n, d, k0, k1, sign) == expected


@given(st.integers(1, 9), st.integers(0, 60), st.sampled_from((1, -1)))
@example(5, 0, 1)
@example(3, 1, -1)
@example(8, 9, -1)  # l > n // 2: the sums are the row itself
@settings(max_examples=200)
def test_row_sums_are_the_termwise_sums(l, n, sign):
    want = [sum(sign ** k * binom(n, x - k * l) for k in range(x // l + 1))
            for x in range(n // 2 + 1)]
    assert formulas._row_sums(l, n, sign) == tuple(want)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 41, 2001])
def test_ballot_row_is_wall_term(n):
    assert formulas._ballot_row(n) == tuple(wall_term(n - 2 * x, n) for x in range(n // 2 + 2))


def test_row_cache_keeps_one_row():
    wall_filter_right(2, 2, 2000)
    assert wall_term(1, 3) == 2
    info = formulas._row.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    assert formulas._row(3) == (1, 3, 3, 1)


def test_new_row_drops_the_running_sums():
    two_filters(3, 3, 2001)
    assert formulas._row_sums.cache_info().currsize == 1
    wall_term(1, 3)  # builds row 3: no running sum of row 2001 outlives it
    assert formulas._row_sums.cache_info().currsize == 0
