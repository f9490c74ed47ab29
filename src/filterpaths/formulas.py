"""Closed-form evaluators for restricted-walk counts.

Every function returns an exact Python int.  The reflection-style sums
treat out-of-range binomials as 0 and evaluate signed terms literally,
including negative values of `wall_term`; both conventions are load
bearing for the alternating sums.

Conventions shared by all counting functions: walks start at (0, 0)
(except where a start offset is an explicit argument), end at column m on
row n, and a count of 0 is returned for parity-impossible endpoints
rather than an error.  A negative row n raises `DomainError` in every
evaluator.  A type-2 filter counts like a type-1 filter except to its
right, so `filter2_left` and `filter2_neg` are the type-1 forms.

`wall_term`, the series forms and `multiplicity` read `_row(n)`, the
Pascal row C(n, 0..n), cached for the last n only (a sweep walks m inside
n) and shared by every caller: never mutate it.  A series over every
2l-th or 4l-th column is one strided slice of it (`_free_sum`).  Rows
above `FORMULA_MAX_ROW` raise `DomainError` before one is built; `binom`,
`count_free` and the one-image forms build no row and have no limit.
"""

from __future__ import annotations

import functools
import math

# Largest row `_row` builds: at 50,000 it takes 116 MiB and 0.5 s (its size grows as n^2).
FORMULA_MAX_ROW = 50_000


class InvalidN(ValueError):
    """Binomial with negative upper index."""


class DomainError(ValueError):
    """Arguments outside a formula's stated domain."""


def binom(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention: 0 when k < 0 or k > n."""
    if n < 0:
        raise InvalidN(f"upper index must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _require(value: int, floor: int, what: str) -> None:
    if value < floor:
        raise DomainError(f"{what} must be >= {floor}, got {value}")


def count_free(m: int, n: int) -> int:
    """Unrestricted walks from (0,0) to (m, n)."""
    _require(n, 0, "row")
    if (n - m) % 2:
        return 0
    return binom(n, (n - m) // 2)


@functools.lru_cache(maxsize=1)
def _row(n: int) -> tuple[int, ...]:
    """C(n, 0..n), shared by every caller on row n; never mutate it."""
    _require(n, 0, "row")
    if n > FORMULA_MAX_ROW:
        raise DomainError(f"row must be <= FORMULA_MAX_ROW = {FORMULA_MAX_ROW}, got {n}")
    half = [1]
    for k in range(n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    return tuple(half + half[::-1][1 - n % 2:])


def _free_sum(m: int, n: int, d: int, k0: int, k1: int, sign: int = 1) -> int:
    """Sum of sign**(k - k0) * count_free(m + k*d, n) over k0 <= k <= k1, d even, d != 0."""
    row = _row(n)
    if d < 0:  # count_free is even in m
        m, d = -m, -d
    h0, e = (n - m) // 2, d // 2
    # term k is row[h0 - k*e]; those inside the row, lo <= k <= hi, are one strided slice
    lo, hi = max(k0, -((n - h0) // e)), min(k1, h0 // e)
    if (n - m) % 2 or lo > hi:
        return 0
    start, stop = h0 - hi * e, h0 - lo * e + 1  # row[start] is term hi
    total = sum(row[start:stop:2 * e]) + sign * sum(row[start + e:stop:2 * e])
    return sign ** (hi - k0) * total


def wall_term(m: int, n: int) -> int:
    """Signed reflection term C(n,(n-m)/2) - C(n,(n-m)/2-1).

    Equals the walk count with a one-way column at 0 when m >= 0; for
    other m it is evaluated literally (possibly negative) because the
    multi-restriction reflection sums rely on the signed values.
    """
    row, h = _row(n), (n - m) // 2
    if (n - m) % 2:
        return 0
    return (row[h] if 0 <= h <= n else 0) - (row[h - 1] if 1 <= h <= n + 1 else 0)


def _one_image(m: int, n: int, shift: int, sign: int = -1) -> int:
    """Free count plus one signed image: C(n, (n-m)/2) + sign*C(n, (n-m)/2 + shift)."""
    return count_free(m, n) + sign * count_free(m - 2 * shift, n)


def wall_left(a: int, m: int, n: int) -> int:
    """Walks with a single rightward one-way column at a <= 0."""
    if a > 0:
        raise DomainError(f"left wall axis must be <= 0, got {a}")
    if m < a:
        raise DomainError(f"endpoint {m} lies left of the wall at {a}")
    return _one_image(m, n, a - 1)


def wall_right(b: int, m: int, n: int) -> int:
    """Walks with a single leftward one-way column at b >= 0."""
    if b < 0:
        raise DomainError(f"right wall axis must be >= 0, got {b}")
    if m > b:
        raise DomainError(f"endpoint {m} lies right of the wall at {b}")
    return _one_image(m, n, b + 1)


def filter1_left(d: int, m: int, n: int) -> int:
    """Type-1 filter at d >= 1, endpoint left of it (m < d)."""
    _require(d, 1, "filter axis parameter")
    if m >= d:
        raise DomainError(f"endpoint {m} not left of the filter at {d}")
    return _one_image(m, n, d)


def filter1_right(d: int, m: int, n: int) -> int:
    """Type-1 filter at d >= 1, endpoint right of or on it (m >= d)."""
    _require(d, 1, "filter axis parameter")
    if m < d:
        raise DomainError(f"endpoint {m} not right of the filter at {d}")
    return count_free(m, n)


def filter1_neg(d: int, m: int, n: int) -> int:
    """Type-1 filter at -d, d >= 1; walk starts and ends right of it.

    The extra term counts unrestricted walks from (-2d, 0), hence the
    minus-d shift inside the binomial.
    """
    _require(d, 1, "filter axis parameter")
    if m < -d:
        raise DomainError(f"endpoint {m} lies left of the filter at {-d}")
    return _one_image(m, n, -d, +1)


# A type-2 filter counts like a type-1 filter except to its right.
filter2_left = filter1_left
filter2_neg = filter1_neg


def filter2_right(d: int, m: int, n: int) -> int:
    """Type-2 filter at d >= 1, endpoint strictly right of it (m > d)."""
    _require(d, 1, "filter axis parameter")
    if m <= d:
        raise DomainError(f"endpoint {m} not strictly right of the filter at {d}")
    return 2 * count_free(m, n)


def _strip1_series(l: int, m: int, n: int) -> int:
    """The strip-1 reflection series, evaluated formally at any (m, n)."""
    k0, k1 = -((n + l) // (2 * l)), n // (2 * l)
    return _free_sum(m, n, 2 * l, k0, k1) - _free_sum(m + 2, n, 2 * l, k0, k1)


def _right_series(l: int, m: int, n: int) -> int:
    """The right-of-filter reflection series, evaluated formally."""
    k1 = max(0, (n - l + 1) // (2 * l))
    return _free_sum(m, n, 2 * l, 0, k1) - _free_sum(m + 2, n, 2 * l, 0, k1)


def wall_filter_strip1(l: int, m: int, n: int) -> int:
    """Wall at 0 plus type-1 filter at l-1; endpoint in strip 1 (m <= l-2)."""
    _require(l, 2, "period parameter")
    if not 0 <= m <= l - 2:
        raise DomainError(f"endpoint {m} outside strip 1 for l={l}")
    return _strip1_series(l, m, n)


def wall_filter_right(l: int, m: int, n: int) -> int:
    """Wall at 0 plus type-1 filter at l-1; endpoint right of it (m > l-2)."""
    _require(l, 2, "period parameter")
    if m <= l - 2:
        raise DomainError(f"endpoint {m} not right of the filter at {l - 1}")
    return _right_series(l, m, n)


def _check_strip2(l: int, m: int) -> None:
    _require(l, 2, "period parameter")
    if not l - 1 <= m < 2 * l - 1:
        raise DomainError(f"endpoint {m} outside [{l - 1}, {2 * l - 1}) for l={l}")


def _two_filter_series(i: int, s: int, l: int, m: int, n: int) -> int:
    """Filters at l-1 (type 1) and 2l-1 (type 2), start (-2*i*l - s, 0), s in {0, 2}.

    With s = 2 the start sits two columns left of the even-start family, so
    its reflected images land two columns further right (column m + 2kl + 2).
    """
    _check_strip2(l, m)
    return (_free_sum(m + s, n, 2 * l, i, (n - l + 1 - s) // (2 * l), -1)
            - _free_sum(m - 4 * l + 2 - s, n, -2 * l, i, (n - s) // (2 * l) - 1, -1))


def two_filters(l: int, m: int, n: int) -> int:
    """Filters at l-1 (type 1) and 2l-1 (type 2), no wall; endpoint between."""
    return _two_filter_series(0, 0, l, m, n)


def two_filters_from_even(a: int, l: int, m: int, n: int) -> int:
    """Same two filters, walk starting from (-2*a*l, 0) with a >= 0."""
    _require(a, 0, "start index")
    return _two_filter_series(a, 0, l, m, n)


def two_filters_from_odd(b: int, l: int, m: int, n: int) -> int:
    """Same two filters, walk starting from (-2*b*l - 2, 0) with b >= 0."""
    _require(b, 0, "start index")
    return _two_filter_series(b, 2, l, m, n)


def wall_two_filters(l: int, m: int, n: int) -> int:
    """Wall at 0 plus filters at l-1 and 2l-1; endpoint between the filters."""
    _check_strip2(l, m)
    # images m + 4kl and m - 4(k+1)l for k >= 0: one run of k
    k0, k1 = -((n - 2 * l) // (4 * l) + 1), (n - l + 1) // (4 * l)
    return _free_sum(m, n, 4 * l, k0, k1) - _free_sum(m + 2, n, 4 * l, k0, k1)


@functools.lru_cache(maxsize=4096, typed=True)
def _poly(j: int, k: int, odd: int) -> int:
    """Sum over i of C(j-2, 2i + odd) * C(k - i + j - 2, j - 2)."""
    _require(j, 2, "strip index")
    _require(k, 0, "term index")
    total = 0
    for i in range(0, j // 2 + 1):
        c = binom(j - 2, 2 * i + odd)
        if c:
            total += c * binom(k - i + j - 2, j - 2)
    return total


def poly_p(j: int, k: int) -> int:
    """Plus-family coefficient of the periodic-arrangement count."""
    return _poly(j, k, 0)


def poly_q(j: int, k: int) -> int:
    """Minus-family coefficient of the periodic-arrangement count."""
    return _poly(j, k, 1)


def pq_recurrence_check(j_max: int, k_max: int):
    """Verify the p/q families against their defining recurrences.

    p_{j+1}(k) = sum(p_j(0..k)) + sum(q_j(0..k-1)) and
    q_{j+1}(k) = sum(p_j(0..k)) + sum(q_j(0..k)), checked for
    2 <= j < j_max, 0 <= k <= k_max.  Returns None when everything holds,
    otherwise the first counterexample as (family, j, k, closed, recurrence).
    """
    _require(j_max, 3, "j_max")
    for j in range(2, j_max):
        sp, sq = 0, 0
        for k in range(0, k_max + 1):
            sp += poly_p(j, k)
            lhs_q = poly_q(j + 1, k)
            if lhs_q != sp + sq + poly_q(j, k):
                return ("q", j + 1, k, lhs_q, sp + sq + poly_q(j, k))
            lhs_p = poly_p(j + 1, k)
            if lhs_p != sp + sq:
                return ("p", j + 1, k, lhs_p, sp + sq)
            sq += poly_q(j, k)
    return None


def strip_index(l: int, m: int) -> int:
    """Index of the strip [(j-1)l - 1, jl - 1) containing column m >= 0."""
    _require(l, 2, "period parameter")
    _require(m, 0, "column")
    return (m + 1) // l + 1


def multiplicity(l: int, m: int, n: int) -> int:
    """Weighted walks from the origin to (m, n) in the periodic arrangement.

    The arrangement is the wall at 0, the type-1 filter at l-1 and type-2
    filters at nl-1 for n >= 2.  Dispatches on the strip index: strip 1
    reduces to `wall_filter_strip1`; strips j >= 2 use the p/q families
    with prefactor 2^(j-2).
    """
    j = strip_index(l, m)
    if (m + n) % 2:
        raise DomainError(f"(m + n) must be even, got m={m}, n={n}")
    if m > n:
        raise DomainError(f"column {m} unreachable by row {n}")
    if j == 1:
        return wall_filter_strip1(l, m, n)
    total = 0
    for s, sign, poly in ((0, 1, poly_p), (1, -1, poly_q)):  # each: images right, then left
        for k in range(0, (n - (j - 1 + 2 * s) * l + 1) // (4 * l) + 1):
            total += sign * poly(j, k) * wall_term(m + 2 * s * l + 4 * k * l, n)
        for k in range(0, (n - (j + 2 * s) * l) // (4 * l) + 1):
            total += sign * poly(j, k) * wall_term(m - 4 * k * l - 2 * (j + s) * l, n)
    return 2 ** (j - 2) * total
