"""Closed-form evaluators for restricted-walk counts.

Every function returns an exact Python int.  The reflection-style sums
treat out-of-range binomials as 0 and evaluate signed terms literally,
including negative values of `wall_term`; both conventions are load
bearing for the alternating sums.

Conventions shared by all counting functions: walks start at (0, 0)
(except where a start offset is an explicit argument) and end at column m
on row n; a parity-impossible endpoint counts 0, but `multiplicity` raises
`DomainError` there and for m > n.  A negative row n raises `DomainError`
in every evaluator.  A type-2 filter counts like a type-1 filter except
to its right, so `filter2_left` and `filter2_neg` are the type-1 forms.

`wall_term` and the strip-1 and wall-plus-two-filter series read
`_row(n)`, the Pascal row C(n, 0..n); a series over every 2l-th or 4l-th
column is one strided slice of it (`_free_sum`).  The sweep reads every
lemma a lane at a time from it too: `_image_values` gives the free count
and its one signed image at consecutive endpoints as reversed slices of
the row, while the public lemma evaluators keep `math.comb`.  The other
series read half-row running sums, shared by the public evaluators and
the sweep: `_row_sums(l, n, sign)` holds S[x] = C(n, x) + sign*S[x - l]
for x <= n // 2, so each `wall_filter_right` value is S+[h] - S+[h - 1] and each
two-filter value is two lookups into S- (`_two_filter_values`), at
h = (n - m)/2.  `multiplicity` past strip 1 reads `_mj_lane(l, j, n)`,
every endpoint of strip j at once, from the ballot half row
`_ballot_row(n)` (C(n, x) - C(n, x - 1), built without the Pascal row) and
p/q coefficient lists cached by `_pq`.  The row, sum, ballot and lane
caches keep their last entry only (a sweep evaluates every formula on row
n before row n + 1, and a lane's endpoints one after another), and
building a new Pascal row drops the running sums.  They hand out tuples
shared by every caller.  Rows above `FORMULA_MAX_ROW` raise `DomainError`
before one is built, and so do `multiplicity` strips whose p/q lists
exceed `MJ_MAX_WORK`; `binom`, `count_free` and the one-image forms build
no row and have no limit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import accumulate
from operator import add, mul, sub

# Largest row `_row` and `_ballot_row` build: at 50,000 each takes 116 MiB and 0.3-0.4 s
# (the size grows as n^2).  A running sum read from the Pascal row takes as much again,
# 231 MiB at the peak for desire2 or a two-filter form; mj past strip 1 reads the ballot row
# alone (116 MiB).  A process that keeps all three holds 347 MiB.
FORMULA_MAX_ROW = 50_000
# Largest j*K `multiplicity` takes on in strip j >= 2, K = (n - (j - 1)l + 1)//4l + 1: the
# p/q lists are about j*K big-int additions, and the strip's dot products grow with them.
# At 50,000 rows the slowest strip accepted for l = 2..5 takes 1.0-1.6 s from a cold cache.
MJ_MAX_WORK = 1_000_000


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


def _check_row(n: int) -> None:
    _require(n, 0, "row")
    if n > FORMULA_MAX_ROW:
        raise DomainError(f"row must be <= FORMULA_MAX_ROW = {FORMULA_MAX_ROW}, got {n}")


@functools.lru_cache(maxsize=1)
def _row(n: int) -> tuple[int, ...]:
    """C(n, 0..n), shared by every caller on row n; never mutate it."""
    _check_row(n)
    _row_sums.cache_clear()  # no running sum of the last row outlives it
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


def _image_values(ms: Sequence[int], n: int, shift: int = 0, sign: int = 0) -> list[int]:
    """`_one_image(m, n, shift, sign)` for every m in ms: ascending, step 2, n - m even.

    Sign 0 gives `count_free(m, n)` alone.  At h = (n - m)/2 the value is
    C(n, h) + sign*C(n, h + shift), an index outside 0..n reading 0; h falls
    by one per endpoint, so each term is one zero-padded, reversed slice of
    `_row(n)`.
    """
    row, size = _row(n), len(ms)

    def term(top):  # C(n, top - i) for 0 <= i < size
        lo, hi = max(top - size + 1, 0), min(top, n)
        if lo > hi:
            return [0] * size
        return [0] * (top - hi) + list(reversed(row[lo:hi + 1])) + [0] * (lo + size - 1 - top)

    top = (n - ms[0]) // 2
    if not sign:
        return term(top)
    return list(map(add if sign > 0 else sub, term(top), term(top + shift)))


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


@functools.lru_cache(maxsize=1)
def _row_sums(l: int, n: int, sign: int) -> tuple[int, ...]:
    """S[x] = C(n, x) + sign*S[x - l] for 0 <= x <= n // 2, one tuple per (l, n, sign).

    S[x] is the sum of sign**k * C(n, x - k*l) over x - k*l >= 0: a whole
    series of row cells l apart, down to the row's edge, is one lookup.
    Cached for the last (l, n, sign) only, like `_row`.
    """
    sums = list(_row(n)[:n // 2 + 1])
    if sign > 0:  # two loops: a product by sign would copy each big int once more
        for x in range(l, len(sums)):
            sums[x] += sums[x - l]
    else:
        for x in range(l, len(sums)):
            sums[x] -= sums[x - l]
    return tuple(sums)


def _right_values(l: int, ms: Sequence[int], n: int) -> list[int]:
    """`wall_filter_right(l, m, n)` for every m in ms: ascending, step 2, n - m even,
    l - 1 <= m <= n.

    The series is V[h] = sum of r(h - k*l) over 0 <= k <= max(0, (n - l + 1) // 2l),
    h = (n - m)/2, where r(h) = C(n, h) - C(n, h - 1) is `wall_term(n - 2h, n)`.
    Every k with h - k*l >= 0 is in that range, so V[h] = S+[h] - S+[h - 1]
    with S+ = `_row_sums(l, n, 1)`.
    """
    sums = _row_sums(l, n, 1)
    top, bottom = (n - ms[0]) // 2, (n - ms[-1]) // 2
    below = sums[bottom - 1:top] if bottom else (0, *sums[:top])
    return list(map(sub, sums[bottom:top + 1], below))[::-1]


def _right_series(l: int, m: int, n: int) -> int:
    """The right-of-filter reflection series at an endpoint m >= l - 1."""
    _row_sums(l, n, 1)  # refuses a row out of range before the parity test
    return 0 if (n - m) % 2 or m > n else _right_values(l, (m,), n)[0]


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


def _two_filter_values(i: int, s: int, l: int, ms: Sequence[int], n: int) -> list[int]:
    """`_two_filter_series(i, s, l, m, n)` for every m in ms, each in strip 2 with n - m even.

    The series has two alternating runs of row cells l apart, from C(n, h - il - s/2)
    downwards and from C(n, h + (i + 2)l - 1 + s/2) upwards, h = (n - m)/2.
    For m in strip 2 each run stops just where it leaves the row, so it is
    a whole alternating tail: one lookup into A = `_row_sums(l, n, -1)`.
    The upward run, mirrored by C(n, x) = C(n, n - x), reads A at
    n - h - (i + 2)l + 1 - s/2.  Both indices are <= n // 2; below 0 reads 0.
    """
    sums = _row_sums(l, n, -1)
    down, up = i * l + s // 2, n + 1 - (i + 2) * l - s // 2
    return [(sums[h - down] if h >= down else 0) - (sums[up - h] if up >= h else 0)
            for h in ((n - m) // 2 for m in ms)]


def _two_filter_series(i: int, s: int, l: int, m: int, n: int) -> int:
    """Filters at l-1 (type 1) and 2l-1 (type 2), start (-2*i*l - s, 0), s in {0, 2}.

    With s = 2 the start sits two columns left of the even-start family, so
    its reflected images land two columns further right (column m + 2kl + 2).
    """
    _check_strip2(l, m)
    _row_sums(l, n, -1)  # refuses a row out of range before the parity test
    return 0 if (n - m) % 2 else _two_filter_values(i, s, l, (m,), n)[0]


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
    """Sum over i of C(j-2, 2i + odd) * C(k - i + j - 2, j - 2): the paper's p/q
    definition, which `poly_p`, `poly_q` and so `pq_recurrence_check` read;
    `_mj_lane` reads the same values from `_pq_series`."""
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


def _pq_series(j: int, odd: int, size: int) -> list[int]:
    """`_poly(j, k, odd)` for 0 <= k < size, all at once.

    They are the coefficients of A(x) / (1 - x)^(j - 1), where
    A(x) = sum over i of C(j - 2, 2i + odd) * x^i, since 1 / (1 - x)^(j - 1)
    has the coefficients C(t + j - 2, j - 2); each factor 1 / (1 - x) is
    one running sum.
    """
    cs = [binom(j - 2, 2 * i + odd) for i in range(min(size, j // 2))]  # 0 from i = j/2 on
    cs += [0] * (size - len(cs))
    for _ in range(j - 1):
        cs = list(accumulate(cs))
    return cs


@functools.lru_cache(maxsize=64)
def _pq(j: int, odd: int, size: int) -> tuple[int, ...]:
    """`_pq_series(j, odd, size)` as a shared tuple: the lists do not depend
    on n, so a sweep takes each strip's pair once per size, not once per row."""
    return tuple(_pq_series(j, odd, size))


@functools.lru_cache(maxsize=1)
def _ballot_row(n: int) -> tuple[int, ...]:
    """r[x] = C(n, x) - C(n, x - 1), which is `wall_term(n - 2x, n)`, for 0 <= x <= n//2 + 1.

    Built by its own multiplicative recurrence, so `multiplicity` past
    strip 1 never builds the Pascal row.  Cached for the last n only.
    """
    _check_row(n)
    ballot, c, prev = [], 1, 0
    for x in range(n // 2 + 2):
        ballot.append(c - prev)
        c, prev = c * (n - x) // (x + 1), c
    return tuple(ballot)


@functools.lru_cache(maxsize=1)
def _mj_lane(l: int, j: int, n: int) -> tuple[int, ...]:
    """`multiplicity(l, m, n)` for the columns m <= n of strip j >= 2 with m + n even.

    Entry i is column (j - 1)l - 1 + (n - (j - 1)l + 1) % 2 + 2i.  Each of the
    four image families, sum over k of c_k * wall_term(column_k, n), is a
    dot product of its coefficients with ballot cells r = `_ballot_row(n)`
    2l apart.  The images right of m read r downwards from h = (n - m)/2;
    those left of it read r upwards, which by r[n + 1 - x] = -r[x] is
    reading downwards from a mirrored index.  With
    D(c, a) = sum of c_k * r[a - 2lk] over a - 2lk >= 0, the strip's sum is
    D(p, h) - D(p, n + 1 - h - jl) - D(q, h - l) + D(q, n + 1 - h - (j + 1)l);
    every index is <= n // 2.  The coefficient lists come from `_pq`: the
    k ranges of the images that can reach row n, about j*n/4l big-int
    additions once per size.  Cached for the last (l, j, n) only.
    """
    ballot = _ballot_row(n)
    e, lo = 2 * l, (j - 1) * l - 1

    def dot(cs, a):  # D(cs, a)
        return sum(map(mul, cs, ballot[a::-e])) if a >= 0 else 0

    p = _pq(j, 0, (n - (j - 1) * l + 1) // (4 * l) + 1)
    q = _pq(j, 1, (n - (j + 1) * l + 1) // (4 * l) + 1)
    lane = []
    for m in range(lo + (n - lo) % 2, min(j * l - 2, n) + 1, 2):
        h = (n - m) // 2
        mirror = n + 1 - h - j * l
        total = dot(p, h) - dot(p, mirror) - dot(q, h - l) + dot(q, mirror - l)
        lane.append(2 ** (j - 2) * total)
    return tuple(lane)


def multiplicity(l: int, m: int, n: int) -> int:
    """Weighted walks from the origin to (m, n) in the periodic arrangement.

    The arrangement is the wall at 0, the type-1 filter at l-1 and type-2
    filters at nl-1 for n >= 2.  Dispatches on the strip index: strip 1
    reduces to `wall_filter_strip1`; strips j >= 2 use the p/q families
    with prefactor 2^(j-2).  A strip whose p/q lists take more than
    `MJ_MAX_WORK` big-int additions, j*K with K = (n - (j - 1)l + 1)//4l + 1,
    is refused before anything is built.
    """
    j = strip_index(l, m)
    if (m + n) % 2:
        raise DomainError(f"(m + n) must be even, got m={m}, n={n}")
    if m > n:
        raise DomainError(f"column {m} unreachable by row {n}")
    if j == 1:
        return wall_filter_strip1(l, m, n)
    _check_row(n)
    work = j * ((n - (j - 1) * l + 1) // (4 * l) + 1)
    if work > MJ_MAX_WORK:
        raise DomainError(f"strip {j} on row {n} needs j*K = {work} big-int additions, "
                          f"above MJ_MAX_WORK = {MJ_MAX_WORK}")
    return _mj_lane(l, j, n)[(m - (j - 1) * l + 1) // 2]
