"""Ground-truth weighted path counting.

Two independent oracles: a row-by-row dynamic program in exact big-integer
arithmetic and exhaustive enumeration for small depths.  Both DP drivers
step parity-split rows (see `advance_row`) and keep one row at a time, so
time is O(N^2) and memory O(N): `dp_count` clips its row to the light cone
of one endpoint; `dp_rows`, for sweeps, yields every full row in turn, read
by `row_count`, so a sweep can take row n of many streams before any row
n + 1 is made.  Enumeration comes in two forms: `enumerate_paths` lists
every allowed path with its points and weight, and `enum_weight` walks the
same paths depth-first without building them and returns only their total
weight.  It memoizes nothing and never touches the DP, so it stays an
independent check of it.  Every oracle refuses a bad call before any work,
in one order: a bad query, its row limit, then the arrangement's error
from `model.step_rules`, which hands it its rules (`_guarded_rules`).
`enumerate_paths`, the one lister, also refuses over ENUM_MAX_PATHS paths.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from math import comb

from .model import LEFT, RIGHT, Arrangement, Point, step_rules

KERNEL_BACKEND = "python"
ENUM_MAX_ROWS = 24
# C(20, 10): every listing of up to 20 rows fits.  `paths` holds every path
# it lists; at this many, JSON output peaks at about 290 MiB.
ENUM_MAX_PATHS = 184_756
# A DP's time grows as rows^2: at 3000 rows on W@0;F1@1;F2@3, dp_count takes
# about 0.2 s and one full dp_rows stream 0.4 s (2-core Xeon).
DP_MAX_ROWS = 3000


class InvalidQuery(ValueError):
    """Query outside the oracle's domain (negative row, start off row 0)."""


class TooLarge(ValueError):
    """Query refused before any work: enumeration above ENUM_MAX_ROWS rows
    or ENUM_MAX_PATHS listed paths, or a DP above DP_MAX_ROWS rows."""


@dataclass(frozen=True)
class PathQuery:
    start: Point  # (x, 0)
    end_m: int
    end_n: int
    arrangement: Arrangement = Arrangement()


@dataclass(frozen=True)
class WeightedPath:
    points: tuple[Point, ...]
    weight: int

    def steps(self) -> str:
        """Step letters, e.g. ``"RRL"``."""
        xs = [p[0] for p in self.points]
        return "".join("R" if b > a else "L" for a, b in zip(xs, xs[1:]))


def advance_row(row: list, lo: int, cols: list, fixes: list) -> list:
    """One transfer step on a parity-split row; the DP's hot loop.

    row[k] counts column lo + 2k; the result counts column lo - 1 + 2j and
    is one cell longer.  A whole-row sum gives every step weight 1; then
    each restricted column x = cols[i] (sorted, of the row's parity) in the
    window adds its cell times fixes[i] = (x, right weight - 1, left weight
    - 1) to its neighbours: a forbidden step takes the cell back off, a
    weight-2 step adds it once more.  Cells are exact Python ints.
    """
    out = [a + b for a, b in zip([0] + row, row + [0])]
    for i in range(bisect_left(cols, lo), bisect_left(cols, lo + 2 * len(row))):
        x, dr, dl = fixes[i]
        k = (x - lo) >> 1
        v = row[k]
        if v:
            out[k + 1] += dr * v
            out[k] += dl * v
    return out


def _guarded_rules(n_rows: int, arr: Arrangement, limit: int, what: str) -> dict:
    """The arrangement's step rules, after refusing more than `limit` rows;
    raises TooLarge, then the arrangement's error (from `step_rules`)."""
    if n_rows > limit:
        raise TooLarge(f"{what} limited to {limit} rows, got {n_rows}")
    return step_rules(arr)


def _fixes_by_parity(n_rows: int, arr: Arrangement) -> tuple:
    """Guard a DP of n_rows rows and build advance_row's (cols, fixes) for
    the even columns and for the odd ones."""
    rules = _guarded_rules(n_rows, arr, DP_MAX_ROWS, "DP")
    by_parity = ([], []), ([], [])
    for x in sorted({x for x, _ in rules}):
        dr, dl = rules.get((x, RIGHT), 1) - 1, rules.get((x, LEFT), 1) - 1
        if dr or dl:
            cols, fixes = by_parity[x & 1]
            cols.append(x)
            fixes.append((x, dr, dl))
    return by_parity


def _check_query(q: PathQuery) -> None:
    """Refuse a query outside every oracle's domain: a negative end row or
    a start off row 0."""
    if q.end_n < 0:
        raise InvalidQuery(f"end row must be >= 0, got {q.end_n}")
    if q.start[1] != 0:
        raise InvalidQuery(f"start must sit on row 0, got {q.start}")


def dp_rows(start_x: int, n_rows: int, arr: Arrangement):
    """The DP's rows 0..n_rows from (start_x, 0), one at a time.

    Row y holds only the y + 1 columns of its parity that a walk can reach;
    read it with `row_count`.  Bad arguments raise here, before any row is
    made: InvalidQuery, TooLarge, then the arrangement's error.
    """
    if n_rows < 0:
        raise InvalidQuery(f"row count must be >= 0, got {n_rows}")
    by_parity = _fixes_by_parity(n_rows, arr)
    return accumulate(range(start_x, start_x - n_rows, -1),
                      lambda row, lo: advance_row(row, lo, *by_parity[lo & 1]),
                      initial=[1])


def row_count(row: list, start_x: int, m: int) -> int:
    """The count at column m of a row of `dp_rows(start_x, ...)`; 0 off its
    parity or window.  Row n's cell k is column start_x - n + 2k."""
    k, odd = divmod(m - start_x + len(row) - 1, 2)
    return row[k] if not odd and 0 <= k < len(row) else 0


def dp_count(q: PathQuery) -> int:
    """Exact weighted number of allowed paths start -> (end_m, end_n).

    Unreachable or parity-impossible endpoints count 0.  Streams: keeps one
    row, clipped to the backward cone |end_m - x| <= end_n - y, so time is
    O(n^2) and memory O(n) ints.
    """
    _check_query(q)
    by_parity = _fixes_by_parity(q.end_n, q.arrangement)
    m, n, lo = q.end_m, q.end_n, q.start[0]
    if abs(m - lo) > n or (m - lo + n) % 2:
        return 0
    row = [1]
    for y in range(n):
        row = advance_row(row, lo, *by_parity[lo & 1])
        lo -= 1
        reach = n - y - 1
        cut = max(0, (m - reach - lo) // 2)
        row = row[cut:(m + reach - lo) // 2 + 1]
        lo += 2 * cut
    return row[0]


def enum_weight(q: PathQuery) -> int:
    """Total weight of the allowed paths, walked one by one.

    Plain depth-first recursion over the same paths as `enumerate_paths`,
    with no memo: a step is taken only if it stays in the backward cone
    |end_m - x| <= rows left, and the last step's weight is read directly.
    Off-parity or out-of-cone endpoints give 0.  Bad calls raise as in
    `enumerate_paths`: InvalidQuery, TooLarge, then the arrangement's error.
    """
    _check_query(q)
    rules = _guarded_rules(q.end_n, q.arrangement, ENUM_MAX_ROWS, "enumeration")
    m, n, x0 = q.end_m, q.end_n, q.start[0]
    if abs(m - x0) > n or (m - x0 + n) % 2:
        return 0
    if n == 0:
        return 1

    def rec(x: int, left: int) -> int:
        if left == 1:
            return rules.get((x, m - x), 1)
        left -= 1
        total = 0
        for dx in (RIGHT, LEFT):
            if abs(m - x - dx) <= left:
                w = rules.get((x, dx), 1)
                if w:
                    total += w * rec(x + dx, left)
        return total

    return rec(x0, n)


def enumerate_paths(q: PathQuery) -> list[WeightedPath]:
    """Every allowed path with its weight, rightward branch first; guarded
    like `enum_weight`, then refused (TooLarge) if more than ENUM_MAX_PATHS
    unrestricted walks, an upper bound on the listing, reach the endpoint."""
    _check_query(q)
    rules = _guarded_rules(q.end_n, q.arrangement, ENUM_MAX_ROWS, "enumeration")
    m, n, x0 = q.end_m, q.end_n, q.start[0]
    if abs(m - x0) > n or (m - x0 + n) % 2:
        return []
    bound = comb(n, (n - abs(m - x0)) // 2)
    if bound > ENUM_MAX_PATHS:
        raise TooLarge(f"listing limited to {ENUM_MAX_PATHS} paths, got up to {bound}")
    paths: list[WeightedPath] = []
    prefix: list[Point] = [q.start]

    def rec(x: int, y: int, w: int) -> None:
        if abs(m - x) > n - y:
            return
        if y == n:
            paths.append(WeightedPath(tuple(prefix), w))
            return
        for dx in (RIGHT, LEFT):
            sw = rules.get((x, dx), 1)
            if sw:
                prefix.append((x + dx, y + 1))
                rec(x + dx, y + 1, w * sw)
                prefix.pop()

    rec(x0, 0, 1)
    return paths
