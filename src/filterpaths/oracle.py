"""Ground-truth weighted path counting.

Two independent oracles: a row-by-row dynamic program in exact big-integer
arithmetic and exhaustive enumeration for small depths.  Both DP drivers
step parity-split rows with one kernel, `advance_row`, which applies an
arrangement's corrections as strided slice updates over arithmetic runs of
restricted columns (`_fixes_by_parity`), and keep one row at a time, so
time is at most O(N^2) and memory O(N): `dp_count` clips its row to the
light cone of one endpoint and to a window fixed before the first row: no
walk crosses back over a one-way column, so the window stops at the
nearest one on each side that points away from the endpoint or that the
start cannot pass; between a wall and a filter its time is linear in N.
`dp_rows`, for sweeps, yields every full row in turn, read by
`row_count`, so a sweep can take row n of many streams before any row
n + 1 is made.  Enumeration comes in two forms: `enumerate_paths` lists
every allowed path with its points and weight, and `enum_weight` returns
only their total weight, met in the middle: it walks every prefix to the
middle row and sums their weights by column there, then walks every suffix
back from the endpoint and weighs it by the prefix sum at its column.  It
never calls the DP, so it stays an independent check of it.
Every oracle refuses a bad call before any work, in one order: a bad
query, its row limit, then the arrangement's error from
`model.step_rules`, which hands it its rules (`_guarded_rules`).
`enumerate_paths`, the one lister, also refuses over ENUM_MAX_PATHS paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb
from operator import add, sub

from .model import LEFT, RIGHT, Arrangement, Point, step_rules

KERNEL_BACKEND = "python"
ENUM_MAX_ROWS = 24
# C(20, 10): every listing of up to 20 rows fits.  `paths` holds every path
# it lists; at this many, it peaks at about 115 MiB, as text or JSON.
ENUM_MAX_PATHS = 184_756
# A DP's time grows as rows^2 at worst: at 3000 rows on W@0;F1@1;F2@3,
# dp_count to an endpoint beyond every one-way column takes 0.1-0.2 s and
# one full dp_rows stream 0.3 s; on the periodic arrangement for l = 3,
# dp_count at m = 1500 takes 0.2-0.3 s and a stream 0.5-0.7 s.  From the
# origin to an endpoint between the wall and a filter, dp_count keeps a few
# columns per row: about 0.01 s on W@0;F1@1;F2@3 and 0.02-0.03 s on the
# periodic arrangement (2-core Xeon).
DP_MAX_ROWS = 3000
_OPS = {1: add, -1: sub}


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


def advance_row(row: list, lo: int, runs: list) -> list:
    """One transfer step on a parity-split row; the DP's hot loop.

    row[k] counts column lo + 2k; the result counts column lo - 1 + 2j and
    is one cell longer.  A whole-row sum gives every step weight 1; then
    each run (x0, stride, count, dr, dl) of restricted columns x0 + i*stride
    (of the row's parity, all with right weight - 1 = dr and left weight
    - 1 = dl) is clipped to the row's window and adds its cells times dr
    and dl to their right and left neighbours, as one strided slice update
    each (a run clipped to one cell is updated in place): a forbidden step
    takes the cell back off, a weight-2 step adds it once more.  Weights
    are 0, 1 or 2, so dr and dl are -1, 0 or 1.  Cells are exact Python
    ints.
    """
    out = [row[0], *map(add, row, islice(row, 1, None)), row[-1]]
    last = len(row) - 1
    for x0, stride, count, dr, dl in runs:
        s = stride >> 1
        a = (x0 - lo) >> 1  # the run's first and last cells, then clipped
        b = a + (count - 1) * s
        if a < 0:
            a %= s
        if b > last:
            b = last
        if a > b:
            continue
        if a == b:  # one cell: update it in place, not through a slice
            v = row[a]
            if dr:
                out[a + 1] = _OPS[dr](out[a + 1], v)
            if dl:
                out[a] = _OPS[dl](out[a], v)
            continue
        b += 1
        cells = row[a:b:s]
        if dr:
            out[a + 1:b + 1:s] = map(_OPS[dr], out[a + 1:b + 1:s], cells)
        if dl:
            out[a:b:s] = map(_OPS[dl], out[a:b:s], cells)
    return out


def _guarded_rules(n_rows: int, arr: Arrangement, limit: int, what: str) -> dict:
    """The arrangement's step rules, after refusing more than `limit` rows;
    raises TooLarge, then the arrangement's error (from `step_rules`)."""
    if n_rows > limit:
        raise TooLarge(f"{what} limited to {limit} rows, got {n_rows}")
    return step_rules(arr)


def _fixes_by_parity(n_rows: int, arr: Arrangement) -> tuple:
    """Guard a DP of n_rows rows and build advance_row's runs for the even
    columns and for the odd ones: each parity's restricted columns grouped
    by their (dr, dl) pair, each group split into maximal arithmetic runs
    (x0, stride, count, dr, dl); a lone column is a run of count 1."""
    rules = _guarded_rules(n_rows, arr, DP_MAX_ROWS, "DP")
    groups: dict = {}
    for x in sorted({x for x, _ in rules}):
        fix = rules.get((x, RIGHT), 1) - 1, rules.get((x, LEFT), 1) - 1
        if fix != (0, 0):
            groups.setdefault((x & 1, fix), []).append(x)
    by_parity = [], []
    for (parity, (dr, dl)), xs in groups.items():
        i = 0
        while i < len(xs):
            stride = xs[i + 1] - xs[i] if i + 1 < len(xs) else 2
            j = i + 1
            while j < len(xs) and xs[j] - xs[j - 1] == stride:
                j += 1
            by_parity[parity].append((xs[i], stride, j - i, dr, dl))
            i = j
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
                      lambda row, lo: advance_row(row, lo, by_parity[lo & 1]),
                      initial=[1])


def row_count(row: list, start_x: int, m: int) -> int:
    """The count at column m of a row of `dp_rows(start_x, ...)`; 0 off its
    parity or window.  Row n's cell k is column start_x - n + 2k."""
    k, odd = divmod(m - start_x + len(row) - 1, 2)
    return row[k] if not odd and 0 <= k < len(row) else 0


def dp_count(q: PathQuery) -> int:
    """Exact weighted number of allowed paths start -> (end_m, end_n).

    Unreachable or parity-impossible endpoints count 0.  Streams: keeps one
    row, clipped to the backward cone |end_m - x| <= end_n - y and to a
    window x_min <= x <= x_max fixed before the first row; a row with no
    cell left means no walk gets through, and counts 0.  Each one-way
    column c bounds the window on the side its forbidden step points to.
    Past end_m (c > end_m whose left step is forbidden: W, F1, F2; c < end_m
    whose right step is: WR), the window ends just inside c: no walk from c
    or beyond gets back to end_m, and the edge cell takes nothing from c,
    whose step onto it has weight 0.  At or behind the start (a forbidden
    left step at c <= start, a forbidden right step at c >= start), it ends
    at c: no walk from the start gets past c, so every cell beyond is 0.
    Either way every kept cell keeps its exact value.  Time is
    O(n * min(n, window width)) and memory O(n) ints; a start outside the
    window counts 0.
    """
    _check_query(q)
    by_parity = _fixes_by_parity(q.end_n, q.arrangement)
    m, n, lo = q.end_m, q.end_n, q.start[0]
    if abs(m - lo) > n or (m - lo + n) % 2:
        return 0
    blocked = [(x, dx) for (x, dx), w in step_rules(q.arrangement).items() if not w]
    x_min = max([m - n] + [x + 1 for x, dx in blocked if dx == RIGHT and x < m]
                + [x for x, dx in blocked if dx == LEFT and x <= lo])
    x_max = min([m + n] + [x - 1 for x, dx in blocked if dx == LEFT and x > m]
                + [x for x, dx in blocked if dx == RIGHT and x >= lo])
    if not x_min <= lo <= x_max:
        return 0
    row = [1]
    for y in range(n):
        row = advance_row(row, lo, by_parity[lo & 1])
        lo -= 1
        reach = n - y - 1  # clip to the cone and the window
        a = max(0, (max(m - reach, x_min) - lo + 1) // 2)
        b = min(len(row), (min(m + reach, x_max) - lo) // 2 + 1)
        if a >= b:
            return 0
        row = row[a:b]
        lo += 2 * a
    return row[0]


def enum_weight(q: PathQuery) -> int:
    """Total weight of the allowed paths, enumerated by meet in the middle.

    Every prefix from the start to row h = end_n // 2 is walked inside the
    backward cone |end_m - x| <= rows left, and the prefix weights are summed
    by their column on row h.  Every suffix is walked back from the endpoint
    to row h inside the forward cone |x - start| <= y; a step from p to x
    weighs rules[(p, x - p)], as it is taken.  Each path is one (prefix,
    suffix) pair, so the total is the sum over suffixes of their weight
    times the prefix sum at their column: about 2 * 2^(n/2) half-paths
    walked, not 2^n paths.  It never calls the DP.  Off-parity or
    out-of-cone endpoints give 0.  Bad calls raise as in `enumerate_paths`:
    InvalidQuery, TooLarge, then the arrangement's error.
    """
    _check_query(q)
    rules = _guarded_rules(q.end_n, q.arrangement, ENUM_MAX_ROWS, "enumeration")
    m, n, x0 = q.end_m, q.end_n, q.start[0]
    if abs(m - x0) > n or (m - x0 + n) % 2:
        return 0
    if n == 0:
        return 1
    h = n // 2
    prefixes = [(x0, 1)]  # (column, weight), one entry per prefix
    for y in range(1, h + 1):
        prefixes = [(x + dx, w * s) for x, w in prefixes for dx in (RIGHT, LEFT)
                    if abs(m - x - dx) <= n - y and (s := rules.get((x, dx), 1))]
    at_h: dict = {}
    for x, w in prefixes:
        at_h[x] = at_h.get(x, 0) + w
    suffixes = [(m, 1)]
    for y in range(n - 1, h - 1, -1):
        suffixes = [(x - dx, w * s) for x, w in suffixes for dx in (RIGHT, LEFT)
                    if abs(x - dx - x0) <= y and (s := rules.get((x - dx, dx), 1))]
    return sum(w * at_h.get(x, 0) for x, w in suffixes)


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
