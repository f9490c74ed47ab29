"""Ground-truth weighted path counting.

Two independent oracles: a row-by-row dynamic program (`dp_count`, exact
big-integer arithmetic, O(N^2) cell updates) and an exhaustive enumerator
(`enumerate_paths`) for small depths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import LEFT, RIGHT, Arrangement, Point, step_rules, validate

KERNEL_BACKEND = "python"
ENUM_MAX_ROWS = 24


class InvalidQuery(ValueError):
    """Query outside the oracle's domain (negative row, start off row 0)."""


class TooLarge(ValueError):
    """Exhaustive enumeration refused; depth above ENUM_MAX_ROWS."""


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


class CountTable:
    """All weighted counts from one start point, rows 0..n_rows.

    rows[y][m - lo] is the weighted number of paths from start to (m, y);
    columns outside [lo, lo + width) are unreachable and count 0.
    """

    def __init__(self, lo: int, rows: list[list[int]]):
        self.lo = lo
        self.rows = rows

    def count(self, m: int, n: int) -> int:
        if not 0 <= n < len(self.rows):
            raise InvalidQuery(f"row {n} outside computed range")
        i = m - self.lo
        row = self.rows[n]
        return row[i] if 0 <= i < len(row) else 0


def advance_row(row: list, wr: bytes, wl: bytes) -> list:
    """One transfer step: out[i+1] += wr[i]*row[i], out[i-1] += wl[i]*row[i].

    The DP's hot loop.  wr[i] / wl[i] are the rightward / leftward step
    weights out of cell i (0, 1 or 2; 0 means the step is forbidden).
    Boundary cells may only scatter inward.  Cells are Python ints, so
    arithmetic stays exact at any magnitude.
    """
    n = len(row)
    out = [0] * n
    for i in range(n):
        v = row[i]
        if not v:
            continue
        w = wr[i]
        if w and i + 1 < n:
            out[i + 1] += v if w == 1 else v + v
        w = wl[i]
        if w and i > 0:
            out[i - 1] += v if w == 1 else v + v
    return out


def count_table(start_x: int, n_rows: int, arr: Arrangement) -> CountTable:
    """Run the DP for every endpoint up to row n_rows at once."""
    if n_rows < 0:
        raise InvalidQuery(f"row count must be >= 0, got {n_rows}")
    validate(arr)
    lo = start_x - n_rows
    width = 2 * n_rows + 1
    rules = step_rules(arr)
    wr = bytes(rules.get((lo + i, RIGHT), 1) for i in range(width))
    wl = bytes(rules.get((lo + i, LEFT), 1) for i in range(width))
    row = [0] * width
    row[start_x - lo] = 1
    rows = [row]
    for _ in range(n_rows):
        row = advance_row(row, wr, wl)
        rows.append(row)
    return CountTable(lo, rows)


def dp_count(q: PathQuery) -> int:
    """Exact weighted number of allowed paths start -> (end_m, end_n).

    Unreachable or parity-impossible endpoints count 0.
    """
    if q.end_n < 0:
        raise InvalidQuery(f"end row must be >= 0, got {q.end_n}")
    if q.start[1] != 0:
        raise InvalidQuery(f"start must sit on row 0, got {q.start}")
    return count_table(q.start[0], q.end_n, q.arrangement).count(q.end_m, q.end_n)


def iter_paths(q: PathQuery):
    """Depth-first generator of allowed paths, rightward branch first."""
    if q.end_n < 0:
        raise InvalidQuery(f"end row must be >= 0, got {q.end_n}")
    if q.start[1] != 0:
        raise InvalidQuery(f"start must sit on row 0, got {q.start}")
    validate(q.arrangement)
    rules = step_rules(q.arrangement)
    m, n = q.end_m, q.end_n
    prefix: list[Point] = [q.start]

    def rec(x: int, y: int, w: int):
        if abs(m - x) > n - y:
            return
        if y == n:
            yield WeightedPath(tuple(prefix), w)
            return
        for dx in (RIGHT, LEFT):
            sw = rules.get((x, dx), 1)
            if sw:
                prefix.append((x + dx, y + 1))
                yield from rec(x + dx, y + 1, w * sw)
                prefix.pop()

    yield from rec(q.start[0], 0, 1)


def enumerate_paths(q: PathQuery) -> list[WeightedPath]:
    """Every allowed path with its weight; guarded against deep queries."""
    if q.end_n > ENUM_MAX_ROWS:
        raise TooLarge(f"enumeration limited to {ENUM_MAX_ROWS} rows, got {q.end_n}")
    return list(iter_paths(q))
