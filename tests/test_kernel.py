"""The DP row step on parity-split rows, and both DP drivers against the
full-width scatter DP they replaced."""

import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import arrangements
from filterpaths import KERNEL_BACKEND, oracle
from filterpaths.formulas import multiplicity, wall_filter_right, wall_two_filters
from filterpaths.model import (
    LEFT,
    RIGHT,
    Arrangement,
    ArrangementError,
    Kind,
    Restriction,
    WeightRule,
    canonical_arrangement,
    parse_arrangement,
    step_rules,
)
from filterpaths.oracle import (
    DP_MAX_ROWS,
    PathQuery,
    _fixes_by_parity,
    advance_row,
    dp_count,
    dp_rows,
    row_count,
)


def _scatter_row(row: list, wr: bytes, wl: bytes) -> list:
    """Reference step: out[i+1] += wr[i]*row[i], out[i-1] += wl[i]*row[i]."""
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


def _scatter_table(start_x: int, n_rows: int, arr: Arrangement):
    """Reference DP: every row at full width 2*n_rows + 1; rows[y][i] is column lo + i."""
    lo = start_x - n_rows
    width = 2 * n_rows + 1
    rules = step_rules(arr)
    wr = bytes(rules.get((lo + i, RIGHT), 1) for i in range(width))
    wl = bytes(rules.get((lo + i, LEFT), 1) for i in range(width))
    row = [0] * width
    row[start_x - lo] = 1
    rows = [row]
    for _ in range(n_rows):
        row = _scatter_row(row, wr, wl)
        rows.append(row)
    return lo, rows


def _assert_drivers_match_scatter(start: int, n: int, arr: Arrangement) -> None:
    """dp_rows at every (m, y <= n) and dp_count at every m of row n, for
    m in [start - n - 2, start + n + 2]: off-parity and out-of-cone included."""
    lo, rows = _scatter_table(start, n, arr)
    streamed = list(dp_rows(start, n, arr))
    assert len(streamed) == len(rows)
    ms = range(start - n - 2, start + n + 3)
    for y, (ref, row) in enumerate(zip(rows, streamed)):
        for m in ms:
            want = ref[m - lo] if 0 <= m - lo < len(ref) else 0
            assert row_count(row, start, m) == want, (m, y)
    for m in ms:
        want = rows[n][m - lo] if 0 <= m - lo < len(rows[n]) else 0
        assert dp_count(PathQuery((start, 0), m, n, arr)) == want, m


def test_selected_backend_reported():
    assert KERNEL_BACKEND == "python"


def test_pure_kernel_weight_two_step():
    # columns 0 and 2; column 0 doubles its right step, column 2 its left
    # step; the run over -2 and 4 lies outside the window at both ends
    runs = [(-2, 6, 2, -1, -1), (0, 2, 1, 1, 0), (2, 2, 1, 0, 1)]
    assert advance_row([1, 3], 0, runs) == [1, 8, 3]


def test_pure_kernel_window_grows_by_one():
    # columns -1, 1 -> -2, 0, 2: one cell longer, starting at lo - 1
    assert advance_row([5, 7], -1, []) == [5, 12, 7]
    assert advance_row([5, 7], -1, [(-1, 2, 1, 0, 1)]) == [10, 12, 7]


def test_forbidden_steps_drop_mass():
    assert advance_row([0, 4, 0], -2, [(0, 2, 1, -1, -1)]) == [0, 0, 0, 0]


def test_kernel_clips_a_strided_run_to_the_window():
    # a run on columns -3, 1, 5, 9 (every other cell of a row at lo = -1)
    # whose first and last columns fall outside the four-cell window
    row = [1, 10, 100, 1000]
    whole = [1, 11, 110, 1100, 1000]
    assert advance_row(row, -1, [(-3, 4, 4, 1, 0)]) == [1, 11, 120, 1100, 2000]
    assert advance_row(row, -1, [(-3, 4, 4, -1, -1)]) == [1, 1, 100, 100, 0]
    assert advance_row(row, -1, [(-7, 4, 2, 1, 1), (13, 2, 3, 1, 1)]) == whole
    # clipped to one cell (column 1), at either end of the run
    assert advance_row(row, -1, [(-3, 4, 2, 1, -1)]) == [1, 1, 120, 1100, 1000]
    assert advance_row(row, -1, [(1, 8, 3, 1, -1)]) == [1, 1, 120, 1100, 1000]


def _expand(runs_by_parity) -> list:
    """The (x, dr, dl) fixes a DP's runs stand for, sorted by column."""
    fixes = []
    for parity, runs in enumerate(runs_by_parity):
        for x0, stride, count, dr, dl in runs:
            assert stride > 0 and stride % 2 == 0 and count >= 1
            assert (dr, dl) != (0, 0) and {dr, dl} <= {-1, 0, 1}
            for i in range(count):
                assert (x0 + i * stride) & 1 == parity
                fixes.append((x0 + i * stride, dr, dl))
    return sorted(fixes)


def _fixes(arr: Arrangement) -> list:
    """Reference: every column whose step weights are not both 1, straight
    from step_rules."""
    rules = step_rules(arr)
    fixes = [(x, rules.get((x, RIGHT), 1) - 1, rules.get((x, LEFT), 1) - 1)
             for x in sorted({x for x, _ in rules})]
    return [f for f in fixes if f[1:] != (0, 0)]


def _assert_maximal(runs_by_parity) -> None:
    """Each (dr, dl) group's runs, in column order, take its columns in
    turn, and each stops where the next column breaks its stride; only a
    group's last run can be a single column."""
    for runs in runs_by_parity:
        groups: dict = {}
        for run in sorted(runs):
            groups.setdefault(run[3:], []).append(run)
        for group in groups.values():
            for (x0, stride, count, _, _), nxt in zip(group, group[1:]):
                assert count >= 2
                assert x0 + (count - 1) * stride < nxt[0] != x0 + count * stride


@st.composite
def _periodic_arrangements(draw):
    """Walls and filters on interleaved arithmetic progressions, so that
    runs of several (dr, dl) groups overlap and singletons sit between."""
    axes = set()
    for _ in range(draw(st.integers(1, 3))):
        x0, step = draw(st.integers(-20, 20)), draw(st.integers(3, 9))
        axes.update(x0 + i * step for i in range(draw(st.integers(1, 8))))
    axes.update(draw(st.lists(st.integers(-30, 80), max_size=4)))
    kinds = draw(st.lists(st.sampled_from(list(Kind)), min_size=len(axes),
                          max_size=len(axes)))
    rs = tuple(Restriction(k, x) for k, x in zip(kinds, sorted(axes)))
    arr = Arrangement(rs, draw(st.sampled_from(list(WeightRule))))
    try:
        step_rules(arr)
    except ArrangementError:
        reject()
    return arr


@given(st.one_of(arrangements(max_restrictions=8), _periodic_arrangements()))
@settings(max_examples=300, deadline=None)
def test_runs_expand_to_the_step_rules_fixes(arr):
    runs = _fixes_by_parity(0, arr)
    assert _expand(runs) == _fixes(arr)
    _assert_maximal(runs)


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_canonical_runs(l):
    arr = canonical_arrangement(l, 200)
    runs = _fixes_by_parity(0, arr)
    assert _expand(runs) == _fixes(arr)
    # a few long runs per parity, not one entry per restricted column
    assert max(len(r) for r in runs) <= 6
    if l == 2:
        # every F2 landing column 2k (k >= 1) doubles both steps: one run
        assert (2, 2, 100, 1, 1) in runs[0]
        assert (0, 2, 1, 0, -1) in runs[0]


def _kernel_windows(monkeypatch, q: PathQuery) -> tuple:
    """dp_count(q) and the (lo, cells) of every row it hands advance_row."""
    windows = []
    kernel = oracle.advance_row

    def spy(row, lo, runs):
        windows.append((lo, len(row)))
        return kernel(row, lo, runs)

    monkeypatch.setattr(oracle, "advance_row", spy)
    try:
        return dp_count(q), windows
    finally:
        monkeypatch.undo()


def test_dp_count_trims_its_row_inside_a_correction_run(monkeypatch):
    # The wall at 0 zeroes every cell left of it, and dp_count drops those
    # cells; later its cone clip starts the row inside the run of F2 landing
    # columns 2, 4, ..., 60 (l = 2), which advance_row then clips.
    arr = canonical_arrangement(2, 60)
    assert (2, 2, 30, 1, 1) in _fixes_by_parity(0, arr)[0]
    start, n, m = 9, 50, 21
    lo, rows = _scatter_table(start, n, arr)
    got, windows = _kernel_windows(monkeypatch, PathQuery((start, 0), m, n, arr))
    assert got == rows[n][m - lo] > 0
    assert len(windows) == n
    trimmed = [lo > max(start - y, m - n + y) for y, (lo, _) in enumerate(windows)]
    assert all(lo >= 0 for lo, _ in windows) and any(trimmed)
    assert any(2 < lo and lo + 2 * k < 60 and lo % 2 == 0 for lo, k in windows)
    _assert_drivers_match_scatter(start, n, arr)


@given(arrangements(max_restrictions=6), st.integers(-10, 10), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_drivers_match_scatter_reference(arr, start, n):
    _assert_drivers_match_scatter(start, n, arr)


@pytest.mark.parametrize("semantics", list(WeightRule))
@pytest.mark.parametrize("start", [-7, 0, 3])
@pytest.mark.parametrize("l", [2, 3, 5])
def test_drivers_match_scatter_reference_canonical(l, start, semantics):
    arr = Arrangement(canonical_arrangement(l, 70).restrictions, semantics)
    _assert_drivers_match_scatter(start, 60, arr)


@st.composite
def _barrier_cases(draw):
    """One-way columns of every kind, 2-6 apart, and a start on, next to or
    beyond one of them, or anywhere near the origin."""
    kinds = draw(st.lists(st.sampled_from(list(Kind)), min_size=1, max_size=4))
    axes = [draw(st.integers(-10, 4))]
    for _ in kinds[1:]:
        axes.append(axes[-1] + draw(st.integers(2, 6)))
    arr = Arrangement(tuple(map(Restriction, kinds, axes)),
                      draw(st.sampled_from(list(WeightRule))))
    if draw(st.booleans()):
        start = draw(st.sampled_from(axes)) + draw(st.integers(-2, 2))
    else:
        start = draw(st.integers(-14, 14))
    return arr, start, draw(st.integers(0, 30))


def _cut_off(arr: Arrangement, start: int, m: int) -> bool:
    """A one-way column at or past the start, pointing away from m, sits
    between them: every walk would have to take its forbidden step."""
    return any(start <= r.axis < m if r.kind is Kind.WALL_RIGHT else m < r.axis <= start
               for r in arr.restrictions)


@given(_barrier_cases())
@settings(max_examples=300, deadline=None)
def test_dp_count_live_strip_matches_scatter_reference(case):
    # dp_count clips its rows to the columns between the one-way columns
    # around m; the full-width scatter DP clips nothing.  Endpoints on and
    # next to every barrier put m at the strip's edge and just past it.
    arr, start, n = case
    lo, rows = _scatter_table(start, n, arr)
    for m in sorted({r.axis + dm for r in arr.restrictions for dm in (-1, 0, 1)}):
        want = rows[n][m - lo] if 0 <= m - lo < len(rows[n]) else 0
        assert dp_count(PathQuery((start, 0), m, n, arr)) == want, m
        if _cut_off(arr, start, m):
            assert want == 0, m


def _window(arr: Arrangement, start: int, m: int, n: int) -> tuple:
    """dp_count's window, rule by rule: each column with a forbidden step
    bounds it past m (just inside the column) and at or behind the start
    (at the column), on the side the step points to."""
    x_min, x_max = m - n, m + n
    for (x, dx), w in step_rules(arr).items():
        if w:
            continue
        if dx == RIGHT and x < m:
            x_min = max(x_min, x + 1)
        if dx == RIGHT and x >= start:
            x_max = min(x_max, x)
        if dx == LEFT and x > m:
            x_max = min(x_max, x - 1)
        if dx == LEFT and x <= start:
            x_min = max(x_min, x)
    return x_min, x_max


@given(_barrier_cases())
@settings(max_examples=200, deadline=None)
def test_dp_count_rows_stay_inside_the_window_and_the_cone(case):
    # Every row dp_count hands the kernel lies inside the window, fixed
    # before the first row, and inside both light cones; the count is
    # still the full-width scatter DP's.  Starts on, beside and beyond a
    # barrier put the window's start-side bound at the start itself.
    arr, start, n = case
    lo, rows = _scatter_table(start, n, arr)
    for m in range(start - n, start + n + 1, 2):
        x_min, x_max = _window(arr, start, m, n)
        with pytest.MonkeyPatch.context() as mp:
            got, windows = _kernel_windows(mp, PathQuery((start, 0), m, n, arr))
        assert got == rows[n][m - lo], m
        if got:
            assert len(windows) == n, m
        for y, (x, k) in enumerate(windows):
            cone = max(start - y, m - n + y), min(start + y, m + n - y)
            assert max(x_min, cone[0]) <= x <= x + 2 * (k - 1) <= min(x_max, cone[1]), (m, y)
        if not x_min <= start <= x_max:
            assert windows == [] and got == 0, m


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_dp_count_between_filters_is_linear_in_n(monkeypatch, l, periodic):
    # m strictly between two filters: the one right of m bounds the strip
    # at x_max, and the wall at 0 (left of which no walk from the origin
    # goes) at x_min, so no row is wider than the strip and the kernel
    # sees O(n) cells in all, not O(n^2).
    n = DP_MAX_ROWS
    if periodic:
        m, x_max = 4 * l, 5 * l - 2
        arr, want = canonical_arrangement(l, n), multiplicity(l, 4 * l, n)
    else:
        m, x_max = l + l % 2, 2 * l - 2
        arr = parse_arrangement(f"W@0;F1@{l - 1};F2@{2 * l - 1}")
        want = wall_two_filters(l, m, n)
    got, windows = _kernel_windows(monkeypatch, PathQuery((0, 0), m, n, arr))
    assert got == want > 0
    assert len(windows) == n
    width = x_max // 2 + 1
    assert all(lo >= 0 and lo + 2 * (k - 1) <= x_max and k <= width for lo, k in windows)
    assert sum(k for _, k in windows) <= n * width


@pytest.mark.parametrize("l", [3, 5])
def test_dp_count_without_a_barrier_right_of_m_keeps_the_cone(monkeypatch, l):
    # desire2: W@0;F1@(l-1) with m >= l - 1 has nothing one-way right of
    # m, so row y keeps every column of its cone from the wall (or the
    # cone's left edge) to min(y, m + n - y).  (For l = 2 the filter at 1
    # would cut off column 0 instead.)
    n, m = 1000, l + l % 2
    arr = parse_arrangement(f"W@0;F1@{l - 1}")
    got, windows = _kernel_windows(monkeypatch, PathQuery((0, 0), m, n, arr))
    assert got == wall_filter_right(l, m, n) > 0
    assert [(lo, lo + 2 * (k - 1)) for lo, k in windows] == [
        (max(y & 1, m - n + y), min(y, m + n - y)) for y in range(n)]
