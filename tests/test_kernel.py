"""The DP row step on parity-split rows, and both DP drivers against the
full-width scatter DP they replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrangements
from filterpaths import KERNEL_BACKEND
from filterpaths.model import (
    LEFT,
    RIGHT,
    Arrangement,
    WeightRule,
    canonical_arrangement,
    step_rules,
)
from filterpaths.oracle import PathQuery, advance_row, dp_count, dp_rows, row_count


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
    # step; the fixes at -2 and 4 lie outside the window
    fixes = [(-2, -1, -1), (0, 1, 0), (2, 0, 1), (4, -1, -1)]
    cols = [x for x, _, _ in fixes]
    assert advance_row([1, 3], 0, cols, fixes) == [1, 8, 3]


def test_pure_kernel_window_grows_by_one():
    # columns -1, 1 -> -2, 0, 2: one cell longer, starting at lo - 1
    assert advance_row([5, 7], -1, [], []) == [5, 12, 7]
    assert advance_row([5, 7], -1, [-1], [(-1, 0, 1)]) == [10, 12, 7]


def test_forbidden_steps_drop_mass():
    assert advance_row([0, 4, 0], -2, [0], [(0, -1, -1)]) == [0, 0, 0, 0]


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
