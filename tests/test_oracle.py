"""DP oracle vs exhaustive enumeration, plus oracle edge contracts."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrangements
from filterpaths.model import (
    Arrangement,
    Kind,
    Restriction,
    WeightRule,
    allowed_steps,
    canonical_arrangement,
)
from filterpaths.formulas import wall_term
from filterpaths.oracle import (
    DP_MAX_ROWS,
    ENUM_MAX_ROWS,
    InvalidQuery,
    PathQuery,
    TooLarge,
    count_table,
    dp_count,
    enumerate_paths,
    iter_paths,
)

F2_AT_1 = Arrangement((Restriction(Kind.FILTER2, 1),))
F2_AT_1_LITERAL = Arrangement((Restriction(Kind.FILTER2, 1),), WeightRule.LITERAL)


class TestDpCount:
    def test_unrestricted_is_binomial(self):
        assert dp_count(PathQuery((0, 0), 2, 4)) == 4

    def test_canonical_l2(self):
        arr = canonical_arrangement(2, 5)
        assert dp_count(PathQuery((0, 0), 1, 5, arr)) == 4

    def test_filter2_literal_weighting(self):
        assert dp_count(PathQuery((0, 0), 2, 4, F2_AT_1_LITERAL)) == 12

    def test_filter2_landing_weighting(self):
        assert dp_count(PathQuery((0, 0), 2, 4, F2_AT_1)) == 8

    def test_parity_impossible_is_zero(self):
        assert dp_count(PathQuery((0, 0), 1, 4)) == 0

    def test_unreachable_is_zero(self):
        assert dp_count(PathQuery((0, 0), 7, 3)) == 0

    def test_row_zero(self):
        assert dp_count(PathQuery((3, 0), 3, 0)) == 1
        assert dp_count(PathQuery((3, 0), 1, 0)) == 0

    def test_negative_row_rejected(self):
        with pytest.raises(InvalidQuery):
            dp_count(PathQuery((0, 0), 0, -1))

    def test_start_off_row_zero_rejected(self):
        with pytest.raises(InvalidQuery):
            dp_count(PathQuery((0, 2), 2, 4))

    def test_wall_reflection_identity(self):
        wall = Arrangement((Restriction(Kind.WALL_LEFT, 0),))
        table = count_table(0, 16, wall)
        for n in range(0, 17):
            for m in range(n % 2, n + 1, 2):
                assert table.count(m, n) == wall_term(m, n)


class TestEnumeratePaths:
    def test_two_unrestricted_paths(self):
        paths = enumerate_paths(PathQuery((0, 0), 0, 2))
        assert [(p.steps(), p.weight) for p in paths] == [("RL", 1), ("LR", 1)]

    def test_wall_blocks_left_start(self):
        wall = Arrangement((Restriction(Kind.WALL_LEFT, 0),))
        paths = enumerate_paths(PathQuery((0, 0), 1, 3, wall))
        assert [(p.steps(), p.weight) for p in paths] == [("RRL", 1), ("RLR", 1)]

    def test_canonical_weighted_pair(self):
        arr = canonical_arrangement(2, 5)
        paths = enumerate_paths(PathQuery((0, 0), 3, 5, arr))
        assert [(p.steps(), p.weight) for p in paths] == [("RRRRL", 4), ("RRLRR", 4)]

    def test_points_and_weight_fields(self):
        arr = canonical_arrangement(2, 3)
        (path,) = enumerate_paths(PathQuery((0, 0), 1, 3, arr))
        assert path.points == ((0, 0), (1, 1), (2, 2), (1, 3))
        assert path.weight == 2

    def test_depth_guard(self):
        with pytest.raises(TooLarge):
            enumerate_paths(PathQuery((0, 0), 1, ENUM_MAX_ROWS + 1))

    def test_empty_path(self):
        paths = enumerate_paths(PathQuery((2, 0), 2, 0))
        assert len(paths) == 1 and paths[0].weight == 1 and paths[0].steps() == ""


@st.composite
def queries(draw):
    arr = draw(arrangements())
    start = draw(st.integers(-6, 6))
    n = draw(st.integers(0, 14))
    m = start + n - 2 * draw(st.integers(0, n))
    return PathQuery((start, 0), m, n, arr)


class TestOracleProperties:
    @given(queries())
    @settings(max_examples=150, deadline=None)
    def test_dp_equals_enumeration(self, q):
        assert dp_count(q) == sum(p.weight for p in iter_paths(q))

    @given(queries(), st.integers(-7, 7))
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance(self, q, t):
        shifted = PathQuery(
            (q.start[0] + t, 0), q.end_m + t, q.end_n, q.arrangement.shifted(t)
        )
        assert dp_count(shifted) == dp_count(q)

    @given(queries())
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, q):
        assert dp_count(q) >= 0

    @given(queries())
    @settings(max_examples=60, deadline=None)
    def test_each_path_walks_allowed_steps(self, q):
        for path in iter_paths(q):
            weight = 1
            for a, b in zip(path.points, path.points[1:]):
                options = {next_pt: step for step, next_pt in allowed_steps(q.arrangement, a)}
                assert b in options
                weight *= options[b].weight
            assert weight == path.weight

    def test_row_recurrence_matches_step_scatter(self):
        arr = canonical_arrangement(3, 12)
        table = count_table(0, 12, arr)
        for n in range(0, 12):
            scattered = {}
            for i, v in enumerate(table.rows[n]):
                if v:
                    for step, (nx, _) in allowed_steps(arr, (table.lo + i, n)):
                        scattered[nx] = scattered.get(nx, 0) + step.weight * v
            recomputed = {
                table.lo + i: v for i, v in enumerate(table.rows[n + 1]) if v
            }
            assert scattered == recomputed


class TestCountTable:
    def test_row_out_of_range(self):
        table = count_table(0, 4, Arrangement())
        with pytest.raises(InvalidQuery):
            table.count(0, 5)

    def test_column_out_of_window_is_zero(self):
        table = count_table(0, 4, Arrangement())
        assert table.count(99, 4) == 0
        assert table.count(-99, 4) == 0

    def test_negative_row_count_rejected(self):
        with pytest.raises(InvalidQuery):
            count_table(0, -1, Arrangement())

    def test_row_limit_refused_before_allocating(self):
        with pytest.raises(TooLarge):
            count_table(0, DP_MAX_ROWS + 1, Arrangement())
