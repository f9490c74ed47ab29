"""DP oracle vs exhaustive enumeration, plus oracle edge contracts."""

import time
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrangements
from filterpaths.model import (
    Arrangement,
    ArrangementError,
    Kind,
    Restriction,
    WeightRule,
    canonical_arrangement,
    parse_arrangement,
    step_rules,
    validate,
)
from filterpaths import oracle
from filterpaths.formulas import wall_term
from filterpaths.oracle import (
    DP_MAX_ROWS,
    ENUM_MAX_PATHS,
    ENUM_MAX_ROWS,
    InvalidQuery,
    PathQuery,
    TooLarge,
    dp_count,
    dp_rows,
    enum_weight,
    enumerate_paths,
    row_count,
)

F2_AT_1 = Arrangement((Restriction(Kind.FILTER2, 1),))
F2_AT_1_LITERAL = Arrangement((Restriction(Kind.FILTER2, 1),), WeightRule.LITERAL)


def _raised(f, q):
    with pytest.raises(Exception) as info:
        f(q)
    return type(info.value), str(info.value)


BAD_ARRANGEMENTS = [
    Arrangement((Restriction(Kind.WALL_LEFT, 3), Restriction(Kind.WALL_RIGHT, 1))),
    Arrangement((Restriction(Kind.FILTER1, 0), Restriction(Kind.FILTER2, 1))),
    Arrangement((Restriction(Kind.FILTER1, 0), Restriction(Kind.WALL_LEFT, 1))),
]


@pytest.mark.parametrize("arr", BAD_ARRANGEMENTS)
def test_step_rules_refuses_each_bad_arrangement(arr):
    with pytest.raises(ArrangementError):
        step_rules(arr)


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

    def test_row_limit_checked_before_the_cone(self):
        with pytest.raises(TooLarge):
            dp_count(PathQuery((0, 0), 10**6, DP_MAX_ROWS + 1))
        with pytest.raises(InvalidQuery):
            dp_count(PathQuery((0, 1), 10**6, DP_MAX_ROWS + 1))

    def test_streaming_keeps_memory_linear(self):
        q = PathQuery((0, 0), 2, 2000, parse_arrangement("W@0;F1@1;F2@3"))
        tracemalloc.start()
        try:
            assert dp_count(q) > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_wall_reflection_identity(self):
        wall = Arrangement((Restriction(Kind.WALL_LEFT, 0),))
        for n, row in enumerate(dp_rows(0, 16, wall)):
            for m in range(n % 2, n + 1, 2):
                assert row_count(row, 0, m) == wall_term(m, n)


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

    @pytest.mark.parametrize("q", [
        PathQuery((0, 1), 1, ENUM_MAX_ROWS + 1),
        PathQuery((0, 1), 1, ENUM_MAX_ROWS + 1, BAD_ARRANGEMENTS[0]),
        PathQuery((0, 0), 0, -1, BAD_ARRANGEMENTS[1]),
    ])
    def test_invalid_query_checked_before_depth(self, q):
        kind, message = _raised(enumerate_paths, q)
        assert kind is InvalidQuery
        assert (kind, message) == _raised(enum_weight, q) == _raised(dp_count, q)

    def test_empty_path(self):
        paths = enumerate_paths(PathQuery((2, 0), 2, 0))
        assert len(paths) == 1 and paths[0].weight == 1 and paths[0].steps() == ""

    def test_path_cap_lets_every_listing_of_20_rows_through(self):
        assert ENUM_MAX_PATHS >= comb(20, 10)

    def test_path_cap_refuses_before_building_any_path(self, monkeypatch):
        monkeypatch.setattr("filterpaths.oracle.WeightedPath",
                            lambda *_: pytest.fail("a path was built"))
        # the cap bounds the unrestricted count, which restrictions only cut
        with pytest.raises(TooLarge, match="paths"):
            enumerate_paths(PathQuery((3, 0), 5, 24, canonical_arrangement(2, 24)))

    def test_path_cap_checked_after_the_arrangement(self):
        kind, _ = _raised(enumerate_paths, PathQuery((0, 0), 0, 24, BAD_ARRANGEMENTS[0]))
        assert issubclass(kind, ArrangementError)

    def test_off_parity_listing_is_empty_not_refused(self):
        assert enumerate_paths(PathQuery((0, 0), 1, 24)) == []


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
        assert dp_count(q) == sum(p.weight for p in enumerate_paths(q))

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
        rules = step_rules(q.arrangement)
        for path in enumerate_paths(q):
            weight = 1
            for (x, y), (nx, ny) in zip(path.points, path.points[1:]):
                assert nx - x in (1, -1) and ny == y + 1
                step = rules.get((x, nx - x), 1)
                assert step
                weight *= step
            assert weight == path.weight

    def test_row_recurrence_matches_step_scatter(self):
        arr = canonical_arrangement(3, 12)
        rows = list(dp_rows(0, 12, arr))
        rules = step_rules(arr)
        columns = range(-12, 13)
        for n in range(0, 12):
            scattered = {}
            for x in columns:
                v = row_count(rows[n], 0, x)
                for dx in (1, -1):
                    w = rules.get((x, dx), 1)
                    if v and w:
                        scattered[x + dx] = scattered.get(x + dx, 0) + w * v
            recomputed = {x: v for x in columns if (v := row_count(rows[n + 1], 0, x))}
            assert scattered == recomputed


def _slow_weight(q):
    return sum(p.weight for p in enumerate_paths(q))


@st.composite
def meeting_queries(draw):
    """A query of up to 20 rows with a one-way column on, or next to, a
    column of the middle row n // 2 that a path from the start to the
    endpoint can cross: where `enum_weight` joins prefixes to suffixes."""
    start = draw(st.integers(-4, 4))
    n = draw(st.integers(1, 20))
    # endpoints off the centre keep the slow listing short at the deepest rows
    k = draw(st.integers(0, n).filter(lambda k: comb(n, k) <= 20_000))
    m, h = start + n - 2 * k, n // 2
    lo, hi = max(start - h, m - n + h), min(start + h, m + n - h)
    middle = lo + 2 * draw(st.integers(0, (hi - lo) // 2)) + draw(st.integers(-1, 1))
    count = draw(st.integers(1, 3))
    gaps = [draw(st.integers(2, 4)) for _ in range(count - 1)]
    first = middle - sum(gaps[:draw(st.integers(0, count - 1))])
    axes = [first + sum(gaps[:i]) for i in range(count)]
    kinds = [draw(st.sampled_from(list(Kind))) for _ in axes]
    arr = validate(Arrangement(tuple(map(Restriction, kinds, axes)),
                               draw(st.sampled_from(list(WeightRule)))))
    return PathQuery((start, 0), m, n, arr)


class TestEnumWeight:
    """enum_weight against its slow-path reference, the sum over the listing
    `enumerate_paths` (the test ids keep the name of the generator it
    replaced, `iter_paths`)."""

    @given(queries())
    @settings(max_examples=200, deadline=None)
    def test_equals_sum_over_iter_paths(self, q):
        assert enum_weight(q) == _slow_weight(q)

    @given(meeting_queries())
    @settings(max_examples=150, deadline=None)
    def test_equals_slow_weight_with_one_way_columns_at_the_middle_row(self, q):
        assert enum_weight(q) == _slow_weight(q)

    @pytest.mark.parametrize("arr", [
        Arrangement(),
        F2_AT_1,
        F2_AT_1_LITERAL,
        canonical_arrangement(2, 9),
        parse_arrangement("W@-1;F1@1;F2@3"),
        Arrangement((Restriction(Kind.WALL_RIGHT, 2),), WeightRule.LITERAL),
    ])
    def test_every_endpoint_of_small_rows(self, arr):
        for start in (-2, 0, 1):
            for n in range(0, 9):
                for m in range(start - n - 3, start + n + 4):
                    q = PathQuery((start, 0), m, n, arr)
                    assert enum_weight(q) == _slow_weight(q), q

    def test_row_zero(self):
        assert enum_weight(PathQuery((2, 0), 2, 0)) == 1
        assert enum_weight(PathQuery((2, 0), 3, 0)) == 0
        assert enum_weight(PathQuery((2, 0), 4, 0)) == 0

    @pytest.mark.parametrize("m, n", [(1, 4), (0, 3), (7, 3), (-7, 3), (11, 9), (-11, 9), (10, 9)])
    def test_off_parity_or_out_of_cone_is_zero(self, m, n):
        q = PathQuery((0, 0), m, n, F2_AT_1)
        assert enum_weight(q) == 0 == _slow_weight(q)

    def test_known_weights(self):
        assert enum_weight(PathQuery((0, 0), 2, 4, F2_AT_1_LITERAL)) == 12
        assert enum_weight(PathQuery((0, 0), 2, 4, F2_AT_1)) == 8
        assert enum_weight(PathQuery((0, 0), 3, 5, canonical_arrangement(2, 5))) == 8

    def test_known_weights_without_the_dp(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("enumeration called into the DP")

        for name in ("advance_row", "dp_rows", "dp_count"):
            monkeypatch.setattr(oracle, name, refuse)
        self.test_known_weights()

    def test_deepest_rows_within_budget(self):
        t0 = time.perf_counter()
        n = ENUM_MAX_ROWS
        assert enum_weight(PathQuery((0, 0), 0, n)) == comb(n, n // 2)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("arr", BAD_ARRANGEMENTS)
    def test_invalid_arrangement_raises_like_iter_paths(self, arr):
        q = PathQuery((0, 0), 0, 4, arr)
        kind, message = _raised(enum_weight, q)
        assert issubclass(kind, ArrangementError)
        assert (kind, message) == _raised(enumerate_paths, q)

    @pytest.mark.parametrize("q", [
        PathQuery((0, 0), 0, -1),
        PathQuery((0, 2), 2, 4),
        PathQuery((0, 2), 0, -1, BAD_ARRANGEMENTS[0]),
        PathQuery((0, 1), 1, 3, BAD_ARRANGEMENTS[1]),
    ])
    def test_invalid_query_raises_in_iter_paths_order(self, q):
        kind, message = _raised(enum_weight, q)
        assert kind is InvalidQuery
        assert (kind, message) == _raised(enumerate_paths, q)

    def test_depth_guard(self):
        with pytest.raises(TooLarge):
            enum_weight(PathQuery((0, 0), 1, ENUM_MAX_ROWS + 1))
        with pytest.raises(TooLarge):
            enum_weight(PathQuery((0, 0), 10**6, ENUM_MAX_ROWS + 1, BAD_ARRANGEMENTS[0]))
        with pytest.raises(InvalidQuery):
            enum_weight(PathQuery((0, 1), 1, ENUM_MAX_ROWS + 1))


class TestCountTable:
    """The DP's table of counts, streamed one row at a time by `dp_rows`
    and read by `row_count`."""

    def test_row_out_of_range(self):
        stream = dp_rows(0, 4, Arrangement())
        rows = [next(stream) for _ in range(5)]
        assert [len(row) for row in rows] == [1, 2, 3, 4, 5]
        with pytest.raises(StopIteration):
            next(stream)

    def test_column_out_of_window_is_zero(self):
        *_, row = dp_rows(0, 4, Arrangement())
        assert row_count(row, 0, 99) == 0
        assert row_count(row, 0, -99) == 0
        assert row_count(row, 0, 6) == 0 == row_count(row, 0, -6)
        assert [row_count(row, 0, m) for m in range(-4, 5)] == [1, 0, 4, 0, 6, 0, 4, 0, 1]

    def test_start_offset_and_parity(self):
        rows = list(dp_rows(-3, 3, Arrangement()))
        assert [row_count(rows[3], -3, m) for m in range(-6, 1)] == [1, 0, 3, 0, 3, 0, 1]
        assert row_count(rows[0], -3, -3) == 1
        assert row_count(rows[0], -3, -2) == row_count(rows[0], -3, -4) == 0

    def test_negative_row_count_rejected(self):
        with pytest.raises(InvalidQuery):
            dp_rows(0, -1, Arrangement())
        with pytest.raises(InvalidQuery):
            dp_rows(0, -1, BAD_ARRANGEMENTS[0])

    def test_row_limit_refused_before_allocating(self):
        with pytest.raises(TooLarge):
            dp_rows(0, DP_MAX_ROWS + 1, Arrangement())
        with pytest.raises(TooLarge):
            dp_rows(0, DP_MAX_ROWS + 1, BAD_ARRANGEMENTS[0])

    @pytest.mark.parametrize("arr", BAD_ARRANGEMENTS)
    def test_invalid_arrangement_raises_at_the_call(self, arr):
        q = PathQuery((0, 0), 0, 4, arr)
        kind, message = _raised(lambda q: dp_rows(0, q.end_n, q.arrangement), q)
        assert issubclass(kind, ArrangementError)
        assert (kind, message) == _raised(dp_count, q)
