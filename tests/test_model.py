"""Arrangement validation, step resolution, and the text grammar."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrangements
from filterpaths.model import (
    Arrangement,
    ArrangementError,
    InvalidL,
    Kind,
    OverlappingRestrictions,
    Restriction,
    UnsortedAxes,
    WallInsideFilterBand,
    WeightRule,
    _restriction_rules,
    canonical_arrangement,
    format_arrangement,
    parse_arrangement,
    step_rules,
    validate,
)

W, WR, F1, F2 = Kind.WALL_LEFT, Kind.WALL_RIGHT, Kind.FILTER1, Kind.FILTER2


def arr(*pairs, semantics=WeightRule.LANDING):
    return Arrangement(tuple(Restriction(k, a) for k, a in pairs), semantics)


def step_weight(a, x, dx):
    """Weight of the step leaving column x in direction dx; 0 if forbidden."""
    return step_rules(a).get((x, dx), 1)


def allowed(a, x):
    """(dx, weight) of each step allowed from column x, rightward first."""
    return [(dx, w) for dx in (1, -1) if (w := step_weight(a, x, dx))]


class TestAllowedSteps:
    def test_wall_column_is_one_way(self):
        a = canonical_arrangement(2, 9)
        assert allowed(a, 0) == [(1, 1)]

    def test_between_filters_both_landings_doubled(self):
        a = canonical_arrangement(2, 9)
        assert allowed(a, 2) == [(1, 2), (-1, 2)]

    def test_unrestricted_interior_column(self):
        a = canonical_arrangement(5, 9)
        assert allowed(a, 2) == [(1, 1), (-1, 1)]

    def test_filter1_landing_from_right_doubled(self):
        a = arr((F1, 3))
        assert step_weight(a, 4, -1) == 2
        assert step_weight(a, 2, 1) == 1
        assert step_weight(a, 3, 1) == 1
        assert step_weight(a, 3, -1) == 0

    def test_filter2_modes_swap_rightward_weights(self):
        landing = arr((F2, 3))
        literal = arr((F2, 3), semantics=WeightRule.LITERAL)
        assert step_weight(landing, 2, 1) == 2 and step_weight(literal, 2, 1) == 1
        assert step_weight(landing, 3, 1) == 1 and step_weight(literal, 3, 1) == 2
        # leftward landing and the one-way rule agree across modes
        assert step_weight(landing, 4, -1) == step_weight(literal, 4, -1) == 2
        assert step_weight(landing, 3, -1) == step_weight(literal, 3, -1) == 0

    def test_filter1_identical_in_both_modes(self):
        landing = arr((F1, 3))
        literal = arr((F1, 3), semantics=WeightRule.LITERAL)
        for x in range(0, 7):
            for dx in (1, -1):
                assert step_weight(landing, x, dx) == step_weight(literal, x, dx)

    @given(arrangements(), st.integers(-12, 12))
    def test_weights_in_range_and_one_way_axes(self, a, x):
        steps = allowed(a, x)
        assert 0 <= len(steps) <= 2
        for dx, weight in steps:
            assert weight in (1, 2)
            assert dx in (1, -1)
        if any(r.axis == x for r in a.restrictions):
            assert len(steps) == 1


class TestValidate:
    def test_canonical_triple_ok(self):
        validate(arr((W, 0), (F1, 4), (F2, 9)))

    def test_adjacent_filters_overlap(self):
        with pytest.raises(OverlappingRestrictions):
            validate(arr((F1, 3), (F2, 4)))

    def test_unsorted_axes(self):
        with pytest.raises(UnsortedAxes):
            validate(arr((F2, 9), (F1, 4)))

    def test_duplicate_axis_unsorted(self):
        with pytest.raises(UnsortedAxes):
            validate(arr((W, 0), (F1, 0)))

    def test_wall_adjacent_to_doubled_landing(self):
        with pytest.raises(WallInsideFilterBand):
            validate(arr((W, 2), (F2, 3)))

    def test_filter_directly_left_of_wall(self):
        with pytest.raises(WallInsideFilterBand):
            validate(arr((F1, 0), (W, 1)))

    def test_wall_then_filter1_is_legal(self):
        # the l=2 canonical prefix: both claim the wall departure at weight 1
        validate(arr((W, 0), (F1, 1)))

    def test_wall_filter2_literal_mode_is_legal(self):
        validate(arr((W, 2), (F2, 3), semantics=WeightRule.LITERAL))

    def test_two_walls_box(self):
        a = validate(arr((W, 0), (WR, 1)))
        assert allowed(a, 0) == [(1, 1)]
        assert allowed(a, 1) == [(-1, 1)]


def reference_validate(arr):
    """The check as a pass of its own, before `step_rules` did it while
    merging: the slow-path reference for its error class and message.
    Returns the merged rules of a valid arrangement."""
    axes = [r.axis for r in arr.restrictions]
    for a, b in zip(axes, axes[1:]):
        if a >= b:
            raise UnsortedAxes(f"axes must strictly increase, got {a} before {b}")
    claimed = {}
    for r in arr.restrictions:
        for key, w in _restriction_rules(r, arr.semantics).items():
            if key in claimed and claimed[key][0] != w:
                other = claimed[key][1]
                wall = Kind.WALL_LEFT, Kind.WALL_RIGHT
                if r.kind in wall or other.kind in wall:
                    raise WallInsideFilterBand(
                        f"{other.token()} and {r.token()} disagree on column {key[0]}"
                    )
                raise OverlappingRestrictions(
                    f"{other.token()} and {r.token()} claim the same step at column {key[0]}"
                )
            claimed[key] = (w, r)
    return {key: w for key, (w, _) in claimed.items()}


@st.composite
def any_arrangements(draw):
    """Arrangements without the >= 2 gap, so both valid and invalid ones:
    gaps of 1 make filters and walls meet, gaps <= 0 unsort the axes."""
    axis, rs = draw(st.integers(-4, 4)), []
    for kind in draw(st.lists(st.sampled_from(list(Kind)), max_size=4)):
        rs.append(Restriction(kind, axis))
        axis += draw(st.sampled_from((-1, 0, 1, 1, 1, 2, 2, 2, 3)))
    return Arrangement(tuple(rs), draw(st.sampled_from(list(WeightRule))))


def outcome(f, a):
    try:
        return f(a)
    except ArrangementError as exc:
        return type(exc), str(exc)


class TestStepRulesChecks:
    @given(any_arrangements())
    @settings(max_examples=400)
    def test_same_rules_or_error_as_the_reference(self, a):
        want = outcome(reference_validate, a)
        assert outcome(step_rules, a) == want
        assert outcome(validate, a) == (a if isinstance(want, dict) else want)


class TestCanonicalArrangement:
    def test_l2_row7_axes(self):
        a = canonical_arrangement(2, 7)
        assert [(r.kind, r.axis) for r in a.restrictions] == [
            (W, 0), (F1, 1), (F2, 3), (F2, 5), (F2, 7)]
        assert a.semantics is WeightRule.LANDING

    def test_l5_row9_axes(self):
        a = canonical_arrangement(5, 9)
        assert [(r.kind, r.axis) for r in a.restrictions] == [(W, 0), (F1, 4), (F2, 9)]

    def test_l_below_two_rejected(self):
        with pytest.raises(InvalidL):
            canonical_arrangement(1, 10)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            canonical_arrangement(2, -1)


class TestGrammar:
    def test_round_trip(self):
        text = "W@0;F1@4;F2@9;F2@14"
        assert format_arrangement(parse_arrangement(text)) == text

    def test_negative_axis(self):
        a = parse_arrangement("F1@-3")
        assert a.restrictions == (Restriction(F1, -3),)

    def test_comma_separator_tolerated(self):
        assert parse_arrangement("W@0,F1@4") == parse_arrangement("W@0;F1@4")

    def test_empty_is_unrestricted(self):
        assert parse_arrangement("") == Arrangement()

    def test_bad_token_named(self):
        with pytest.raises(ArrangementError, match="F3@1"):
            parse_arrangement("W@0;F3@1")

    def test_invalid_arrangement_propagates(self):
        with pytest.raises(OverlappingRestrictions):
            parse_arrangement("F1@3;F2@4")

    @given(arrangements())
    def test_round_trip_random(self, a):
        assert parse_arrangement(format_arrangement(a), a.semantics) == a
