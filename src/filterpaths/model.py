"""Walk model: steps, one-way column restrictions, and their arrangements.

Walks live on the integer lattice with two unit steps, up-right (+1, +1)
and up-left (-1, +1).  A restriction occupies a single column and makes it
one-way; filter-type columns additionally attach weight 2 to some of the
steps touching them.  An Arrangement is an ordered, conflict-free set of
restrictions together with the weighting rule used for type-2 columns.

Every rule a restriction imposes is keyed by (source column, direction),
so an arrangement is valid exactly when the union of its restrictions'
rules is single-valued.  `step_rules` is the one place that is checked:
it merges the rules, raises on the first conflict, and caches the merged
map of each valid arrangement.  `validate` and every oracle go through it,
so each restriction's rules are derived once per arrangement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

RIGHT = 1
LEFT = -1

Point = tuple[int, int]


class Kind(Enum):
    """Restriction kinds; values double as tokens of the text grammar."""

    WALL_LEFT = "W"
    WALL_RIGHT = "WR"
    FILTER1 = "F1"
    FILTER2 = "F2"


class WeightRule(Enum):
    """How type-2 filter columns distribute their weight-2 steps.

    LANDING (default): every step landing on a type-2 axis has weight 2 and
    the forced departure has weight 1.  LITERAL: the departure and the
    landing from the right carry weight 2, the landing from the left
    weight 1.  Type-1 filters behave identically under both rules.
    """

    LANDING = "landing"
    LITERAL = "literal"


@dataclass(frozen=True)
class Restriction:
    kind: Kind
    axis: int

    def token(self) -> str:
        return f"{self.kind.value}@{self.axis}"


class ArrangementError(ValueError):
    """An arrangement violates one of its invariants."""


class UnsortedAxes(ArrangementError):
    pass


class OverlappingRestrictions(ArrangementError):
    pass


class WallInsideFilterBand(ArrangementError):
    pass


class InvalidL(ValueError):
    """Period parameter below 2."""


@dataclass(frozen=True)
class Arrangement:
    restrictions: tuple[Restriction, ...] = ()
    semantics: WeightRule = WeightRule.LANDING

    def shifted(self, t: int) -> "Arrangement":
        """The same arrangement with every axis moved by t."""
        moved = tuple(Restriction(r.kind, r.axis + t) for r in self.restrictions)
        return Arrangement(moved, self.semantics)


def _restriction_rules(r: Restriction, semantics: WeightRule) -> dict[tuple[int, int], int]:
    """Step rules imposed by one restriction, keyed by (source column, dx).

    Weight 0 encodes a forbidden step.  Keys not present are unconstrained
    (default weight 1).
    """
    d = r.axis
    if r.kind is Kind.WALL_LEFT:
        return {(d, RIGHT): 1, (d, LEFT): 0}
    if r.kind is Kind.WALL_RIGHT:
        return {(d, LEFT): 1, (d, RIGHT): 0}
    if r.kind is Kind.FILTER1:
        return {(d, RIGHT): 1, (d, LEFT): 0, (d - 1, RIGHT): 1, (d + 1, LEFT): 2}
    # FILTER2: the two weight rules swap the rightward weights on d-1 and d
    if semantics is WeightRule.LANDING:
        return {(d, RIGHT): 1, (d, LEFT): 0, (d - 1, RIGHT): 2, (d + 1, LEFT): 2}
    return {(d, RIGHT): 2, (d, LEFT): 0, (d - 1, RIGHT): 1, (d + 1, LEFT): 2}


@lru_cache(maxsize=None)
def step_rules(arr: Arrangement) -> dict[tuple[int, int], int]:
    """Merged (source column, dx) -> weight map; 0 forbidden, absent means 1.

    Checks the arrangement while merging and raises naming the first
    violated invariant: UnsortedAxes when axes are not strictly
    increasing, WallInsideFilterBand when a wall and a filter disagree
    about a step, OverlappingRestrictions when two filters do.  Cached per
    valid arrangement; callers must not mutate the result.
    """
    axes = [r.axis for r in arr.restrictions]
    for a, b in zip(axes, axes[1:]):
        if a >= b:
            raise UnsortedAxes(f"axes must strictly increase, got {a} before {b}")
    merged: dict[tuple[int, int], int] = {}
    owner: dict[tuple[int, int], Restriction] = {}
    for r in arr.restrictions:
        for key, w in _restriction_rules(r, arr.semantics).items():
            if merged.get(key, w) != w:
                other = owner[key]
                wall = Kind.WALL_LEFT, Kind.WALL_RIGHT
                if r.kind in wall or other.kind in wall:
                    raise WallInsideFilterBand(
                        f"{other.token()} and {r.token()} disagree on column {key[0]}"
                    )
                raise OverlappingRestrictions(
                    f"{other.token()} and {r.token()} claim the same step at column {key[0]}"
                )
            merged[key] = w
            owner[key] = r
    return merged


def validate(arr: Arrangement) -> Arrangement:
    """Check arrangement invariants (see `step_rules`, which raises);
    returns the arrangement itself so calls can be chained."""
    step_rules(arr)
    return arr


def canonical_arrangement(l: int, n_max_row: int) -> Arrangement:
    """Left wall at 0, type-1 filter at l-1, type-2 filters at nl-1 for n >= 2.

    Type-2 filters are truncated to axes <= n_max_row + 1; farther columns
    are unreachable from the origin within n_max_row steps.
    """
    if l < 2:
        raise InvalidL(f"period parameter must be >= 2, got {l}")
    if n_max_row < 0:
        raise ValueError(f"n_max_row must be >= 0, got {n_max_row}")
    rs = [Restriction(Kind.WALL_LEFT, 0), Restriction(Kind.FILTER1, l - 1)]
    n = 2
    while n * l - 1 <= n_max_row + 1:
        rs.append(Restriction(Kind.FILTER2, n * l - 1))
        n += 1
    return validate(Arrangement(tuple(rs)))


_TOKEN = re.compile(r"^(WR|W|F1|F2)@(-?\d+)$")
_KIND_BY_TOKEN = {k.value: k for k in Kind}


def parse_arrangement(text: str, semantics: WeightRule = WeightRule.LANDING) -> Arrangement:
    """Parse the text grammar, e.g. ``"W@0;F1@4;F2@9"``, and validate.

    Tokens are separated by ';' (',' is tolerated).  An empty string is the
    unrestricted arrangement.
    """
    rs = []
    for raw in re.split(r"[;,]", text):
        tok = raw.strip()
        if not tok:
            continue
        m = _TOKEN.match(tok)
        if not m:
            raise ArrangementError(f"bad restriction token {tok!r}")
        rs.append(Restriction(_KIND_BY_TOKEN[m.group(1)], int(m.group(2))))
    return validate(Arrangement(tuple(rs), semantics))


def format_arrangement(arr: Arrangement) -> str:
    return ";".join(r.token() for r in arr.restrictions)
