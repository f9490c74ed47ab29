"""Exact counting of weighted lattice walks with wall and filter columns.

Walls are one-way columns; filters are one-way columns whose touching
steps carry weight 2.  The package pairs closed-form counting formulas
with an exact dynamic-programming oracle and a differential-verification
harness that proves them equal over desk-scale parameter sweeps.
"""

__version__ = "0.1.0"

from .formulas import (
    DomainError,
    InvalidN,
    binom,
    count_free,
    filter1_left,
    filter1_neg,
    filter1_right,
    filter2_left,
    filter2_neg,
    filter2_right,
    multiplicity,
    poly_p,
    poly_q,
    pq_recurrence_check,
    strip_index,
    two_filters,
    two_filters_from_even,
    two_filters_from_odd,
    wall_filter_right,
    wall_filter_strip1,
    wall_left,
    wall_right,
    wall_term,
    wall_two_filters,
)
from .model import (
    Arrangement,
    ArrangementError,
    InvalidL,
    Kind,
    OverlappingRestrictions,
    Restriction,
    UnsortedAxes,
    WallInsideFilterBand,
    WeightRule,
    canonical_arrangement,
    format_arrangement,
    parse_arrangement,
    validate,
)
from .oracle import (
    KERNEL_BACKEND,
    InvalidQuery,
    PathQuery,
    TooLarge,
    WeightedPath,
    dp_count,
    dp_rows,
    enum_weight,
    enumerate_paths,
    row_count,
)
from .verify import (
    Cell,
    CompareReport,
    Lane,
    SweepSpec,
    run_lemma_suite,
    run_property_suite,
    run_theorem_suite,
)
