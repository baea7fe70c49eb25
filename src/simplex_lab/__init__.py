"""simplex-lab: n-distances, simplex inequalities, and best-constant search.

An n-distance generalizes a metric to n arguments: it vanishes exactly on
constant tuples, is symmetric, and satisfies the simplex inequality
d(x_1..x_n) <= K * sum_i d(..z at i..).  This package evaluates a catalog
of such maps, verifies their axioms and the partial/strong variants of the
inequality, estimates best constants with explicit witnesses, and builds
distances with prescribed constants.
"""

from .core import (
    CIRCLE_POINTS,
    DegenerateTupleError,
    FAIL,
    FiniteSpace,
    NDistance,
    NOT_APPLICABLE,
    PASS,
    Plane,
    Point,
    PropertyVerdict,
    RealLine,
    Space,
    check_axioms,
    check_identity,
    check_simplex,
    check_symmetry,
    distinct_count,
    evaluate,
    section,
)
from .geometry import (
    Circle,
    count_lines,
    fermat_value,
    ground_distance,
    smallest_enclosing_circle,
)
from .catalog import CatalogEntry, available_ids, make
from .analysis import (
    ConstantEstimate,
    Witness,
    check_attainment_transfer,
    check_partial_bound,
    check_partial_existence,
    check_sufficient_standard,
    check_symmetrization,
    estimate_best_constant,
    estimate_partial_constant,
    ratio,
)
from .properties import (
    check_lemma_mixed_bound,
    check_multi_to_ndistance,
    check_multidistance,
    check_nonincreasing_identification,
    check_repetition_invariance,
    check_strong_k_simplex,
    compositions,
    expand_composition,
    reduced_evaluator,
    strong_constant_general,
    strong_constant_standard,
    strong_threshold,
)
from .constructions import (
    single_anchor_distance,
    strong_extremal_distance,
    two_anchor_distance,
)

__version__ = "0.1.0"

__all__ = [
    "CIRCLE_POINTS",
    "CatalogEntry",
    "Circle",
    "ConstantEstimate",
    "DegenerateTupleError",
    "FAIL",
    "FiniteSpace",
    "NDistance",
    "NOT_APPLICABLE",
    "PASS",
    "Plane",
    "Point",
    "PropertyVerdict",
    "RealLine",
    "Space",
    "Witness",
    "available_ids",
    "check_attainment_transfer",
    "check_axioms",
    "check_identity",
    "check_lemma_mixed_bound",
    "check_multi_to_ndistance",
    "check_multidistance",
    "check_nonincreasing_identification",
    "check_partial_bound",
    "check_partial_existence",
    "check_repetition_invariance",
    "check_simplex",
    "check_strong_k_simplex",
    "check_sufficient_standard",
    "check_symmetry",
    "check_symmetrization",
    "compositions",
    "count_lines",
    "distinct_count",
    "estimate_best_constant",
    "estimate_partial_constant",
    "evaluate",
    "expand_composition",
    "fermat_value",
    "ground_distance",
    "make",
    "ratio",
    "reduced_evaluator",
    "section",
    "single_anchor_distance",
    "smallest_enclosing_circle",
    "strong_constant_general",
    "strong_constant_standard",
    "strong_extremal_distance",
    "strong_threshold",
    "two_anchor_distance",
    "__version__",
]
