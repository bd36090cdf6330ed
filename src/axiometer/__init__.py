"""Quantitative analysis of axiom satisfaction.

Given the probabilities with which a rule satisfies every combination of a
finite set of axioms, this package validates those collections for
consistency, scores rules under capacity-weighted performance measures,
allocates the overall violation mass across axioms, compares rules robustly
across several probability models, and estimates the collections themselves
by simulating voting rules.
"""

from . import simulation
from .capacities import (
    Capacity,
    CapacityReport,
    capacity_from_json,
    capacity_moebius,
    capacity_to_json,
    cardinality_capacity,
    normalize,
    validate_capacity,
)
from .collections import (
    Collection,
    ContributionVector,
    FeasibilityReport,
    FrechetViolation,
    collection_from_json,
    collection_to_json,
    contributions,
    edge,
    extreme,
    frechet_check,
    is_member,
    random_collection,
    reconstruct,
    require_member,
    worlds_matrix,
)
from .errors import (
    AlignmentError,
    ArityError,
    AxiometerError,
    DuplicateAxiomError,
    InfeasibleCollectionError,
    MonotonicityError,
    NegativeWeightError,
    ParseError,
    RangeError,
    SchemaError,
    SizeError,
    UnknownAxiomError,
    WeightError,
)
from .incompatibility import (
    Game,
    IncompatibilityAllocation,
    banzhaf,
    shapley,
    shapley_bruteforce,
    shapley_via_moebius,
    to_game,
)
from .lattice import (
    MAX_AXIOMS,
    AxiomSet,
    moebius_subset,
    moebius_superset,
    subset_vector,
    zeta_subset,
    zeta_superset,
)
from .performance import (
    MEASURE_TAGS,
    PerformanceResult,
    RankedEntry,
    evaluate,
    moebius_weights,
    perf_min_diff,
    perf_moebius,
    perf_weighted_sum,
    rank,
)
from .robustness import (
    CollectionFamily,
    Comparison,
    alpha_maxmin_score,
    compare_alpha_maxmin,
    compare_max_and_min,
    compare_min_vs_max,
    compare_pointwise,
    family_from_json,
    family_to_json,
    family_values,
    summarize,
)

__version__ = "0.1.0"
