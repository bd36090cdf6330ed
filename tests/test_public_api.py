"""The exported names of the package, pinned.

A public name is removed (or added) only on purpose: doing so means editing
the lists below, and the change is noted in CHANGES.md.
"""

import dataclasses
import types

import axiometer
import axiometer.simulation

AXIOMETER = [
    "AlignmentError", "ArityError", "AxiomSet", "AxiometerError", "Capacity",
    "CapacityReport", "Collection", "CollectionFamily", "Comparison",
    "ContributionVector", "DuplicateAxiomError", "FeasibilityReport", "FrechetViolation",
    "IncompatibilityAllocation", "InfeasibleCollectionError", "MAX_AXIOMS",
    "MEASURE_TAGS", "MonotonicityError", "NegativeWeightError", "ParseError",
    "PerformanceResult", "RangeError", "RankedEntry", "SchemaError", "SizeError",
    "UnknownAxiomError", "WeightError", "alpha_maxmin_score", "banzhaf",
    "capacity_from_json", "capacity_moebius", "capacity_to_json", "cardinality_capacity",
    "collection_from_json", "collection_to_json", "compare_alpha_maxmin",
    "compare_max_and_min", "compare_min_vs_max", "compare_pointwise", "contributions",
    "edge", "evaluate", "extreme", "family_from_json", "family_to_json", "family_values",
    "frechet_check", "is_member", "moebius_subset", "moebius_superset", "normalize",
    "perf_min_diff", "perf_moebius", "perf_weighted_sum", "random_collection", "rank",
    "reconstruct", "require_member", "shapley", "shapley_bruteforce",
    "shapley_via_moebius", "subset_vector", "summarize", "validate_capacity",
    "worlds_matrix", "zeta_subset", "zeta_superset",
]

SIMULATION = [
    "AxiomSpec", "DominanceResult", "EstimatedCollection", "ExperimentSpec",
    "ImpartialCulture", "Mallows", "PUNCTUAL_TAGS", "Profile", "RELATIONAL_TAGS",
    "RULE_TAGS", "VotingRule", "apply_rule", "check_axiom", "dominance_check",
    "enumerate_collection", "estimate_collection", "estimated_from_json",
    "estimated_to_json", "experiment_from_json", "run_experiment",
]


def exported(module) -> list[str]:
    """Public names bound in ``module``, submodules aside."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_axiometer_exports():
    assert exported(axiometer) == AXIOMETER


def test_simulation_exports():
    assert exported(axiometer.simulation) == SIMULATION
    assert sorted(axiometer.simulation.__all__) == SIMULATION


def test_result_fields():
    fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert fields(axiometer.ContributionVector) == ["axioms", "alpha"]
    assert fields(axiometer.simulation.EstimatedCollection) == [
        "collection", "n_samples", "seed", "subset_counts", "stderr",
    ]
