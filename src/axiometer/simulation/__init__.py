"""Voting simulation: profiles, rules, axioms, and collection estimation."""

from .axioms import (
    PUNCTUAL_TAGS,
    RELATIONAL_TAGS,
    AxiomSpec,
    check_axiom,
)
from .estimate import (
    DominanceResult,
    EstimatedCollection,
    ExperimentSpec,
    dominance_check,
    enumerate_collection,
    estimate_collection,
    estimated_from_json,
    estimated_to_json,
    experiment_from_json,
    run_experiment,
)
from .preferences import ImpartialCulture, Mallows, Profile
from .rules import RULE_TAGS, VotingRule, apply_rule

__all__ = [
    "AxiomSpec",
    "DominanceResult",
    "EstimatedCollection",
    "ExperimentSpec",
    "ImpartialCulture",
    "Mallows",
    "Profile",
    "PUNCTUAL_TAGS",
    "RELATIONAL_TAGS",
    "RULE_TAGS",
    "VotingRule",
    "apply_rule",
    "check_axiom",
    "dominance_check",
    "enumerate_collection",
    "estimate_collection",
    "estimated_from_json",
    "estimated_to_json",
    "experiment_from_json",
    "run_experiment",
]
