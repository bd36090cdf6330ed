"""Robust comparison of rules across several probability models.

When the sampling distribution is ambiguous, a rule is described by a family
of collections, one per candidate model.  Two roads to a verdict: collapse
the family into a single summary collection (convex combination), or compare
the sets of measure values directly.  The three partial criteria are nested —
min-vs-max decides least often, then point-wise, then max-and-min — while the
alpha-maxmin score always decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacities import Capacity
from .collections import (
    DEFAULT_TOL,
    Collection,
    collection_from_json,
    require_member,
)
from .errors import AlignmentError, ParseError, RangeError, SchemaError, WeightError
from .lattice import AxiomSet, subset_map
from .performance import evaluate

BETTER = "better"
WORSE = "worse"
EQUIVALENT = "equivalent"
INCOMPARABLE = "incomparable"

CRITERION_TAGS = ("alpha_maxmin", "max_and_min", "pointwise", "min_vs_max")


@dataclass(frozen=True, eq=False)
class CollectionFamily:
    """Collections of one rule under K probability models.

    Construction does not check feasibility: every evaluation does, at the
    caller's tolerance, and :func:`family_from_json` does at its own.
    """

    axioms: AxiomSet
    members: tuple[Collection, ...]
    model_names: tuple[str, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise RangeError("a family needs at least one collection")
        names = tuple(self.model_names) if self.model_names else tuple(
            f"model_{k}" for k in range(len(members))
        )
        if len(names) != len(members):
            raise SchemaError(
                f"{len(names)} model names for {len(members)} collections"
            )
        for c in members:
            if c.axioms.labels != self.axioms.labels:
                raise SchemaError("family members must share the axiom set")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "model_names", names)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Comparison:
    """Verdict of one robust criterion, with the values that support it."""

    verdict: str
    criterion: str
    values_f: tuple[float, ...]
    values_g: tuple[float, ...]


def family_values(
    cap: Capacity,
    fam: CollectionFamily,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Measure value of every family member, in model order."""
    return np.array([evaluate(cap, c, measure, tol).value for c in fam.members])


def summarize(fam: CollectionFamily, beta: Sequence[float] | None = None) -> Collection:
    """Convex combination of the members (uniform weights by default).

    Feasibility is preserved: the feasible set is convex.
    """
    k = fam.size
    if beta is None:
        weights = np.full(k, 1.0 / k)
    else:
        weights = np.asarray(beta, dtype=np.float64)
        if weights.shape != (k,):
            raise WeightError(f"need {k} weights, got shape {weights.shape}")
        if not np.isfinite(weights).all():
            raise WeightError(f"summary weights must be finite, got {weights.tolist()}")
        if np.any(weights < 0.0):
            raise WeightError("summary weights must be non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise WeightError(f"summary weights must sum to 1, got {weights.sum()!r}")
    p = np.zeros(fam.axioms.n_masks)
    for w, c in zip(weights, fam.members):
        p += w * c.p
    np.clip(p, 0.0, 1.0, out=p)
    p[0] = 1.0
    return Collection(axioms=fam.axioms, p=p)


def alpha_maxmin_score(
    cap: Capacity,
    fam: CollectionFamily,
    alpha: float,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> float:
    """alpha * best case + (1 - alpha) * worst case over the family."""
    if not 0.0 <= alpha <= 1.0:
        raise RangeError(f"alpha must be in [0, 1], got {alpha}")
    values = family_values(cap, fam, measure, tol)
    return float(alpha * values.max() + (1.0 - alpha) * values.min())


def _check_families(cap: Capacity, fam_f: CollectionFamily, fam_g: CollectionFamily) -> None:
    if fam_f.axioms.labels != fam_g.axioms.labels:
        raise SchemaError("families use different axiom sets")
    if cap.axioms.labels != fam_f.axioms.labels:
        raise SchemaError("capacity axioms do not match the families")


def compare_max_and_min(
    cap: Capacity,
    fam_f: CollectionFamily,
    fam_g: CollectionFamily,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> Comparison:
    """Better iff ahead on both the best case and the worst case."""
    _check_families(cap, fam_f, fam_g)
    vf = family_values(cap, fam_f, measure, tol)
    vg = family_values(cap, fam_g, measure, tol)
    d_max = float(vf.max() - vg.max())
    d_min = float(vf.min() - vg.min())
    if abs(d_max) <= tol and abs(d_min) <= tol:
        verdict = EQUIVALENT
    elif d_max >= -tol and d_min >= -tol:
        verdict = BETTER
    elif d_max <= tol and d_min <= tol:
        verdict = WORSE
    else:
        verdict = INCOMPARABLE
    return Comparison(verdict, "max_and_min", tuple(vf), tuple(vg))


def compare_pointwise(
    cap: Capacity,
    fam_f: CollectionFamily,
    fam_g: CollectionFamily,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> Comparison:
    """Better iff ahead under every single model; needs aligned model lists."""
    _check_families(cap, fam_f, fam_g)
    if fam_f.model_names != fam_g.model_names:
        raise AlignmentError(
            "point-wise comparison is defined only for identical model lists; "
            f"got {fam_f.model_names} vs {fam_g.model_names}"
        )
    vf = family_values(cap, fam_f, measure, tol)
    vg = family_values(cap, fam_g, measure, tol)
    diff = vf - vg
    if np.all(np.abs(diff) <= tol):
        verdict = EQUIVALENT
    elif np.all(diff >= -tol):
        verdict = BETTER
    elif np.all(diff <= tol):
        verdict = WORSE
    else:
        verdict = INCOMPARABLE
    return Comparison(verdict, "pointwise", tuple(vf), tuple(vg))


def compare_min_vs_max(
    cap: Capacity,
    fam_f: CollectionFamily,
    fam_g: CollectionFamily,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> Comparison:
    """Better iff the worst case of F beats the best case of G."""
    _check_families(cap, fam_f, fam_g)
    vf = family_values(cap, fam_f, measure, tol)
    vg = family_values(cap, fam_g, measure, tol)
    f_dominates = float(vf.min()) >= float(vg.max()) - tol
    g_dominates = float(vg.min()) >= float(vf.max()) - tol
    if f_dominates and g_dominates:
        verdict = EQUIVALENT
    elif f_dominates:
        verdict = BETTER
    elif g_dominates:
        verdict = WORSE
    else:
        verdict = INCOMPARABLE
    return Comparison(verdict, "min_vs_max", tuple(vf), tuple(vg))


# ---------------------------------------------------------------------------
# Family JSON: {"axioms": [...], "models": ["IC", "mallows_0.8"],
#               "collections": [{subset map}, ...]}
# Each collection entry is the bare subset->probability map; a full
# collection object with matching axioms is accepted too.
# ---------------------------------------------------------------------------


def family_from_json(data: dict, tol: float = DEFAULT_TOL) -> CollectionFamily:
    """Parse the family schema; raises ParseError on any deviation and
    InfeasibleCollectionError when a member is infeasible at ``tol``."""
    from .collections import _axioms_from_json, _subset_array_from_json

    if not isinstance(data, dict):
        raise ParseError("family document must be a JSON object")
    required = {"axioms", "models", "collections"}
    if set(data) != required:
        raise ParseError(f"family document must have exactly the keys {sorted(required)}")
    axioms = _axioms_from_json(data["axioms"])
    models = data["models"]
    if not isinstance(models, list) or not all(isinstance(x, str) for x in models):
        raise ParseError('"models" must be a list of strings')
    entries = data["collections"]
    if not isinstance(entries, list) or not entries:
        raise ParseError('"collections" must be a non-empty list')
    if len(models) != len(entries):
        raise ParseError(
            f"{len(models)} model names for {len(entries)} collections"
        )
    members = []
    for entry in entries:
        if isinstance(entry, dict) and set(entry) == {"axioms", "p"}:
            member = collection_from_json(entry)
            if member.axioms.labels != axioms.labels:
                raise ParseError("embedded collection uses a different axiom set")
            members.append(member)
            continue
        p = _subset_array_from_json(axioms, entry, "collections[]", 1.0)
        try:
            members.append(Collection(axioms=axioms, p=p))
        except RangeError as exc:
            raise ParseError(str(exc)) from exc
    for member in members:
        require_member(member, tol)
    return CollectionFamily(axioms=axioms, members=tuple(members), model_names=tuple(models))


def family_to_json(fam: CollectionFamily) -> dict:
    return {
        "axioms": list(fam.axioms.labels),
        "models": list(fam.model_names),
        "collections": [subset_map(fam.axioms, c.p) for c in fam.members],
    }
