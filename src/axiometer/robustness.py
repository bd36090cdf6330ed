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
from .collections import DEFAULT_TOL, Collection, collection_from_json
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

    Neither construction nor :func:`family_from_json` checks feasibility:
    every evaluation checks each member it reads, at the caller's tolerance.
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


def _verdict(f_ahead: bool, g_ahead: bool) -> str:
    """The verdict on F when each family is or is not ahead of the other, up to tol."""
    if f_ahead and g_ahead:
        return EQUIVALENT
    if f_ahead:
        return BETTER
    if g_ahead:
        return WORSE
    return INCOMPARABLE


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
    verdict = _verdict(d_max >= -tol and d_min >= -tol, d_max <= tol and d_min <= tol)
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
    verdict = _verdict(bool(np.all(diff >= -tol)), bool(np.all(diff <= tol)))
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
    verdict = _verdict(
        float(vf.min()) >= float(vg.max()) - tol, float(vg.min()) >= float(vf.max()) - tol
    )
    return Comparison(verdict, "min_vs_max", tuple(vf), tuple(vg))


def compare_alpha_maxmin(
    cap: Capacity,
    fam_f: CollectionFamily,
    fam_g: CollectionFamily,
    alpha: float,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> Comparison:
    """Better iff the alpha-maxmin score of F beats that of G by more than ``tol``."""
    _check_families(cap, fam_f, fam_g)
    score_f = alpha_maxmin_score(cap, fam_f, alpha, measure, tol)
    score_g = alpha_maxmin_score(cap, fam_g, alpha, measure, tol)
    diff = score_f - score_g
    return Comparison(_verdict(diff >= -tol, diff <= tol), "alpha_maxmin", (score_f,), (score_g,))


# ---------------------------------------------------------------------------
# Family JSON: {"axioms": [...], "models": ["IC", "mallows_0.8"],
#               "collections": [{subset map}, ...]}
# Each collection entry is the bare subset->probability map; a full
# collection object with matching axioms is accepted too.
# ---------------------------------------------------------------------------


def family_from_json(data: dict) -> CollectionFamily:
    """Parse the family schema; raises ParseError on any deviation.

    Feasibility is not checked here: the evaluation that reads a member
    checks it, at the caller's tolerance (see :class:`CollectionFamily`).
    """
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
    return CollectionFamily(axioms=axioms, members=tuple(members), model_names=tuple(models))


def family_to_json(fam: CollectionFamily) -> dict:
    return {
        "axioms": list(fam.axioms.labels),
        "models": list(fam.model_names),
        "collections": [subset_map(fam.axioms, c.p) for c in fam.members],
    }
