"""Capacity-weighted performance of rules from their satisfaction collections.

Three measures, all of the form "value = sum over non-empty subsets of
u[S] * weight[S]" and differing only in the weights:

* ``moebius`` — weights are the contributions (exact satisfaction
  probabilities), the measure singled out by the expected-valuation and
  same-contribution axioms;
* ``weighted_sum`` — weights are the raw probabilities p[S] (double counts
  nested subsets);
* ``min_diff`` — weights are p[S] minus the best strict-superset probability.

All three require a feasible collection: evaluating on an inconsistent p
would silently weight the capacity by negative "probabilities".  A value
that overflows the float range raises RangeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .capacities import Capacity
from .collections import DEFAULT_TOL, Collection, contributions, require_member
from .errors import RangeError, SchemaError
from .lattice import AxiomSet, _pairs

#: Two values closer than this rank as a tie.
TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PerformanceResult:
    """Measure value plus the per-subset multipliers of u actually used."""

    value: float
    weights: np.ndarray
    measure: str
    axioms: AxiomSet


def _check_pair(cap: Capacity, c: Collection) -> None:
    if cap.axioms.labels != c.axioms.labels:
        raise SchemaError(
            f"capacity axioms {cap.axioms.labels} do not match "
            f"collection axioms {c.axioms.labels}"
        )


def _result(cap: Capacity, weights: np.ndarray, measure: str) -> PerformanceResult:
    weights = weights.copy()
    weights[0] = 0.0
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        value = float(np.dot(cap.u[1:], weights[1:]))
    if not math.isfinite(value):
        raise RangeError(f"{measure} value overflows: sum of u[S] * weight[S] is {value}")
    weights.setflags(write=False)
    return PerformanceResult(value=value, weights=weights, measure=measure, axioms=cap.axioms)


def perf_moebius(cap: Capacity, c: Collection, tol: float = DEFAULT_TOL) -> PerformanceResult:
    """Contribution-weighted measure: sum of u[S] * alpha[S]."""
    _check_pair(cap, c)
    require_member(c, tol)
    return _result(cap, contributions(c).alpha, "moebius")


def perf_weighted_sum(cap: Capacity, c: Collection, tol: float = DEFAULT_TOL) -> PerformanceResult:
    """Plain weighted sum of u[S] * p[S]."""
    _check_pair(cap, c)
    require_member(c, tol)
    return _result(cap, c.p, "weighted_sum")


def strict_superset_max(c: Collection) -> np.ndarray:
    """For each subset, the largest probability among its strict supersets.

    The full set, having none, gets 0.  One blocked pass over the bits, with
    ``strict`` starting at -inf, runs for each bit b and each S without b

        strict[S] = max(strict[S], p[S + b], strict[S + b]).

    After bits 0..k-1, strict[S] is the max of p[T] over the T > S with
    T - S inside {0..k-1}: the T that add bit k are S + k itself and those
    in strict[S + k], which bit k does not write.  ``max`` is exact, so the
    order of the pass does not change the result.
    """
    strict = np.full(c.axioms.n_masks, -np.inf)
    for _, s_lo, s_hi, _, p_hi in _pairs(strict, c.p):
        np.maximum(s_lo, p_hi, out=s_lo)
        np.maximum(s_lo, s_hi, out=s_lo)
    strict[c.axioms.full_mask] = 0.0
    return strict


def perf_min_diff(cap: Capacity, c: Collection, tol: float = DEFAULT_TOL) -> PerformanceResult:
    """Weights are the margins p[S] minus max over strict supersets T of p[T]."""
    _check_pair(cap, c)
    require_member(c, tol)
    return _result(cap, c.p - strict_superset_max(c), "min_diff")


_DISPATCH = {
    "moebius": perf_moebius,
    "weighted_sum": perf_weighted_sum,
    "min_diff": perf_min_diff,
}
MEASURE_TAGS = tuple(_DISPATCH)


def evaluate(
    cap: Capacity, c: Collection, measure: str = "moebius", tol: float = DEFAULT_TOL
) -> PerformanceResult:
    """Dispatch on the measure tag."""
    try:
        fn = _DISPATCH[measure]
    except KeyError:
        raise RangeError(f"unknown measure {measure!r}; choose from {MEASURE_TAGS}") from None
    return fn(cap, c, tol)


@dataclass(frozen=True)
class RankedEntry:
    """Position of one collection in a ranking; tied entries share a rank."""

    name: str
    value: float
    rank: int


def rank(
    entries: Iterable[tuple[str, Collection]],
    cap: Capacity,
    measure: str = "moebius",
    tol: float = DEFAULT_TOL,
) -> list[RankedEntry]:
    """Order named collections by measure value, descending.

    Values within ``TIE_TOL`` of a group head tie: they share the head's rank
    and keep their input order.
    """
    named = list(entries)
    require_one_axiom_set(named)
    return rank_values([(name, evaluate(cap, c, measure, tol).value) for name, c in named])


def require_one_axiom_set(named: Sequence[tuple[str, Collection]]) -> None:
    """Raise SchemaError unless every named collection uses the first one's axioms."""
    if not named:
        return
    axioms = named[0][1].axioms
    for name, c in named:
        if c.axioms.labels != axioms.labels:
            raise SchemaError(f"collection {name!r} uses a different axiom set")


def rank_values(named_values: Sequence[tuple[str, float]]) -> list[RankedEntry]:
    """Order named measure values, descending, with the tie rule of :func:`rank`.

    A value more than ``TIE_TOL`` below the group head starts a new group,
    whose rank is its head's position plus one.
    """
    values = [value for _, value in named_values]
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    ranks = {}
    for position, i in enumerate(order):
        if position == 0 or values[i] < head - TIE_TOL:
            head, head_rank = values[i], position + 1
        ranks[i] = head_rank
    return [
        RankedEntry(name=named_values[i][0], value=values[i], rank=ranks[i])
        for i in sorted(ranks, key=lambda i: (ranks[i], i))
    ]
