"""Intrinsic valuations of axiom combinations as capacities.

A capacity assigns a non-negative value to every non-empty subset of axioms
(0 to the empty set) and is meant to be monotone under inclusion.  Synergy
between axioms shows up as super-additivity (the whole worth more than any
split), substitutability as sub-additivity.  Monotonicity and the additivity
flags are reported by :func:`validate_capacity` rather than enforced at
construction, so that questionable inputs can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collections import DEFAULT_TOL, _check_tol, _subset_document
from .errors import MonotonicityError, RangeError
from .lattice import AxiomSet, _pairs, moebius_subset, popcounts, subset_map, subset_vector

#: Above this J the 3**J bipartition sweep for the additivity flags is skipped.
ADDITIVITY_CHECK_MAX_AXIOMS = 14

#: The sweep pairs the 3**10 placements of the low ten axioms with one
#: placement of the rest at a time: under 1 MB per index array.
ADDITIVITY_CHUNK_AXIOMS = 10


@dataclass(frozen=True, eq=False)
class Capacity:
    """Non-negative per-subset valuation with u[empty] fixed to 0."""

    axioms: AxiomSet
    u: np.ndarray

    def __post_init__(self):
        arr = subset_vector(self.axioms, self.u)
        if arr[0] != 0.0:
            raise RangeError("capacity of the empty subset must be exactly 0")
        valid = (arr >= 0.0) & (arr < np.inf)  # False for NaN
        if not valid.all():
            bad = int(np.argmin(valid))
            raise RangeError(
                f"capacity must be finite and non-negative, got {arr[bad]} at subset "
                f"{{{self.axioms.subset_key(bad)}}}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)

    def value(self, names) -> float:
        return float(self.u[self.axioms.mask_of(names)])


@dataclass(frozen=True)
class CapacityReport:
    """Classification flags from :func:`validate_capacity`.

    ``superadditive``/``subadditive`` are None when the bipartition sweep was
    skipped (J above the guard), in which case ``additivity_checked`` is False.
    """

    monotone: bool
    strict: bool
    superadditive: bool | None
    subadditive: bool | None
    additivity_checked: bool
    tolerance: float


def _disjoint_pairs(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks (t, r) over J axioms with t & r == 0: all 3**J ways to put each
    axiom in t, in r or in neither."""
    t = r = np.zeros(1, dtype=np.intp)
    for b in range(j):
        t, r = np.concatenate((t, t | 1 << b, t)), np.concatenate((r, r, r | 1 << b))
    return t, r


def validate_capacity(cap: Capacity, tol: float = DEFAULT_TOL) -> CapacityReport:
    """Report monotonicity (over covering pairs) and the additivity flags.

    Covering pairs suffice for monotonicity by transitivity.  Super- and
    sub-additivity compare u[S] with u[T] + u[S - T] for every proper
    non-empty T of every S.  There are 3**J such (T, S - T) pairs, so the
    sweep runs in chunks of 3**ADDITIVITY_CHUNK_AXIOMS pairs, stops as soon as
    both flags are False, and is skipped above J = 14.  ``tol`` must be a
    finite number >= 0.
    """
    _check_tol(tol)
    u = cap.u
    j = cap.axioms.size
    # The least step u[S + a] - u[S] decides both flags (min is exact, u finite).
    scratch = np.empty(u.shape[0] // 2)
    least = np.inf
    for _, without, with_b in _pairs(u):
        diff = scratch[: without.size].reshape(without.shape)
        least = min(least, np.subtract(with_b, without, out=diff).min())
    monotone = not least < -tol
    strict = not least <= tol
    if j > ADDITIVITY_CHECK_MAX_AXIOMS:
        return CapacityReport(monotone, strict, None, None, False, tol)
    superadditive = True
    subadditive = True
    low = min(j, ADDITIVITY_CHUNK_AXIOMS)
    t_low, r_low = _disjoint_pairs(low)
    for t_high, r_high in zip(*(x << low for x in _disjoint_pairs(j - low))):
        # proper non-empty submasks t of s; each unordered bipartition seen twice
        t = t_low | t_high
        s = t | r_low | r_high
        proper = (t != 0) & (t != s)
        us = u[s]
        split = u[t] + u[s ^ t]
        if superadditive and np.any(proper & (us < split - tol)):
            superadditive = False
        if subadditive and np.any(proper & (us > split + tol)):
            subadditive = False
        if not (superadditive or subadditive):
            break
    return CapacityReport(monotone, strict, superadditive, subadditive, True, tol)


def cardinality_capacity(axioms: AxiomSet, g: Sequence[float]) -> Capacity:
    """Capacity depending only on subset size: u[S] = g[|S|].

    ``g`` must have length J + 1, start at 0, and be non-decreasing; convex g
    encodes uniform complementarity, concave g uniform substitutability.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] != axioms.size + 1:
        raise RangeError(f"g must list {axioms.size + 1} values, got {g.shape}")
    if g[0] != 0.0:
        raise MonotonicityError("g[0] must be 0 (empty subset)")
    if np.any(np.diff(g) < 0.0):
        raise MonotonicityError(f"g must be non-decreasing, got {g.tolist()}")
    return Capacity(axioms=axioms, u=g[popcounts(axioms.size)])


def capacity_moebius(cap: Capacity) -> np.ndarray:
    """Subset-order Moebius transform of the capacity (0 at the empty set)."""
    return moebius_subset(cap.u)


def normalize(cap: Capacity) -> Capacity:
    """Scale so the full axiom set has value 1 (requires u[A] > 0)."""
    total = float(cap.u[cap.axioms.full_mask])
    if total <= 0.0:
        raise RangeError("cannot normalize a capacity with u[A] <= 0")
    return Capacity(axioms=cap.axioms, u=cap.u / total)


# JSON schema mirrors the collection one: {"axioms": [...], "u": {...}}.


def capacity_from_json(data: dict) -> Capacity:
    """Parse the capacity schema; raises ParseError on any deviation."""
    return _subset_document(data, "capacity", "u", 0.0, Capacity)


def capacity_to_json(cap: Capacity) -> dict:
    return {
        "axioms": list(cap.axioms.labels),
        "u": subset_map(cap.axioms, cap.u),
    }
