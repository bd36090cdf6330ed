"""Collections of satisfaction probabilities: validation, decomposition, generation.

A collection assigns to every subset S of the axiom set the probability that
all axioms in S hold simultaneously.  The empty set is stored explicitly with
probability 1, so the same array serves both the "non-empty subsets only" view
and the extended view needed by the incompatibility machinery.

Feasible collections are exactly the convex combinations of the indicator
collections ``extreme(S)`` (all subsets of S satisfied surely, everything else
never) together with the all-zeros collection.  The weights of that unique
decomposition are the *contributions*: the superset Moebius transform of p.
Infeasible collections remain representable — feasibility is a check, not a
type invariant — so that inconsistent inputs can be diagnosed rather than
rejected at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import eq

import numpy as np

from .errors import (
    DuplicateAxiomError,
    InfeasibleCollectionError,
    NegativeWeightError,
    ParseError,
    RangeError,
    SizeError,
    UnknownAxiomError,
)
from .lattice import (
    AxiomSet,
    _pairs,
    halves,
    moebius_superset,
    subset_keys,
    subset_map,
    subset_masks,
    subset_vector,
    zeta_superset,
)

#: Default tolerance for membership and related report clamping.
DEFAULT_TOL = 1e-9

#: Largest J for which the dense worlds matrix (2**J - 1) x 2**J is materialized.
WORLDS_MATRIX_MAX_AXIOMS = 12


@dataclass(frozen=True, eq=False)
class Collection:
    """Per-subset satisfaction probabilities with p[empty] fixed to 1."""

    axioms: AxiomSet
    p: np.ndarray

    def __post_init__(self):
        arr = subset_vector(self.axioms, self.p)
        if arr[0] != 1.0:
            raise RangeError("probability of the empty subset must be exactly 1")
        inside = (arr >= 0.0) & (arr <= 1.0)  # False for NaN
        if not inside.all():
            bad = int(np.argmin(inside))
            raise RangeError(
                f"probability out of [0, 1] at subset "
                f"{{{self.axioms.subset_key(bad)}}}: {arr[bad]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def value(self, names) -> float:
        """Probability of satisfying all axioms in ``names`` simultaneously."""
        return float(self.p[self.axioms.mask_of(names)])


@dataclass(frozen=True, eq=False)
class ContributionVector:
    """Moebius coefficients of a collection over the superset order.

    ``alpha[S]`` for non-empty S is the probability of satisfying exactly the
    axioms in S and no others; ``alpha[0]`` is the leftover weight of the
    all-zeros extreme point.
    """

    axioms: AxiomSet
    alpha: np.ndarray

    @property
    def residual(self) -> float:
        """Weight attached to the empty set (the all-zeros extreme point)."""
        return float(self.alpha[0])


@dataclass(frozen=True)
class FrechetViolation:
    """One violated pairwise bound: subset S against S minus ``axiom``."""

    subset: int
    kind: str  # "monotonicity" | "lower_bound"
    axiom: str
    slack: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a consistency check on a collection.

    ``checks`` records what was verified: ``"frechet"`` for the necessary
    pairwise bounds only, ``"full"`` for exact membership via contributions.
    ``feasible`` is None for the partial check when the bounds pass (they are
    necessary, not sufficient).
    """

    feasible: bool | None
    checks: str
    tolerance: float
    frechet_violations: tuple[FrechetViolation, ...] = ()
    negative_contributions: tuple[tuple[int, float], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.feasible)


def contributions(c: Collection) -> ContributionVector:
    """Decompose ``c`` into extreme-point weights (superset Moebius transform).

    Defined for any collection; weights may be negative exactly when ``c`` is
    infeasible.  For feasible collections this is the unique convex
    decomposition over the extreme collections, with ``alpha[0]`` absorbing
    the remainder (the weights over all masks sum to 1 identically because
    p[empty] = 1).  Where membership is checked anyway, :func:`require_member`
    returns the same weights without a second transform.
    """
    alpha = moebius_superset(c.p)
    alpha.setflags(write=False)
    return ContributionVector(axioms=c.axioms, alpha=alpha)


def _check_tol(tol: float) -> None:
    """Raise RangeError unless ``tol`` is a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise RangeError(f"tol must be a finite number >= 0, got {tol!r}")


#: Screening margin of the lower-bound scan in ``_frechet_violations``.
#: Every operand lies in [0, 1], so in (sub - c) - with_b and in
#: (sub - with_b) - c the first rounding errs by at most u = 2**-53 (its result
#: lies in [-1, 1]) and the second by at most 2u (in [-2, 1]): the two orders
#: differ by at most 6u = 3 eps per entry (Higham 2002, ch. 2), and 16 eps,
#: less the rounding of tol - margin (below u for tol < 1), exceeds that.  For
#: tol >= 1 neither order can exceed tol, so no bit is hit either way.
_FRECHET_MARGIN = 16 * np.finfo(float).eps


def _frechet_violations(c: Collection, tol: float) -> list[FrechetViolation]:
    # A blocked scan finds the bits with any slack above tol (max is exact and
    # p is finite); only those bits are then extracted on the whole array.
    # Each bit of each block takes one difference, drop = sub - with_b.  The
    # monotonicity slack with_b - sub is exactly -drop, since IEEE subtraction
    # is antisymmetric.  The lower-bound slack (sub - c) - with_b, c = 1 - p[a],
    # is screened by drop.max() - c, which is the largest (sub - with_b) - c
    # because rounding is monotone; only a block that comes within
    # _FRECHET_MARGIN of tol recomputes it in the order the extraction uses,
    # so the hit bits are exactly those of the plain per-bit loop.  At S = {a}
    # the screened value is exactly 0 (sub = 1, c = 1 - with_b), so at tol = 0
    # the block holding S = {a} is recomputed for every bit, and with it every
    # high bit's whole array: there the scan still takes three differences.
    p = c.p
    scratch = np.empty(p.shape[0] // 2)
    near_tol = tol - _FRECHET_MARGIN
    hit_bits: set[int] = set()
    for b, sub, with_b in _pairs(p):
        if b in hit_bits:
            continue
        drop = np.subtract(sub, with_b, out=scratch[: sub.size].reshape(sub.shape))
        if -drop.min() > tol:
            hit_bits.add(b)
            continue
        c_b = 1.0 - p[1 << b]
        if drop.max() - c_b > near_tol:
            np.subtract(sub, c_b, out=drop)
            if np.subtract(drop, with_b, out=drop).max() > tol:
                hit_bits.add(b)
    if not hit_bits:
        return []
    masks = np.arange(c.axioms.n_masks)
    out: list[FrechetViolation] = []
    for b in sorted(hit_bits):
        label = c.axioms.labels[b]
        sub, with_b = halves(p, b)
        mono = with_b - sub
        low = (sub - (1.0 - p[1 << b])) - with_b
        for kind, slack in (("monotonicity", mono), ("lower_bound", low)):
            hit = slack > tol
            for mask, value in zip(halves(masks, b)[1][hit].tolist(), slack[hit].tolist()):
                out.append(FrechetViolation(mask, kind, label, value))
    out.sort(key=lambda v: (v.subset, v.kind, v.axiom))
    return out


def frechet_check(c: Collection, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check the necessary pairwise bounds on ``c``.

    For every subset S and axiom a in S: p[S] <= p[S \\ a] and
    p[S] >= p[S \\ a] - (1 - p[a]).  Passing these bounds does not certify
    feasibility (the report says so via ``checks="frechet"``); failing any of
    them beyond ``tol`` certifies infeasibility.  ``tol`` must be a finite
    number >= 0.
    """
    _check_tol(tol)
    violations = _frechet_violations(c, tol)
    return FeasibilityReport(
        feasible=False if violations else None,
        checks="frechet",
        tolerance=tol,
        frechet_violations=tuple(violations),
    )


def _membership(c: Collection, tol: float) -> tuple[FeasibilityReport, np.ndarray]:
    """The membership report of ``c`` and the contributions it was read from."""
    _check_tol(tol)
    alpha = moebius_superset(c.p)
    bad = np.nonzero(alpha < -tol)[0]
    negatives = tuple((int(m), float(alpha[m])) for m in bad)
    feasible = not negatives
    frechet = () if feasible else tuple(_frechet_violations(c, tol))
    report = FeasibilityReport(
        feasible=feasible,
        checks="full",
        tolerance=tol,
        frechet_violations=frechet,
        negative_contributions=negatives,
    )
    return report, alpha


def is_member(c: Collection, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Exact membership check: feasible iff every contribution is >= -tol.

    The contribution at mask 0 encodes the residual 1 minus the sum of the
    non-empty weights, so the single sign condition covers both requirements
    of the convex decomposition.  Contributions in (-tol, 0) are treated as 0.
    ``tol`` must be a finite number >= 0.
    """
    return _membership(c, tol)[0]


def require_member(c: Collection, tol: float = DEFAULT_TOL) -> ContributionVector:
    """Return the contributions of a feasible ``c``; raise otherwise.

    The check is that of :func:`is_member`, and the result is the read-only
    ``ContributionVector`` it computed, equal to ``contributions(c)``.
    An infeasible ``c`` raises InfeasibleCollectionError carrying the
    :func:`is_member` report and ``c.axioms``.
    """
    report, alpha = _membership(c, tol)
    if not report.feasible:
        worst = min(report.negative_contributions, key=lambda t: t[1])
        raise InfeasibleCollectionError(
            f"collection is not a consistent probability assignment "
            f"(worst contribution {worst[1]:.6g} at subset "
            f"{{{c.axioms.subset_key(worst[0])}}})",
            report,
            c.axioms,
        )
    alpha.setflags(write=False)
    return ContributionVector(axioms=c.axioms, alpha=alpha)


def _from_weights(axioms: AxiomSet, alpha: np.ndarray) -> Collection:
    p = zeta_superset(alpha)
    np.clip(p, 0.0, 1.0, out=p)
    p[0] = 1.0
    return Collection(axioms=axioms, p=p)


def reconstruct(cv: ContributionVector) -> Collection:
    """Rebuild the collection from extreme-point weights (inverse of contributions).

    Requires non-negative weights summing to 1 (within 1e-9); raises
    NegativeWeightError otherwise.
    """
    alpha = np.asarray(cv.alpha, dtype=np.float64)
    if not np.isfinite(alpha).all():
        raise NegativeWeightError("contribution weights must be finite")
    if np.any(alpha < -1e-9):
        worst = int(np.argmin(alpha))
        raise NegativeWeightError(
            f"contribution weights must be non-negative (found {alpha[worst]:.6g})"
        )
    total = float(alpha.sum())
    if abs(total - 1.0) > 1e-9:
        raise NegativeWeightError(f"contribution weights must sum to 1, got {total!r}")
    return _from_weights(cv.axioms, np.maximum(alpha, 0.0))


def extreme(axioms: AxiomSet, mask: int) -> Collection:
    """The indicator collection of ``mask``: p[T] = 1 iff T is a subset of mask.

    ``mask = 0`` yields the all-zeros collection on non-empty subsets.
    """
    axioms._check_mask(mask)
    masks = np.arange(axioms.n_masks)
    p = ((masks & ~mask) == 0).astype(np.float64)
    return Collection(axioms=axioms, p=p)


def edge(axioms: AxiomSet, mask: int, lam: float) -> Collection:
    """Collection with p[T] = lam for non-empty subsets T of ``mask``, else 0.

    Lies on the edge between the all-zeros collection and ``extreme(mask)``.
    """
    axioms._check_mask(mask)
    if mask == 0:
        raise RangeError("edge collections need a non-empty subset")
    if not 0.0 <= lam <= 1.0:
        raise RangeError(f"edge weight must be in [0, 1], got {lam}")
    masks = np.arange(axioms.n_masks)
    p = np.where((masks & ~mask) == 0, lam, 0.0)
    p[0] = 1.0
    return Collection(axioms=axioms, p=p)


def random_collection(
    axioms: AxiomSet,
    seed: int | np.random.Generator,
    concentration: float = 1.0,
) -> Collection:
    """Draw a feasible collection: Dirichlet weights over the extreme points.

    Deterministic given an integer seed; pass a Generator to control the
    stream explicitly.  ``concentration`` is the symmetric Dirichlet
    parameter, a finite number > 0 (large values concentrate near uniform
    weights).
    """
    if not (math.isfinite(concentration) and concentration > 0.0):
        raise RangeError(f"concentration must be a finite number > 0, got {concentration}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(axioms.n_masks, concentration))
    return _from_weights(axioms, weights)


def worlds_matrix(axioms: AxiomSet) -> np.ndarray:
    """Incidence matrix H (rows: non-empty subsets, columns: possible worlds).

    A world is the mask of simultaneously satisfied axioms; H[i-1, w] = 1 iff
    subset i is contained in world w.  A collection is feasible iff its
    non-empty entries equal H @ pi for some probability vector pi over worlds,
    and the contributions (with the residual at index 0) are exactly that pi —
    making this matrix an independent oracle for both the membership check and
    the zeta transform.  Materialized only for J <= 12.
    """
    j = axioms.size
    if j > WORLDS_MATRIX_MAX_AXIOMS:
        raise SizeError(
            f"worlds matrix is dense in 2**(2J); limited to J <= "
            f"{WORLDS_MATRIX_MAX_AXIOMS}, got J = {j}"
        )
    rows = np.arange(1, axioms.n_masks, dtype=np.int64)[:, None]
    cols = np.arange(axioms.n_masks, dtype=np.int64)[None, :]
    return ((rows & ~cols) == 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# JSON schema: {"axioms": ["a1", ...], "p": {"a1": 1.0, "a1+a2": 0.8, ...}}
# Keys are "+"-joined axiom names, order-insensitive; every non-empty subset
# must appear exactly once and nothing else may appear.  The writers, and the
# CLI's --format json, list the keys in mask order (bit k is axioms[k]); a map
# of floats in that order is read without key lookups, and any other order or
# spelling is read item by item with the same checks and errors.  The
# capacity, family, estimate and experiment readers check their document
# shape through the same helpers.
# ---------------------------------------------------------------------------


def _document(data: object, kind: str, keys) -> None:
    """Raise ParseError unless ``data`` is a JSON object with exactly ``keys``."""
    if not isinstance(data, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    if set(data) != set(keys):
        raise ParseError(f"{kind} document must have exactly the keys {sorted(keys)}")


def _parsed(make, *args):
    """``make(*args)``, its RangeError raised as a ParseError."""
    try:
        return make(*args)
    except RangeError as exc:
        raise ParseError(str(exc)) from exc


def _axioms_from_json(data: object) -> AxiomSet:
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise ParseError('"axioms" must be a list of strings')
    try:
        return AxiomSet(tuple(data))
    except (RangeError, DuplicateAxiomError) as exc:
        raise ParseError(f"bad axiom list: {exc}") from exc


def _checked_items(axioms: AxiomSet, mapping: dict) -> tuple[list[int], list[float]]:
    """Masks and values of a subset map, raising on the first bad item in order."""
    table = subset_masks(axioms.labels)
    masks: list[int] = []
    values: list[float] = []
    seen: set[int] = set()
    for key, raw in mapping.items():
        mask = table.get(key)
        if mask is None:
            try:
                mask = axioms.mask_of(str(key).split("+"))
            except (UnknownAxiomError, DuplicateAxiomError) as exc:
                raise ParseError(f"bad subset key {key!r}: {exc}") from exc
        if mask in seen:
            raise ParseError(f"subset {{{axioms.subset_key(mask)}}} given twice")
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ParseError(f"value for {key!r} must be a number, got {raw!r}")
        try:
            values.append(float(raw))
        except OverflowError:
            raise ParseError(f"value for {key!r} must be finite, got {raw!r}") from None
        seen.add(mask)
        masks.append(mask)
    return masks, values


def _subset_array_from_json(
    axioms: AxiomSet, mapping: object, what: str, empty: float
) -> np.ndarray:
    """Dense per-subset array of a subset map, with ``empty`` at mask 0.

    A map of float values whose keys are the canonical ones in mask order,
    the order the writers use, is confirmed by one sequential comparison of
    its keys and read as it stands, with no key looked up.  Any other map
    takes the item-by-item path, which resolves other orders and spellings
    of the keys and reports the first bad item in document order.
    """
    if not isinstance(mapping, dict):
        raise ParseError(f'"{what}" must be an object keyed by subsets')
    keys = subset_keys(axioms.labels)
    n = len(keys) - 1
    arr = np.empty(axioms.n_masks)
    arr[0] = empty
    if (
        len(mapping) == n
        and all(map(eq, mapping, islice(keys, 1, None)))
        # every value a float: nothing else to check once the keys are canonical
        and set(map(type, mapping.values())) <= {float}
    ):
        arr[1:] = np.fromiter(mapping.values(), np.float64, n)
    else:
        masks, values = _checked_items(axioms, mapping)
        arr[masks] = values
        if len(masks) < n:
            given = np.zeros(axioms.n_masks, dtype=bool)
            given[masks] = True
            missing = np.flatnonzero(~given[1:]) + 1
            names = ", ".join(axioms.subset_key(int(m)) for m in missing[:4])
            more = "" if len(missing) <= 4 else f" (+{len(missing) - 4} more)"
            raise ParseError(f'"{what}" is missing subsets: {names}{more}')
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ParseError(
            f'"{what}" value at subset {{{axioms.subset_key(bad)}}} must be finite, '
            f"got {arr[bad]}"
        )
    return arr


def _subset_document(data: object, kind: str, field: str, empty: float, make):
    """``make(axioms, array)`` of an ``{"axioms": [...], field: {subset map}}`` document.

    ``empty`` is the value at the empty subset, which the map does not list.
    """
    _document(data, kind, ("axioms", field))
    axioms = _axioms_from_json(data["axioms"])
    return _parsed(make, axioms, _subset_array_from_json(axioms, data[field], field, empty))


def collection_from_json(data: dict) -> Collection:
    """Parse the collection schema; raises ParseError on any deviation."""
    return _subset_document(data, "collection", "p", 1.0, Collection)


def collection_to_json(c: Collection) -> dict:
    """Serialize back to the collection schema (inverse of collection_from_json)."""
    return {
        "axioms": list(c.axioms.labels),
        "p": subset_map(c.axioms, c.p),
    }
