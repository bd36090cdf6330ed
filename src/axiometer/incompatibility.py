"""Allocation of the overall incompatibility across axioms.

A collection p (with p[empty] = 1) induces the cooperative game v = 1 - p;
its grand-coalition value 1 - p[A] is the overall violation mass, distributed
among axioms by Shapley weights on the marginal costs p[S] - p[S + a].  Three
routes compute the same allocation: the direct weighted sum, the contribution
(Moebius) formula that splits each exact-satisfaction weight equally among
the excluded axioms, and a permutation average kept as a brute-force oracle.
The Banzhaf variant replaces the Shapley weights by a uniform 1 / 2**(J-1)
and in general does not sum to the overall violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .collections import DEFAULT_TOL, Collection, contributions, require_member
from .errors import RangeError, SizeError
from .lattice import AxiomSet, halves, popcounts, subset_vector

#: Largest J for which the J!-permutation oracle runs.
BRUTEFORCE_MAX_AXIOMS = 8


@dataclass(frozen=True, eq=False)
class Game:
    """Cooperative game v = 1 - p associated with a collection."""

    axioms: AxiomSet
    v: np.ndarray

    def __post_init__(self):
        arr = subset_vector(self.axioms, self.v)
        if arr[0] != 0.0:
            raise RangeError("a game must assign 0 to the empty coalition")
        if not np.isfinite(arr).all():
            raise RangeError("game values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)


@dataclass(frozen=True, eq=False)
class IncompatibilityAllocation:
    """Per-axiom incompatibility values and their sum."""

    axioms: AxiomSet
    values: np.ndarray
    total: float
    method: str

    def by_axiom(self) -> dict[str, float]:
        return {lab: float(v) for lab, v in zip(self.axioms.labels, self.values)}


def to_game(c: Collection) -> Game:
    return Game(axioms=c.axioms, v=1.0 - c.p)


def _allocation(axioms: AxiomSet, values: np.ndarray, method: str) -> IncompatibilityAllocation:
    values = np.asarray(values, dtype=np.float64)
    values.setflags(write=False)
    return IncompatibilityAllocation(
        axioms=axioms, values=values, total=float(values.sum()), method=method
    )


def _marginal_sums(c: Collection, weight_by_card: np.ndarray) -> np.ndarray:
    """psi[a] = sum over S without a of w[|S|] * (p[S] - p[S + a])."""
    j = c.axioms.size
    cards = popcounts(j)
    psi = np.empty(j)
    for b in range(j):
        without, with_b = halves(c.p, b)
        psi[b] = float(np.vdot(weight_by_card[halves(cards, b)[0]], without - with_b))
    return psi


def shapley(c: Collection, tol: float = DEFAULT_TOL) -> IncompatibilityAllocation:
    """Shapley allocation; the values sum to 1 - p[A].

    Weights |S|! (J-|S|-1)! / J! are computed from exact integer factorials
    (J <= 20 keeps them inside 64-bit range) with a single float division.
    """
    require_member(c, tol)
    j = c.axioms.size
    fact = [math.factorial(k) for k in range(j + 1)]
    weights = np.array([fact[k] * fact[j - k - 1] / fact[j] for k in range(j)])
    return _allocation(c.axioms, _marginal_sums(c, weights), "shapley")


def shapley_via_moebius(c: Collection, tol: float = DEFAULT_TOL) -> IncompatibilityAllocation:
    """Same allocation through the contributions: each exact-satisfaction
    weight alpha[S] is split equally among the axioms outside S."""
    require_member(c, tol)
    j = c.axioms.size
    alpha = contributions(c, tol).alpha
    cards = popcounts(j)
    psi = np.empty(j)
    for b in range(j):
        psi[b] = float(np.sum(halves(alpha, b)[0] / (j - halves(cards, b)[0])))
    return _allocation(c.axioms, psi, "shapley_via_moebius")


def banzhaf(c: Collection) -> IncompatibilityAllocation:
    """Banzhaf allocation: uniform weights 1 / 2**(J-1) on the marginal costs.

    No feasibility gate — the formula is defined for any collection — and the
    reported total need not equal 1 - p[A].
    """
    j = c.axioms.size
    weights = np.full(j, 1.0 / 2 ** (j - 1))
    return _allocation(c.axioms, _marginal_sums(c, weights), "banzhaf")


def shapley_bruteforce(c: Collection) -> IncompatibilityAllocation:
    """Permutation-average oracle: mean marginal of v = 1 - p over all J!
    arrival orders.  Exponential; guarded to J <= 8."""
    j = c.axioms.size
    if j > BRUTEFORCE_MAX_AXIOMS:
        raise SizeError(
            f"permutation oracle is O(J * J!); limited to J <= "
            f"{BRUTEFORCE_MAX_AXIOMS}, got J = {j}"
        )
    v = 1.0 - c.p
    orders = np.array(list(permutations(range(j))), dtype=np.int64)
    bits = (1 << orders).astype(np.int64)
    prefixes = np.concatenate(
        [
            np.zeros((orders.shape[0], 1), dtype=np.int64),
            np.bitwise_or.accumulate(bits, axis=1),
        ],
        axis=1,
    )
    marginals = v[prefixes[:, 1:]] - v[prefixes[:, :-1]]
    psi = np.zeros(j)
    np.add.at(psi, orders.ravel(), marginals.ravel())
    return _allocation(c.axioms, psi / math.factorial(j), "shapley_bruteforce")
