"""Allocation of the overall incompatibility across axioms.

A collection p (with p[empty] = 1) induces the cooperative game v = 1 - p;
its grand-coalition value 1 - p[A] is the overall violation mass, distributed
among axioms by the Shapley value.  Over the contributions alpha that the
membership check computes, v = sum over S of alpha[S] * [coalition meets
A - S]: a mixture of games in which a coalition scores 1 once it holds an
axiom outside S (alpha[S] is the Harsanyi dividend of the dual game at
A - S).  Each such game gives 1 / (J - |S|) to every axiom outside S, so
the Shapley value is the dividend sum

    psi[a] = sum over S without a of alpha[S] / (J - |S|).

:func:`shapley` takes it in two blocked reductions over alpha, and
:func:`shapley_via_moebius` as one masked sum per axiom; a permutation
average is kept as a brute-force oracle.  The Banzhaf variant weighs the
marginal costs p[S] - p[S + a] uniformly by 1 / 2**(J-1) and in general does
not sum to the overall violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .collections import DEFAULT_TOL, Collection, require_member
from .errors import SizeError
from .lattice import AxiomSet, block_rows, halves, popcounts

#: Largest J for which the J!-permutation oracle runs.
BRUTEFORCE_MAX_AXIOMS = 8


@dataclass(frozen=True, eq=False)
class IncompatibilityAllocation:
    """Per-axiom incompatibility values and their sum."""

    axioms: AxiomSet
    values: np.ndarray
    total: float
    method: str

    def by_axiom(self) -> dict[str, float]:
        return {lab: float(v) for lab, v in zip(self.axioms.labels, self.values)}


def _allocation(axioms: AxiomSet, values: np.ndarray, method: str) -> IncompatibilityAllocation:
    values = np.asarray(values, dtype=np.float64)
    values.setflags(write=False)
    return IncompatibilityAllocation(
        axioms=axioms, values=values, total=float(values.sum()), method=method
    )


def shapley(c: Collection, tol: float = DEFAULT_TOL) -> IncompatibilityAllocation:
    """Shapley allocation; the values sum to 1 - p[A].

    The dividend sum psi[a] = sum over S without a of alpha[S] / (J - |S|),
    over the contributions that :func:`require_member` returns.  With alpha
    seen as 2**(J - J//2) rows of 2**(J//2) columns, so that the low J//2
    bits of a mask number its column and the high bits its row, one pass over
    row blocks of about ``SWEEP_BLOCK_BYTES`` forms w = alpha / (J - |S|)
    (0 at the full set) block by block and adds each block into the row sums
    and the column sums of w.  psi[a] is then the sum over the half of the
    column sums (low bit a) or of the row sums (high bit a) without bit a.
    Every term is >= -tol, so no large terms cancel.
    """
    alpha = require_member(c, tol).alpha
    j = c.axioms.size
    low = j // 2
    m = alpha.reshape(-1, 1 << low)
    rows = block_rows(m)
    free = j - popcounts(j - low)  # J minus the row's part of |S|
    w = np.empty((rows, m.shape[1]))
    row_sums = np.empty(m.shape[0])
    col_sums = np.zeros(m.shape[1])
    for start in range(0, m.shape[0], rows):
        block = slice(start, start + rows)
        np.subtract.outer(free[block], popcounts(low), out=w)
        if block.stop == m.shape[0]:
            w[-1, -1] = np.inf  # the full set: no axiom outside it
        np.divide(m[block], w, out=w)
        row_sums[block] = w.sum(axis=1)
        col_sums += w.sum(axis=0)
    psi = np.empty(j)
    for b in range(low):
        psi[b] = halves(col_sums, b)[0].sum()
    for b in range(low, j):
        psi[b] = halves(row_sums, b - low)[0].sum()
    return _allocation(c.axioms, psi, "shapley")


def shapley_via_moebius(c: Collection, tol: float = DEFAULT_TOL) -> IncompatibilityAllocation:
    """The dividend sum of :func:`shapley`, one masked sum over alpha per axiom.

    An independent route to the same allocation: each exact-satisfaction
    weight alpha[S] is split equally among the axioms outside S.
    """
    alpha = require_member(c, tol).alpha
    j = c.axioms.size
    cards = popcounts(j)
    psi = np.empty(j)
    for b in range(j):
        psi[b] = float(np.sum(halves(alpha, b)[0] / (j - halves(cards, b)[0])))
    return _allocation(c.axioms, psi, "shapley_via_moebius")


def banzhaf(c: Collection) -> IncompatibilityAllocation:
    """Banzhaf allocation: uniform weights 1 / 2**(J-1) on the marginal costs.

    psi[a] is the dot product of the weight vector with p[S] - p[S + a] over
    the masks S without a.  No feasibility gate — the formula is defined for
    any collection — and the reported total need not equal 1 - p[A].
    """
    j = c.axioms.size
    half = c.axioms.n_masks // 2
    # a weight vector, not a scalar times a sum: the dot product keeps the
    # rounding of the published values (a scalar changes them at J = 3)
    weights = np.full(half, 1.0 / 2 ** (j - 1))
    diff = np.empty(half)
    psi = np.empty(j)
    for b in range(j):
        without, with_b = halves(c.p, b)
        np.subtract(without, with_b, out=diff.reshape(without.shape))
        psi[b] = float(np.vdot(weights, diff))
    return _allocation(c.axioms, psi, "banzhaf")


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
