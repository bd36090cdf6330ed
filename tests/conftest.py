"""Shared fixtures, the worked three-axiom inputs, and naive oracles.

The worked inputs follow the presentation order (a1, a2, a3, a1a2, a1a3,
a2a3, a1a2a3), which maps to masks (1, 2, 4, 3, 5, 6, 7).  Oracles here are
deliberately slow and structurally independent of the package's fast paths:
quadratic transform sums, explicit superset maxima, linear-algebra world
distributions, per-pair loops over every subset S and axiom a for the
Fréchet bounds, the monotone and strict flags and the Banzhaf marginal sums,
a loop over every split T + (S - T) of every subset S for the additivity
flags, and Shapley values in exact rational arithmetic.  The per-bit
references are the exception: they are the whole-array loops that the
blocked sweep kernel and the blocked Fréchet and capacity scans replaced,
kept so that those can be checked against them bit for bit, the
cascade-then-shift strict-superset maximum that one fused pass replaced,
and the per-bit marginal sums over p that the Shapley and Banzhaf
allocations ran before Shapley read the contributions.  So is the full-pair world computation that
Monte Carlo estimation replaced by scoring only the pairs in which one voter
deviates, the ``Generator.choice`` draw that the guide-table sampler
replaced, and the 2-D ``np.add.at`` ballot count that the flat-index count
replaced, next to a per-row ``Counter`` loop as its scalar oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from axiometer import AxiomSet, Capacity, Collection, FrechetViolation
from axiometer.lattice import halves, popcounts

PRESENTATION_MASKS = (1, 2, 4, 3, 5, 6, 7)

BASELINE_P = (1.0, 0.8, 0.4, 0.8, 0.4, 0.35, 0.35)
FLAT_P = (0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.4)
SYNERGY_SMALL_U = (1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 6.0)
DECOMP_P = (0.7, 0.8, 0.5, 0.7, 0.25, 0.3, 0.25)  # also the worked alpha example
DECOMP_ALPHA = (0.0, 0.05, 0.2, 0.45, 0.0, 0.05, 0.25)
BASELINE_ALPHA = (0.15, 0.0, 0.0, 0.45, 0.05, 0.0, 0.35)
SYNERGY_U = (1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 15.0)
STEADY_P = (0.7, 0.7, 0.7, 0.6, 0.6, 0.6, 0.6)
SPIKY_P = (1.0, 1.0, 0.45, 1.0, 0.45, 0.45, 0.45)
CONTRAST_P = (0.55, 0.6, 0.2, 0.35, 0.05, 0.15, 0.0)
CONTRAST_W_MIN_DIFF = (0.2, 0.25, 0.05, 0.35, 0.05, 0.15, 0.0)
CONTRAST_W_MOEBIUS = (0.15, 0.1, 0.0, 0.35, 0.05, 0.15, 0.0)


@pytest.fixture
def abc() -> AxiomSet:
    return AxiomSet(("a1", "a2", "a3"))


def presentation_to_masks(values) -> np.ndarray:
    """Spread 7 presentation-ordered values into a length-8 mask-indexed array."""
    out = np.zeros(8)
    for mask, val in zip(PRESENTATION_MASKS, values):
        out[mask] = val
    return out


def collection3(values) -> Collection:
    p = presentation_to_masks(values)
    p[0] = 1.0
    return Collection(axioms=AxiomSet(("a1", "a2", "a3")), p=p)


def capacity3(values) -> Capacity:
    return Capacity(axioms=AxiomSet(("a1", "a2", "a3")), u=presentation_to_masks(values))


def in_presentation_order(arr) -> list[float]:
    return [float(arr[m]) for m in PRESENTATION_MASKS]


# --- independent oracles ----------------------------------------------------


def naive_zeta_superset(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    out = np.zeros(n)
    for s in range(n):
        out[s] = sum(x[t] for t in range(n) if (t & s) == s)
    return out


def naive_moebius_superset(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    j = n.bit_length() - 1
    pc = popcounts(j)
    out = np.zeros(n)
    for s in range(n):
        out[s] = sum(
            (-1.0) ** int(pc[t] - pc[s]) * x[t] for t in range(n) if (t & s) == s
        )
    return out


def naive_zeta_subset(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    out = np.zeros(n)
    for s in range(n):
        out[s] = sum(x[t] for t in range(n) if (t & s) == t)
    return out


def naive_moebius_subset(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    j = n.bit_length() - 1
    pc = popcounts(j)
    out = np.zeros(n)
    for s in range(n):
        out[s] = sum(
            (-1.0) ** int(pc[s] - pc[t]) * x[t] for t in range(n) if (t & s) == t
        )
    return out


def naive_strict_superset_max(p: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    out = np.zeros(n)
    for s in range(n):
        sups = [p[t] for t in range(n) if (t & s) == s and t != s]
        out[s] = max(sups) if sups else 0.0
    return out


# --- per-bit references -------------------------------------------------------
# The whole-array loops that lattice.sweep and the blocked scans over its
# block iterator replaced, kept verbatim: one pass over the whole array per
# bit b = 0..J-1.  The blocked code must reproduce them to the last bit, so
# the tests compare with np.array_equal or ==.  The one exception is
# marginal_shapley: the dividend sum that replaced it adds in another order,
# so it is compared within a relative 1e-13.


def per_bit_sweep(x, kind: str) -> np.ndarray:
    """The transform ``kind`` (a lattice function name) as a per-bit loop."""
    arr = np.array(x, dtype=np.float64)
    j = arr.shape[0].bit_length() - 1
    if kind == "zeta_superset":
        for b in range(j):
            without, with_b = halves(arr, b)
            without += with_b
    elif kind == "moebius_superset":
        for b in range(j):
            without, with_b = halves(arr, b)
            without -= with_b
    elif kind == "zeta_subset":
        for b in range(j):
            without, with_b = halves(arr, b)
            with_b += without
    elif kind == "moebius_subset":
        for b in range(j):
            without, with_b = halves(arr, b)
            with_b -= without
    else:
        raise ValueError(kind)
    return arr


def per_bit_strict_superset_max(p: np.ndarray) -> np.ndarray:
    """The strict-superset maximum that one fused blocked pass replaced, verbatim.

    It runs the cascade-then-shift algorithm: a superset-max cascade
    ``best[S] = max of p[T] over T >= S``, then one pass per bit that shifts
    it, ``out[S] = max over b not in S of best[S + b]``.
    performance.strict_superset_max must equal it to the last bit.
    """
    n = p.shape[0]
    j = n.bit_length() - 1
    best = p.copy()
    for b in range(j):
        without, with_b = halves(best, b)
        np.maximum(without, with_b, out=without)
    out = np.full(n, -np.inf)
    for b in range(j):
        without = halves(out, b)[0]
        np.maximum(without, halves(best, b)[1], out=without)
    out[n - 1] = 0.0
    return out


def per_bit_frechet_violations(c: Collection, tol: float) -> list[FrechetViolation]:
    """collections.frechet_check's violation list as a per-bit loop."""
    p = c.p
    masks = np.arange(c.axioms.n_masks)
    out: list[FrechetViolation] = []
    for b, label in enumerate(c.axioms.labels):
        sub, with_b = halves(p, b)
        mono = with_b - sub
        low = (sub - (1.0 - p[1 << b])) - with_b
        for kind, slack in (("monotonicity", mono), ("lower_bound", low)):
            hit = slack > tol
            for mask, value in zip(halves(masks, b)[1][hit].tolist(), slack[hit].tolist()):
                out.append(FrechetViolation(mask, kind, label, value))
    out.sort(key=lambda v: (v.subset, v.kind, v.axiom))
    return out


def _marginal_sums(p: np.ndarray, weight_by_card: np.ndarray) -> np.ndarray:
    """psi[a] = sum over S without a of w[|S|] * (p[S] - p[S + a]), one vdot per bit."""
    j = p.shape[0].bit_length() - 1
    cards = popcounts(j)
    psi = np.empty(j)
    for b in range(j):
        without, with_b = halves(p, b)
        psi[b] = float(np.vdot(weight_by_card[halves(cards, b)[0]], without - with_b))
    return psi


def marginal_shapley(p: np.ndarray) -> np.ndarray:
    """incompatibility.shapley as the per-bit marginal sums over p, with the
    Shapley weights |S|! (J-|S|-1)! / J! from exact integer factorials."""
    j = p.shape[0].bit_length() - 1
    fact = [math.factorial(k) for k in range(j + 1)]
    weights = np.array([fact[k] * fact[j - k - 1] / fact[j] for k in range(j)])
    return _marginal_sums(p, weights)


def per_bit_banzhaf(p: np.ndarray) -> np.ndarray:
    """incompatibility.banzhaf as the per-bit marginal sums with the weight
    1 / 2**(J-1) gathered per bit."""
    j = p.shape[0].bit_length() - 1
    return _marginal_sums(p, np.full(j, 1.0 / 2 ** (j - 1)))


def per_bit_capacity_flags(cap: Capacity, tol: float) -> tuple[bool, bool]:
    """capacities.validate_capacity's (monotone, strict) as a per-bit loop."""
    u = cap.u
    j = cap.axioms.size
    monotone = True
    strict = True
    for b in range(j):
        without, with_b = halves(u, b)
        diff = with_b - without
        if np.any(diff < -tol):
            monotone = False
        if np.any(diff <= tol):
            strict = False
    return monotone, strict


def naive_frechet_violations(p: np.ndarray, labels, tol: float) -> list[tuple]:
    """(mask, kind, axiom, slack) of every violated pairwise bound, sorted."""
    out = []
    for s in range(p.shape[0]):
        for a, label in enumerate(labels):
            if s >> a & 1:
                sub = s ^ 1 << a
                mono = p[s] - p[sub]
                low = (p[sub] - (1.0 - p[1 << a])) - p[s]
                if mono > tol:
                    out.append((s, "monotonicity", label, float(mono)))
                if low > tol:
                    out.append((s, "lower_bound", label, float(low)))
    return sorted(out)


def naive_capacity_flags(u: np.ndarray, tol: float) -> tuple[bool, bool]:
    """(monotone, strict) over every pair u[S] -> u[S + a]."""
    n = u.shape[0]
    j = n.bit_length() - 1
    steps = [u[s | 1 << a] - u[s] for s in range(n) for a in range(j) if not s >> a & 1]
    return all(d >= -tol for d in steps), all(d > tol for d in steps)


def naive_additivity_flags(u: np.ndarray, tol: float) -> tuple[bool, bool]:
    """(superadditive, subadditive) over every pair u[S] against u[T] + u[S - T]."""
    superadditive = True
    subadditive = True
    for s in range(1, u.shape[0]):
        # proper non-empty submasks t of s; each unordered bipartition seen twice
        t = (s - 1) & s
        while t:
            split = u[t] + u[s ^ t]
            if u[s] < split - tol:
                superadditive = False
            if u[s] > split + tol:
                subadditive = False
            if not (superadditive or subadditive):
                return False, False
            t = (t - 1) & s
    return superadditive, subadditive


def naive_banzhaf(p: np.ndarray) -> np.ndarray:
    """psi[a] = sum over S without a of (p[S] - p[S + a]) / 2**(J-1)."""
    n = p.shape[0]
    j = n.bit_length() - 1
    weight = 1.0 / 2 ** (j - 1)
    psi = np.zeros(j)
    for a in range(j):
        for s in range(n):
            if not s >> a & 1:
                psi[a] += weight * (p[s] - p[s | 1 << a])
    return psi


def exact_shapley(p: np.ndarray) -> list[Fraction]:
    """Shapley values of v = 1 - p in exact rational arithmetic: the floats
    of p are read as the dyadic rationals they are, and the marginal costs
    p[S] - p[S + a] are weighted by |S|! (J-|S|-1)! / J! as Fractions."""
    n = p.shape[0]
    j = n.bit_length() - 1
    exact = [Fraction(x) for x in p.tolist()]
    pc = popcounts(j)
    weights = [Fraction(math.factorial(k) * math.factorial(j - k - 1), math.factorial(j))
               for k in range(j)]
    psi = []
    for a in range(j):
        by_card = [Fraction(0)] * j
        for s in range(n):
            if not s >> a & 1:
                by_card[pc[s]] += exact[s] - exact[s | 1 << a]
        psi.append(sum(w * m for w, m in zip(weights, by_card)))
    return psi


# --- full-pair Monte Carlo reference ---------------------------------------------


def full_pair_worlds(rule, axioms, rankings: np.ndarray, m: int, n: int) -> np.ndarray:
    """World mask for every tuple of a (B, K, n) ranking array, every pair scored.

    The Monte Carlo world computation before it skipped unrelated pairs: both
    profiles of every tuple are counted and get winners, and every relational
    axiom is evaluated on every row.  The fast path must equal it under ==.
    """
    from axiometer.simulation.axioms import (
        EvaluatedProfiles,
        punctual_batch,
        relational_batch,
    )

    first, last = (EvaluatedProfiles(rule, rankings[:, k, :], m, n) for k in (0, -1))
    worlds = np.zeros(rankings.shape[0], dtype=np.int64)
    for bit, ax in enumerate(axioms):
        if ax.kind == "punctual":
            worlds |= punctual_batch(ax.predicate, first).astype(np.int64) << bit
        else:
            worlds |= relational_batch(ax.predicate, first, last).astype(np.int64) << bit
    return worlds


# --- ballot-count references ------------------------------------------------------


def add_at_counts(rankings: np.ndarray, m: int) -> np.ndarray:
    """rules.ranking_counts as it counted before the flat index: ``np.add.at``
    with a (row, ranking) tuple of broadcast indices.  The flat-index count
    must equal it under ==."""
    r = np.asarray(rankings, dtype=np.int64)
    if r.ndim == 1:
        r = r[None, :]
    counts = np.zeros((r.shape[0], math.factorial(m)))
    np.add.at(counts, (np.arange(r.shape[0])[:, None], r), 1.0)
    return counts


def counter_counts(rankings, m: int) -> np.ndarray:
    """Per-ranking ballot counts of each row of a (B, n) index array, one
    ``Counter`` per row."""
    rows = np.atleast_2d(np.asarray(rankings)).tolist()
    counts = np.zeros((len(rows), math.factorial(m)))
    for b, row in enumerate(rows):
        for r, k in Counter(row).items():
            counts[b, r] = k
    return counts


# --- reference sampler ------------------------------------------------------------


def choice_draw(pmf: np.ndarray, rng: np.random.Generator, shape) -> np.ndarray:
    """Ranking indices drawn from ``pmf`` as RankingSampler.sample drew them
    before the guide table: numpy's ``Generator.choice``, which runs one binary
    search over the CDF per draw.  The guide table must equal it under ==."""
    if (pmf == pmf[0]).all():
        return rng.choice(pmf.size, size=shape)
    return rng.choice(pmf.size, size=shape, p=pmf)


class ChoiceSampler:
    """``sampler`` drawing through choice_draw, for estimate_collection."""

    def __init__(self, sampler):
        self.sampler = sampler

    def ranking_pmf(self, m: int) -> np.ndarray:
        return self.sampler.ranking_pmf(m)

    def sample(self, rng: np.random.Generator, m: int, shape) -> np.ndarray:
        return choice_draw(self.ranking_pmf(m), rng, shape)


#: Denominator of the dyadic collections: their entries are multiples of
#: 2**-12, so every sum of them is exact and oracles that add in another
#: order agree to the last bit.
DYADIC_DRAWS = 1 << 12


def random_dyadic_feasible(rng: np.random.Generator, axioms: AxiomSet) -> Collection:
    """Feasible collection of DYADIC_DRAWS worlds drawn from Dirichlet weights."""
    from axiometer.lattice import zeta_superset

    counts = rng.multinomial(DYADIC_DRAWS, rng.dirichlet(np.ones(axioms.n_masks)))
    return Collection(axioms=axioms, p=zeta_superset(counts / DYADIC_DRAWS))


def perturbed(rng: np.random.Generator, c: Collection) -> Collection:
    """``c`` with a quarter of its non-empty entries moved by dyadic steps."""
    p = c.p.copy()
    idx = rng.integers(1, p.shape[0], size=max(1, p.shape[0] // 4))
    steps = rng.integers(-1000, 1001, size=idx.size) / DYADIC_DRAWS
    p[idx] = np.clip(p[idx] + steps, 0.0, 1.0)
    return Collection(axioms=c.axioms, p=p)


def random_capacity(rng: np.random.Generator, axioms: AxiomSet) -> Capacity:
    """Monotone capacity from non-negative subset masses (zeta over subsets)."""
    from axiometer.lattice import zeta_subset

    masses = rng.uniform(0.0, 1.0, axioms.n_masks)
    masses[0] = 0.0
    return Capacity(axioms=axioms, u=zeta_subset(masses))


@lru_cache(maxsize=None)
def dirichlet_collection(j: int) -> Collection:
    """One seeded Dirichlet collection on J axioms, shared between tests."""
    from axiometer import random_collection

    return random_collection(AxiomSet(tuple(f"a{i}" for i in range(j))), 1500 + j)


def random_feasible(rng: np.random.Generator, axioms: AxiomSet, concentration=1.0):
    from axiometer import random_collection

    return random_collection(axioms, rng, concentration)


def permute_collection(c: Collection, perm) -> Collection:
    """Relabel axiom i of the result as axiom perm[i] of the source."""
    n = c.axioms.n_masks
    q = np.empty(n)
    for mask in range(n):
        image = 0
        for i in range(c.axioms.size):
            if mask >> i & 1:
                image |= 1 << perm[i]
        q[mask] = c.p[image]
    return Collection(axioms=c.axioms, p=q)
