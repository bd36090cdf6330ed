"""Shapley and Banzhaf allocations, their oracles, and the axiom batteries.

``shapley`` is the dividend sum over the contributions, taken in two blocked
reductions; it is checked against the per-bit marginal sums over p that it
replaced (relative 1e-13, J = 1..20), against itself with one-row blocks, and
together with the other routes against exact rational Shapley values.
"""

from fractions import Fraction

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Collection,
    InfeasibleCollectionError,
    SizeError,
    banzhaf,
    contributions,
    extreme,
    random_collection,
    reconstruct,
    shapley,
    shapley_bruteforce,
    shapley_via_moebius,
)
from axiometer import lattice
from axiometer.collections import ContributionVector
from axiometer.lattice import block_rows, popcounts

from conftest import (
    BASELINE_P,
    FLAT_P,
    collection3,
    dirichlet_collection,
    exact_shapley,
    marginal_shapley,
    permute_collection,
    random_feasible,
)

EX1_SHAPLEY = (0.0, 0.125, 0.525)
# Direct 4-term sums per axiom, cross-checked against the dividend formula;
# for this collection the Banzhaf values coincide with the Shapley ones.
EX1_BANZHAF = (0.0, 0.125, 0.525)


def symmetric_collection(abc, by_size) -> Collection:
    p = np.array([by_size[int(k)] for k in popcounts(3)])
    return Collection(axioms=abc, p=p)


class TestShapley:
    def test_worked_allocation(self):
        alloc = shapley(collection3(BASELINE_P))
        np.testing.assert_allclose(alloc.values, EX1_SHAPLEY, atol=1e-12)
        assert alloc.total == pytest.approx(0.65, abs=1e-12)

    def test_all_ones_gives_zeros(self, abc):
        np.testing.assert_array_equal(shapley(extreme(abc, 7)).values, np.zeros(3))

    def test_symmetric_collection_splits_evenly(self, abc):
        c = symmetric_collection(abc, {0: 1.0, 1: 0.6, 2: 0.4, 3: 0.3})
        alloc = shapley(c)
        np.testing.assert_allclose(alloc.values, np.full(3, 0.7 / 3), atol=1e-12)

    def test_rejects_infeasible(self):
        with pytest.raises(InfeasibleCollectionError):
            shapley(collection3(FLAT_P))


class TestShapleyViaMoebius:
    def test_worked_allocation(self):
        alloc = shapley_via_moebius(collection3(BASELINE_P))
        np.testing.assert_allclose(alloc.values, EX1_SHAPLEY, atol=1e-12)

    def test_extreme_point_allocation(self, abc):
        # weight sits on one subset: axioms outside it split the whole unit
        for mask in range(7):  # proper subsets of the full set
            alloc = shapley_via_moebius(extreme(abc, mask))
            outside = [a for a in range(3) if not mask >> a & 1]
            for a in range(3):
                expected = 1.0 / len(outside) if a in outside else 0.0
                assert alloc.values[a] == pytest.approx(expected, abs=1e-12)

    def test_zero_collection_splits_evenly(self, abc):
        alloc = shapley_via_moebius(extreme(abc, 0))
        np.testing.assert_allclose(alloc.values, np.full(3, 1 / 3), atol=1e-12)


class TestBanzhaf:
    def test_all_ones_gives_zeros(self, abc):
        np.testing.assert_array_equal(banzhaf(extreme(abc, 7)).values, np.zeros(3))

    def test_single_axiom_matches_shapley(self):
        one = AxiomSet(("a1",))
        c = Collection(axioms=one, p=np.array([1.0, 0.3]))
        assert banzhaf(c).values[0] == pytest.approx(0.7)
        assert shapley(c).values[0] == pytest.approx(0.7)

    def test_worked_collection_values(self):
        alloc = banzhaf(collection3(BASELINE_P))
        np.testing.assert_allclose(alloc.values, EX1_BANZHAF, atol=1e-12)

    def test_violates_allocation_on_zero_collection(self, abc):
        # every axiom gets 1/4 but the overall violation is 1
        alloc = banzhaf(extreme(abc, 0))
        np.testing.assert_allclose(alloc.values, np.full(3, 0.25), atol=1e-12)
        assert alloc.total == pytest.approx(0.75)
        assert alloc.total != pytest.approx(1.0)

    def test_no_feasibility_gate(self):
        banzhaf(collection3(FLAT_P))  # must not raise


class TestBruteforce:
    def test_worked_allocation(self):
        alloc = shapley_bruteforce(collection3(BASELINE_P))
        np.testing.assert_allclose(alloc.values, EX1_SHAPLEY, atol=1e-12)

    def test_zero_game_gives_zeros(self, abc):
        np.testing.assert_array_equal(
            shapley_bruteforce(extreme(abc, 7)).values, np.zeros(3)
        )

    def test_matches_direct_formula_on_random_input(self):
        rng = np.random.default_rng(61)
        axioms = AxiomSet(("w", "x", "y", "z"))
        for _ in range(25):
            c = random_feasible(rng, axioms)
            np.testing.assert_allclose(
                shapley_bruteforce(c).values, shapley(c).values, atol=1e-9
            )

    def test_size_guard(self):
        axioms = AxiomSet(tuple(f"a{i}" for i in range(9)))
        with pytest.raises(SizeError):
            shapley_bruteforce(extreme(axioms, 0))


def test_allocation_of_incompatibility_on_random_collections():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        j = int(rng.integers(1, 11))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c = random_feasible(rng, axioms)
        alloc = shapley(c)
        assert alloc.total == pytest.approx(1.0 - float(c.p[-1]), abs=1e-9)


def test_anonymity_under_random_permutations():
    rng = np.random.default_rng(83)
    for _ in range(300):
        j = int(rng.integers(2, 8))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c = random_feasible(rng, axioms)
        perm = rng.permutation(j)
        permuted = permute_collection(c, perm)
        base = shapley(c).values
        relabeled = shapley(permuted).values
        np.testing.assert_allclose(relabeled, base[perm], atol=1e-9)


def test_same_cost_means_same_incompatibility():
    # Move the weight of every subset containing the chosen axiom onto the
    # full set (whose game is identically zero): the axiom's marginal costs
    # p[S] - p[S + a] only involve subsets without the axiom, so they are
    # unchanged and its share must be too.
    rng = np.random.default_rng(89)
    for _ in range(300):
        j = int(rng.integers(2, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c = random_feasible(rng, axioms)
        axis = int(rng.integers(0, j))
        bit = 1 << axis
        masks = np.arange(axioms.n_masks)
        alpha = contributions(c).alpha.copy()
        containing = (masks & bit != 0) & (masks != axioms.full_mask)
        moved = alpha[containing].sum()
        alpha[containing] = 0.0
        alpha[axioms.full_mask] += moved
        other = reconstruct(
            ContributionVector(axioms=axioms, alpha=alpha)
        )
        without = masks[masks & bit == 0]
        np.testing.assert_allclose(
            c.p[without] - c.p[without | bit],
            other.p[without] - other.p[without | bit],
            atol=1e-12,
        )
        assert shapley(c).values[axis] == pytest.approx(
            shapley(other).values[axis], abs=1e-9
        )


def test_no_cost_no_incompatibility():
    # all decomposition weight on subsets containing the axiom: zero marginals
    rng = np.random.default_rng(97)
    for _ in range(200):
        j = int(rng.integers(1, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        axis = int(rng.integers(0, j))
        bit = 1 << axis
        containing = [m for m in range(axioms.n_masks) if m & bit]
        weights = rng.dirichlet(np.ones(len(containing)))
        alpha = np.zeros(axioms.n_masks)
        alpha[containing] = weights
        c = reconstruct(
            ContributionVector(axioms=axioms, alpha=alpha)
        )
        marginals = c.p[[m for m in range(axioms.n_masks) if not m & bit]] - c.p[
            [m | bit for m in range(axioms.n_masks) if not m & bit]
        ]
        np.testing.assert_allclose(marginals, 0.0, atol=1e-12)
        assert shapley(c).values[axis] == pytest.approx(0.0, abs=1e-9)


def test_convex_linearity():
    rng = np.random.default_rng(103)
    for _ in range(200):
        j = int(rng.integers(1, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c1 = random_feasible(rng, axioms)
        c2 = random_feasible(rng, axioms)
        for lam in (0.0, 0.25, 0.5, 1.0):
            mix = Collection(axioms=axioms, p=lam * c1.p + (1 - lam) * c2.p)
            combined = shapley(mix).values
            expected = lam * shapley(c1).values + (1 - lam) * shapley(c2).values
            np.testing.assert_allclose(combined, expected, atol=1e-9)


def test_three_routes_agree_on_random_feasible_collections():
    rng = np.random.default_rng(109)
    for _ in range(150):
        j = int(rng.integers(1, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c = random_feasible(rng, axioms)
        blocked = shapley(c).values
        via_alpha = shapley_via_moebius(c).values
        brute = shapley_bruteforce(c).values
        np.testing.assert_allclose(blocked, via_alpha, atol=1e-9)
        np.testing.assert_allclose(blocked, brute, atol=1e-9)


SIZES = range(1, 21)


@pytest.mark.parametrize("j", SIZES)
def test_shapley_matches_per_bit_marginal_sums(j):
    c = dirichlet_collection(j)
    np.testing.assert_allclose(shapley(c).values, marginal_shapley(c.p), rtol=1e-13, atol=0)


@pytest.mark.parametrize("j", SIZES)
def test_shapley_reductions_do_not_depend_on_the_block(j, monkeypatch):
    c = dirichlet_collection(j)
    default = shapley(c).values
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", 8)
    assert block_rows(c.p.reshape(-1, 1 << j // 2)) == 1
    np.testing.assert_allclose(shapley(c).values, default, rtol=1e-13, atol=0)


#: Worst relative error against exact Shapley values that any route may show;
#: the routes measure below 1e-15 on these inputs.
EXACT_RTOL = 1e-14


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("j", [6, 8, 10])
def test_routes_match_exact_rational_shapley(j, seed):
    axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
    c = random_collection(axioms, 900 + 10 * j + seed)
    exact = exact_shapley(c.p)
    for values in (shapley(c).values, shapley_via_moebius(c).values, marginal_shapley(c.p)):
        rel = max(abs(Fraction(v) - e) / e for v, e in zip(values.tolist(), exact))
        assert rel <= EXACT_RTOL
