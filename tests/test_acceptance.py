"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances and runtime bounds are pinned here, not derived.
"""

import contextlib
import time

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Capacity,
    Collection,
    banzhaf,
    contributions,
    edge,
    is_member,
    perf_min_diff,
    perf_moebius,
    perf_weighted_sum,
    rank,
    reconstruct,
    shapley,
    shapley_bruteforce,
    shapley_via_moebius,
    worlds_matrix,
)
from axiometer.capacities import capacity_moebius
from axiometer.collections import ContributionVector
from axiometer.lattice import moebius_subset, moebius_superset, zeta_subset, zeta_superset
from axiometer.simulation import (
    AxiomSpec,
    ImpartialCulture,
    VotingRule,
    enumerate_collection,
    estimate_collection,
)

from conftest import (
    BASELINE_P,
    FLAT_P,
    DECOMP_ALPHA,
    DECOMP_P,
    STEADY_P,
    SPIKY_P,
    SYNERGY_U,
    CONTRAST_P,
    CONTRAST_W_MIN_DIFF,
    CONTRAST_W_MOEBIUS,
    capacity3,
    collection3,
    in_presentation_order,
    naive_moebius_subset,
    naive_moebius_superset,
    naive_zeta_subset,
    naive_zeta_superset,
    permute_collection,
    random_capacity,
    random_feasible,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {title}", flush=True)
        raise
    print(f"[PASS] criterion {number:2d}: {title}", flush=True)


def test_criterion_1_worked_decomposition_fast_and_exact():
    with criterion(1, "three-axiom decomposition exact within 1e-12, under 1 ms"):
        c = collection3(DECOMP_P)
        contributions(c)  # warm the kernels
        best = min(
            _timed(lambda: contributions(c)) for _ in range(10)
        )
        alpha = contributions(c).alpha
        got = in_presentation_order(alpha)
        assert got == pytest.approx(DECOMP_ALPHA, abs=1e-12)
        assert best < 1e-3, f"decomposition took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_flat_collection_rejected_with_exact_deficit():
    with criterion(2, "flat 0.7-collection rejected, singleton deficits -0.3"):
        report = is_member(collection3(FLAT_P))
        assert report.feasible is False
        negatives = dict(report.negative_contributions)
        assert set(negatives) == {1, 2, 4}
        for value in negatives.values():
            assert value == pytest.approx(-0.3, abs=1e-12)


def test_criterion_3_measure_values_and_opposite_rankings():
    with criterion(3, "weighted-sum 20.1/18.7 vs min-diff 9.3/9.5, opposite orders"):
        cap = capacity3(SYNERGY_U)
        steady, spiky = collection3(STEADY_P), collection3(SPIKY_P)
        assert perf_weighted_sum(cap, steady).value == pytest.approx(20.1, abs=1e-9)
        assert perf_weighted_sum(cap, spiky).value == pytest.approx(18.7, abs=1e-9)
        assert perf_min_diff(cap, steady).value == pytest.approx(9.3, abs=1e-9)
        assert perf_min_diff(cap, spiky).value == pytest.approx(9.5, abs=1e-9)
        entries = [("steady", steady), ("spiky", spiky)]
        assert [e.name for e in rank(entries, cap, "weighted_sum")] == ["steady", "spiky"]
        assert [e.name for e in rank(entries, cap, "min_diff")] == ["spiky", "steady"]


def test_criterion_4_weight_vectors():
    with criterion(4, "min-diff and contribution weight vectors within 1e-12"):
        cap = capacity3(SYNERGY_U)
        c = collection3(CONTRAST_P)
        w_hat = in_presentation_order(perf_min_diff(cap, c).weights)
        w_ddot = in_presentation_order(perf_moebius(cap, c).weights)
        assert w_hat == pytest.approx(CONTRAST_W_MIN_DIFF, abs=1e-12)
        assert w_ddot == pytest.approx(CONTRAST_W_MOEBIUS, abs=1e-12)


def test_criterion_5_unanimity_complement_rejected():
    with criterion(5, "complement of the pair-unanimity game fails membership"):
        abc = AxiomSet(("a1", "a2", "a3"))
        p = 1.0 - np.array([(m & 0b101) == 0b101 for m in range(8)], dtype=float)
        p[0] = 1.0
        assert is_member(Collection(axioms=abc, p=p)).feasible is False


def test_criterion_6_measure_axioms_on_random_inputs():
    with criterion(6, "measure identities on 1000 random capacity/collection pairs"):
        rng = np.random.default_rng(20250810)
        start = time.perf_counter()
        for _ in range(1000):
            j = int(rng.integers(1, 11))
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            cap = random_capacity(rng, axioms)
            c = random_feasible(rng, axioms)
            # cross-formula identity
            via_alpha = perf_moebius(cap, c).value
            via_masses = float(np.dot(c.p[1:], capacity_moebius(cap)[1:]))
            assert via_alpha == pytest.approx(via_masses, abs=1e-9)
            # expected valuation on edge collections
            mask = int(rng.integers(1, axioms.n_masks))
            for lam in (0.0, 0.3, 1.0):
                got = perf_moebius(cap, edge(axioms, mask, lam)).value
                assert got == pytest.approx(lam * float(cap.u[mask]), abs=1e-12)
            # same contribution, same impact
            shared = contributions(c).alpha[mask]
            rest = rng.dirichlet(np.ones(axioms.n_masks - 1)) * (1.0 - shared)
            other = reconstruct(
                ContributionVector(
                    axioms=axioms,
                    alpha=np.insert(rest, mask, shared),
                )
            )
            bumped = cap.u.copy()
            bumped[mask] += 0.5
            cap_bumped = Capacity(axioms=axioms, u=bumped)
            impact = perf_moebius(cap_bumped, c).value - perf_moebius(cap, c).value
            impact_other = (
                perf_moebius(cap_bumped, other).value - perf_moebius(cap, other).value
            )
            assert impact == pytest.approx(impact_other, abs=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"battery took {elapsed:.1f} s"


def test_criterion_7_allocation_axioms_on_random_inputs():
    with criterion(7, "allocation axioms on 1000 random feasible collections"):
        rng = np.random.default_rng(20250811)
        for _ in range(1000):
            j = int(rng.integers(1, 9))
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            c = random_feasible(rng, axioms)
            alloc = shapley(c)
            assert alloc.total == pytest.approx(1.0 - float(c.p[-1]), abs=1e-9)
            perm = rng.permutation(j)
            relabeled = shapley(permute_collection(c, perm)).values
            np.testing.assert_allclose(relabeled, alloc.values[perm], atol=1e-9)
            other = random_feasible(rng, axioms)
            for lam in (0.0, 0.25, 0.5, 1.0):
                mix = Collection(axioms=axioms, p=lam * c.p + (1 - lam) * other.p)
                np.testing.assert_allclose(
                    shapley(mix).values,
                    lam * alloc.values + (1 - lam) * shapley(other).values,
                    atol=1e-9,
                )
            np.testing.assert_allclose(
                shapley_via_moebius(c).values, alloc.values, atol=1e-9
            )
            if j <= 6:
                np.testing.assert_allclose(
                    shapley_bruteforce(c).values, alloc.values, atol=1e-9
                )
        worked = shapley(collection3(BASELINE_P))
        np.testing.assert_allclose(worked.values, (0.0, 0.125, 0.525), atol=1e-12)


def test_criterion_8_transform_and_worlds_oracles():
    with criterion(8, "sweeps equal naive sums; worlds product reproduces p"):
        rng = np.random.default_rng(20250812)
        for j in range(1, 7):
            for _ in range(100):
                x = rng.uniform(-1, 1, 1 << j)
                np.testing.assert_allclose(zeta_superset(x), naive_zeta_superset(x), atol=1e-12)
                np.testing.assert_allclose(moebius_superset(x), naive_moebius_superset(x), atol=1e-12)
                np.testing.assert_allclose(zeta_subset(x), naive_zeta_subset(x), atol=1e-12)
                np.testing.assert_allclose(moebius_subset(x), naive_moebius_subset(x), atol=1e-12)
        for _ in range(100):
            j = int(rng.integers(1, 9))
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            c = random_feasible(rng, axioms)
            h = worlds_matrix(axioms).astype(float)
            np.testing.assert_allclose(
                h @ contributions(c).alpha, c.p[1:], atol=1e-9
            )


def test_criterion_9_simulation_against_enumeration():
    with criterion(9, "1e5-sample estimates within 4 SE of the 216-profile sweep"):
        start = time.perf_counter()
        axioms = [
            AxiomSpec.builtin("condorcet_consistency"),
            AxiomSpec.builtin("majority_winner"),
            AxiomSpec.builtin("strategyproof_pair"),
        ]
        for tag in ("plurality", "copeland"):
            rule = VotingRule(tag)
            exact = enumerate_collection(rule, axioms, 3, 3)
            est = estimate_collection(
                rule, axioms, ImpartialCulture(), 3, 3, 100_000, seed=20240817
            )
            bound = 4.0 * np.sqrt(exact.p * (1.0 - exact.p) / 100_000) + 1e-12
            gap = np.abs(est.collection.p - exact.p)
            assert np.all(gap <= bound), f"{tag}: worst gap {gap.max():.2e}"
            if tag == "copeland":
                assert exact.p[1] == 1.0
                assert est.collection.p[1] == 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"simulation criterion took {elapsed:.1f} s"


def test_criterion_10_dominance_counterexample_regression():
    with criterion(10, "componentwise dominance does not order the measure"):
        two = AxiomSet(("a1", "a2"))
        cap = Capacity(axioms=two, u=np.array([0.0, 1.0, 1.0, 1.0]))
        p = Collection(axioms=two, p=np.array([1.0, 0.5, 0.5, 0.5]))
        p_prime = Collection(axioms=two, p=np.array([1.0, 0.5, 0.5, 0.0]))
        assert np.all(p.p >= p_prime.p)
        assert perf_moebius(cap, p).value == pytest.approx(0.5, abs=1e-12)
        assert perf_moebius(cap, p_prime).value == pytest.approx(1.0, abs=1e-12)


def test_banzhaf_contrast_retained():
    # companion to criterion 7: the uniform-weight allocation misses the
    # overall violation on the all-zeros collection, the Shapley one never does
    abc = AxiomSet(("a1", "a2", "a3"))
    zero = Collection(axioms=abc, p=np.array([1.0] + [0.0] * 7))
    assert banzhaf(zero).total == pytest.approx(0.75)
    assert shapley(zero).total == pytest.approx(1.0)
