"""The three performance measures, their identities, and rule ranking."""

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Capacity,
    Collection,
    InfeasibleCollectionError,
    SchemaError,
    contributions,
    edge,
    extreme,
    lattice,
    perf_min_diff,
    perf_moebius,
    perf_weighted_sum,
    rank,
    reconstruct,
)
from axiometer.capacities import capacity_moebius
from axiometer.performance import TIE_TOL, RankedEntry, rank_values, strict_superset_max

from conftest import (
    FLAT_P,
    DECOMP_P,
    SYNERGY_SMALL_U,
    STEADY_P,
    SPIKY_P,
    SYNERGY_U,
    CONTRAST_P,
    CONTRAST_W_MIN_DIFF,
    CONTRAST_W_MOEBIUS,
    capacity3,
    collection3,
    dirichlet_collection,
    in_presentation_order,
    naive_strict_superset_max,
    per_bit_strict_superset_max,
    random_capacity,
    random_feasible,
)


class TestMoebiusMeasure:
    def test_worked_value(self):
        result = perf_moebius(capacity3(SYNERGY_SMALL_U), collection3(DECOMP_P))
        assert result.value == pytest.approx(3.25, abs=1e-12)

    def test_edge_collection_gives_expected_valuation(self, abc):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cap = random_capacity(rng, abc)
            mask = int(rng.integers(1, 8))
            for lam in (0.0, 0.3, 1.0):
                got = perf_moebius(cap, edge(abc, mask, lam)).value
                assert got == pytest.approx(lam * float(cap.u[mask]), abs=1e-12)

    def test_zero_capacity_gives_zero(self, abc):
        cap = Capacity(axioms=abc, u=np.zeros(8))
        assert perf_moebius(cap, collection3(DECOMP_P)).value == 0.0

    def test_rejects_infeasible_collection(self):
        with pytest.raises(InfeasibleCollectionError):
            perf_moebius(capacity3(SYNERGY_SMALL_U), collection3(FLAT_P))

    def test_nonnegative_on_valid_inputs(self):
        rng = np.random.default_rng(5)
        for j in (1, 3, 6):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            for _ in range(30):
                value = perf_moebius(
                    random_capacity(rng, axioms), random_feasible(rng, axioms)
                ).value
                assert value >= -1e-12

    def test_value_matches_weight_identity(self):
        cap, c = capacity3(SYNERGY_U), collection3(STEADY_P)
        result = perf_moebius(cap, c)
        assert result.value == pytest.approx(
            float(np.dot(cap.u, result.weights)), abs=1e-9
        )


class TestWeightedSum:
    def test_worked_pair_of_values(self):
        cap = capacity3(SYNERGY_U)
        assert perf_weighted_sum(cap, collection3(STEADY_P)).value == pytest.approx(20.1)
        assert perf_weighted_sum(cap, collection3(SPIKY_P)).value == pytest.approx(18.7)

    def test_third_worked_value(self):
        assert perf_weighted_sum(capacity3(SYNERGY_SMALL_U), collection3(DECOMP_P)).value == pytest.approx(7.25)


class TestMinDiff:
    def test_worked_pair_of_values(self):
        cap = capacity3(SYNERGY_U)
        assert perf_min_diff(cap, collection3(STEADY_P)).value == pytest.approx(9.3)
        assert perf_min_diff(cap, collection3(SPIKY_P)).value == pytest.approx(9.5)

    def test_weight_vector(self):
        weights = perf_min_diff(capacity3(SYNERGY_SMALL_U), collection3(CONTRAST_P)).weights
        assert in_presentation_order(weights) == pytest.approx(CONTRAST_W_MIN_DIFF, abs=1e-12)

    def test_extreme_point_concentrates_weight(self, abc):
        rng = np.random.default_rng(9)
        cap = random_capacity(rng, abc)
        for mask in range(1, 8):
            result = perf_min_diff(cap, extreme(abc, mask))
            expected = np.zeros(8)
            expected[mask] = 1.0
            np.testing.assert_allclose(result.weights, expected, atol=1e-12)
            assert result.value == pytest.approx(float(cap.u[mask]))

    def test_strict_superset_max_matches_naive(self):
        rng = np.random.default_rng(19)
        for j in (1, 3, 5):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            for _ in range(30):
                c = random_feasible(rng, axioms)
                # max is exact, so the oracle is met to the last bit
                assert np.array_equal(strict_superset_max(c), naive_strict_superset_max(c.p))


#: The default block, and 64 bytes: with the two arrays of the fused pass,
#: one-row blocks from J = 4 on.
BLOCK_BYTES = [lattice.SWEEP_BLOCK_BYTES, 64]


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("j", range(1, 21))
def test_strict_superset_max_is_bit_identical_to_per_bit_loop(j, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(500 + j)
    p = rng.uniform(0.0, 1.0, 1 << j)  # not monotone
    p[0] = 1.0
    axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
    for c in (Collection(axioms, p), dirichlet_collection(j)):
        assert np.array_equal(strict_superset_max(c), per_bit_strict_superset_max(c.p))


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
def test_strict_superset_max_keeps_the_bits_of_ties_and_signed_zeros(block_bytes, monkeypatch):
    """Quarter steps tie often, and every zero gets a random sign, so some
    subsets have only zeros of both signs above them: which zero wins then
    depends on the order of the maxima, and the bit patterns must agree."""
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(31)
    negative_zeros = 0
    for j in range(1, 9):
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        for high in (2, 0):  # quarters in [0, 0.5], then zeros only
            for _ in range(10):
                p = rng.integers(0, high + 1, axioms.n_masks) / 4
                p[(p == 0.0) & (rng.random(axioms.n_masks) < 0.5)] = -0.0
                p[0] = 1.0
                got = strict_superset_max(Collection(axioms, p))
                want = per_bit_strict_superset_max(p)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                negative_zeros += int(np.count_nonzero(np.signbit(want) & (want == 0.0)))
    assert negative_zeros > 0


class TestMoebiusWeights:
    def test_worked_comparison_row(self):
        weights = perf_moebius(capacity3(SYNERGY_U), collection3(CONTRAST_P)).weights
        assert in_presentation_order(weights) == pytest.approx(CONTRAST_W_MOEBIUS, abs=1e-12)

    def test_matches_contributions(self):
        weights = perf_moebius(capacity3(SYNERGY_U), collection3(DECOMP_P)).weights
        alpha = contributions(collection3(DECOMP_P)).alpha
        assert weights[0] == 0.0
        np.testing.assert_allclose(weights[1:], alpha[1:], atol=1e-15)

    def test_extreme_is_unit(self, abc):
        cap = Capacity(axioms=abc, u=np.zeros(8))
        weights = perf_moebius(cap, extreme(abc, 0b110)).weights
        expected = np.zeros(8)
        expected[0b110] = 1.0
        np.testing.assert_array_equal(weights, expected)


def reference_ranking(named):
    """The documented tie rule, group by group: in descending order (input
    order among equal values), a group takes every value within TIE_TOL of
    its head, and its rank is the head's position plus one."""
    order = sorted(range(len(named)), key=lambda i: (-named[i][1], i))
    ranked = []
    while len(ranked) < len(order):
        head = named[order[len(ranked)]][1]
        group = [i for i in order[len(ranked):] if named[i][1] >= head - TIE_TOL]
        ranked += [RankedEntry(named[i][0], named[i][1], len(ranked) + 1) for i in sorted(group)]
    return ranked


class TestRank:
    def test_opposite_orders_around_the_worked_pair(self):
        cap = capacity3(SYNERGY_U)
        entries = [("p", collection3(STEADY_P)), ("p_prime", collection3(SPIKY_P))]
        by_min_diff = rank(entries, cap, "min_diff")
        assert [e.name for e in by_min_diff] == ["p_prime", "p"]
        assert [e.value for e in by_min_diff] == pytest.approx([9.5, 9.3])
        by_sum = rank(entries, cap, "weighted_sum")
        assert [e.name for e in by_sum] == ["p", "p_prime"]
        assert [e.value for e in by_sum] == pytest.approx([20.1, 18.7])

    def test_single_entry(self):
        ranked = rank([("only", collection3(DECOMP_P))], capacity3(SYNERGY_SMALL_U))
        assert len(ranked) == 1 and ranked[0].rank == 1

    def test_ties_share_rank_and_keep_input_order(self):
        cap = capacity3(SYNERGY_U)
        entries = [
            ("second_copy", collection3(STEADY_P)),
            ("first_copy", collection3(STEADY_P)),
            ("weaker", collection3(CONTRAST_P)),
        ]
        ranked = rank(entries, cap, "moebius")
        assert [e.name for e in ranked] == ["second_copy", "first_copy", "weaker"]
        assert [e.rank for e in ranked] == [1, 1, 3]

    def test_a_group_is_measured_from_its_head(self):
        # each neighbour is within TIE_TOL of the next, the third is not
        # within TIE_TOL of the head
        step = 0.6 * TIE_TOL
        ranked = rank_values([("c", 1.0 - 2 * step), ("b", 1.0 - step), ("a", 1.0)])
        assert [(e.name, e.rank) for e in ranked] == [("b", 1), ("a", 1), ("c", 3)]

    def test_tie_chains_follow_the_head_rule(self):
        rng = np.random.default_rng(211)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            steps = TIE_TOL * rng.uniform(0.5, 1.5, size=n)
            steps[rng.random(n) < 0.2] = 0.0  # exact repeats
            chain = float(rng.uniform(-5.0, 5.0)) - np.cumsum(steps)
            named = [(f"r{i}", float(v)) for i, v in enumerate(rng.permutation(chain))]
            assert rank_values(named) == reference_ranking(named), named

    def test_mixed_axiom_sets_rejected(self):
        other = AxiomSet(("x", "y", "z"))
        weird = extreme(other, 0b111)
        with pytest.raises(SchemaError):
            rank([("a", collection3(DECOMP_P)), ("b", weird)], capacity3(SYNERGY_SMALL_U))


def test_cross_formula_identity_many_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        j = int(rng.integers(1, 11))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        cap = random_capacity(rng, axioms)
        c = random_feasible(rng, axioms)
        via_alpha = perf_moebius(cap, c).value
        via_capacity_masses = float(np.dot(c.p[1:], capacity_moebius(cap)[1:]))
        assert via_alpha == pytest.approx(via_capacity_masses, abs=1e-9)


def _transplant(rng, axioms, mask):
    """Two feasible collections sharing the contribution at ``mask``."""
    base = rng.dirichlet(np.ones(axioms.n_masks))
    other = rng.dirichlet(np.ones(axioms.n_masks - 1)) * (1.0 - base[mask])
    alpha = np.insert(other, mask, base[mask])
    first = reconstruct(contributions_like(axioms, base))
    second = reconstruct(contributions_like(axioms, alpha))
    return first, second


def contributions_like(axioms, alpha):
    from axiometer.collections import ContributionVector

    return ContributionVector(axioms=axioms, alpha=np.asarray(alpha))


def test_same_contribution_means_same_impact():
    rng = np.random.default_rng(55)
    for _ in range(200):
        j = int(rng.integers(1, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        mask = int(rng.integers(1, axioms.n_masks))
        c, c_prime = _transplant(rng, axioms, mask)
        cap = random_capacity(rng, axioms)
        bumped = cap.u.copy()
        # the identity is linear in u, so it must hold whether or not the
        # bump keeps the capacity monotone; testing the stronger statement
        bumped[mask] += 1.0
        cap_bumped = Capacity(axioms=axioms, u=bumped)
        impact = perf_moebius(cap_bumped, c).value - perf_moebius(cap, c).value
        impact_prime = (
            perf_moebius(cap_bumped, c_prime).value - perf_moebius(cap, c_prime).value
        )
        assert impact == pytest.approx(impact_prime, abs=1e-9)


def test_componentwise_dominance_does_not_order_the_measure():
    """Pinned two-axiom counterexample: p >= p' everywhere yet the measure
    ranks p' higher.  Guards against 'simplifying' the dominance claim."""
    two = AxiomSet(("a1", "a2"))
    cap = Capacity(axioms=two, u=np.array([0.0, 1.0, 1.0, 1.0]))
    from axiometer import Collection

    p = Collection(axioms=two, p=np.array([1.0, 0.5, 0.5, 0.5]))
    p_prime = Collection(axioms=two, p=np.array([1.0, 0.5, 0.5, 0.0]))
    assert np.all(p.p >= p_prime.p)
    value = perf_moebius(cap, p).value
    value_prime = perf_moebius(cap, p_prime).value
    assert value == pytest.approx(0.5, abs=1e-12)
    assert value_prime == pytest.approx(1.0, abs=1e-12)
    assert value < value_prime


class TestMaxFormWitness:
    """The max-form measure respects expected valuation but not the
    same-contribution principle; kept here only as an independence witness."""

    @staticmethod
    def _max_measure(cap, c):
        return float(np.max(cap.u[1:] * c.p[1:]))

    def test_expected_valuation_holds(self, abc):
        rng = np.random.default_rng(71)
        cap = random_capacity(rng, abc)
        for lam in (0.0, 0.4, 1.0):
            for mask in range(1, 8):
                c = edge(abc, mask, lam)
                assert self._max_measure(cap, c) == pytest.approx(
                    lam * float(cap.u[mask]), abs=1e-12
                )

    def test_same_contribution_fails(self):
        cap = capacity3((1, 1, 1, 3, 3, 2, 6))
        cap_bumped = capacity3((1, 1, 1, 3, 3, 5, 6))
        c = collection3((0.85, 0.9, 0.9, 0.65, 0.7, 0.8, 0.6))
        c_prime = collection3((0.7, 0.55, 0.5, 0.35, 0.3, 0.4, 0.2))
        alpha = contributions(c).alpha
        alpha_prime = contributions(c_prime).alpha
        assert alpha[0b110] == pytest.approx(alpha_prime[0b110], abs=1e-12)
        impact = self._max_measure(cap_bumped, c) - self._max_measure(cap, c)
        impact_prime = self._max_measure(cap_bumped, c_prime) - self._max_measure(
            cap, c_prime
        )
        assert impact == pytest.approx(0.4, abs=1e-12)
        assert impact_prime == pytest.approx(0.8, abs=1e-12)
