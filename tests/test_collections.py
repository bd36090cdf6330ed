"""Collection validation, decomposition, generators, and the worlds oracle."""

import itertools

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Collection,
    NegativeWeightError,
    ParseError,
    RangeError,
    SizeError,
    collection_from_json,
    collection_to_json,
    contributions,
    edge,
    extreme,
    frechet_check,
    is_member,
    random_collection,
    reconstruct,
    worlds_matrix,
)
from axiometer.lattice import zeta_superset

from conftest import (
    BASELINE_ALPHA,
    BASELINE_P,
    FLAT_P,
    DECOMP_ALPHA,
    DECOMP_P,
    collection3,
    in_presentation_order,
    presentation_to_masks,
    random_feasible,
)


def unanimity_complement(abc) -> Collection:
    """p = 1 minus the unanimity indicator of {a1, a3}: singletons certain,
    their pair impossible."""
    p = 1.0 - np.array([(m & 0b101) == 0b101 for m in range(8)], dtype=float)
    p[0] = 1.0
    return Collection(axioms=abc, p=p)


class TestCollectionType:
    def test_requires_unit_empty_entry(self, abc):
        p = np.full(8, 0.5)
        with pytest.raises(RangeError):
            Collection(axioms=abc, p=p)

    def test_rejects_out_of_range(self, abc):
        p = np.ones(8)
        p[3] = 1.2
        with pytest.raises(RangeError):
            Collection(axioms=abc, p=p)

    def test_array_is_frozen(self, abc):
        c = collection3(BASELINE_P)
        with pytest.raises(ValueError):
            c.p[1] = 0.0


class TestFrechetCheck:
    def test_first_worked_collection_clean(self):
        report = frechet_check(collection3(BASELINE_P))
        assert report.frechet_violations == ()
        assert report.feasible is None  # bounds are necessary, not sufficient

    def test_flat_inconsistent_collection_passes_bounds(self):
        # the collection is infeasible, yet no pairwise bound can see it
        report = frechet_check(collection3(FLAT_P))
        assert report.frechet_violations == ()

    def test_monotonicity_violation_reported(self):
        two = AxiomSet(("a1", "a2"))
        c = Collection(axioms=two, p=np.array([1.0, 0.3, 1.0, 0.5]))
        report = frechet_check(c)
        assert report.feasible is False
        kinds = {(v.subset, v.kind) for v in report.frechet_violations}
        assert (0b11, "monotonicity") in kinds

    def test_lower_bound_violation_reported(self):
        two = AxiomSet(("a1", "a2"))
        # p12 must be >= 0.9 + 0.8 - 1 = 0.7
        c = Collection(axioms=two, p=np.array([1.0, 0.9, 0.8, 0.5]))
        report = frechet_check(c)
        assert any(v.kind == "lower_bound" for v in report.frechet_violations)


class TestContributions:
    def test_worked_decomposition(self):
        cv = contributions(collection3(DECOMP_P))
        assert in_presentation_order(cv.alpha) == pytest.approx(DECOMP_ALPHA, abs=1e-12)
        assert cv.residual == pytest.approx(0.0, abs=1e-12)

    def test_first_collection_by_hand_recursion(self):
        cv = contributions(collection3(BASELINE_P))
        assert in_presentation_order(cv.alpha) == pytest.approx(BASELINE_ALPHA, abs=1e-12)

    def test_extreme_point_is_unit(self, abc):
        for mask in range(8):
            cv = contributions(extreme(abc, mask))
            expected = np.zeros(8)
            expected[mask] = 1.0
            np.testing.assert_allclose(cv.alpha, expected, atol=1e-12)

    def test_weights_of_any_collection_sum_to_one(self):
        rng = np.random.default_rng(43)
        for values in (BASELINE_P, FLAT_P, DECOMP_P):
            assert float(contributions(collection3(values)).alpha.sum()) == pytest.approx(
                1.0, abs=1e-9
            )
        for j in (1, 4, 9):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            c = random_feasible(rng, axioms)
            assert float(contributions(c).alpha.sum()) == pytest.approx(1.0, abs=1e-9)


class TestIsMember:
    def test_flat_collection_rejected_with_singleton_deficit(self):
        report = is_member(collection3(FLAT_P))
        assert report.feasible is False
        negs = dict(report.negative_contributions)
        assert set(negs) == {1, 2, 4}
        for value in negs.values():
            assert value == pytest.approx(-0.3, abs=1e-12)

    def test_unanimity_complement_rejected(self, abc):
        assert is_member(unanimity_complement(abc)).feasible is False

    def test_first_worked_collection_accepted(self):
        assert is_member(collection3(BASELINE_P)).feasible is True

    def test_feasible_report_has_no_violations(self):
        report = is_member(collection3(BASELINE_P))
        assert report.negative_contributions == ()
        assert report.frechet_violations == ()

    def test_tolerance_is_overridable(self):
        two = AxiomSet(("a1", "a2"))
        # residual weight is -2e-9: past the default tolerance, inside 1e-8
        c = Collection(axioms=two, p=np.array([1.0, 0.5, 0.5 + 2e-9, 0.0]))
        assert is_member(c).feasible is False
        assert is_member(c, tol=1e-8).feasible is True


class TestReconstruct:
    def test_worked_weights_to_collection(self, abc):
        cv = contributions(collection3(DECOMP_P))
        c = reconstruct(cv)
        assert in_presentation_order(c.p) == pytest.approx(DECOMP_P, abs=1e-12)

    def test_unit_weight_at_empty_gives_zero_collection(self, abc):
        cv = contributions(extreme(abc, 0))
        c = reconstruct(cv)
        np.testing.assert_allclose(c.p[1:], np.zeros(7), atol=1e-12)

    def test_random_simplex_roundtrip(self):
        rng = np.random.default_rng(11)
        for j in (1, 3, 6, 10):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            c = random_collection(axioms, rng)
            again = reconstruct(contributions(c))
            np.testing.assert_allclose(again.p, c.p, atol=1e-12)

    def test_rejects_negative_weights(self):
        cv = contributions(collection3(FLAT_P))
        with pytest.raises(NegativeWeightError):
            reconstruct(cv)


class TestGenerators:
    def test_extreme_of_full_set_is_all_ones(self, abc):
        np.testing.assert_array_equal(extreme(abc, 7).p, np.ones(8))

    def test_extreme_of_empty_is_zero_collection(self, abc):
        p = extreme(abc, 0).p
        assert p[0] == 1.0
        np.testing.assert_array_equal(p[1:], np.zeros(7))

    def test_extreme_of_pair(self, abc):
        assert in_presentation_order(extreme(abc, 0b011).p) == [1, 1, 0, 1, 0, 0, 0]

    def test_edge_matches_worked_illustration(self, abc):
        c = edge(abc, 0b101, 0.6)
        assert in_presentation_order(c.p) == pytest.approx([0.6, 0, 0.6, 0, 0.6, 0, 0])

    def test_edge_limits(self, abc):
        np.testing.assert_array_equal(edge(abc, 0b011, 1.0).p, extreme(abc, 0b011).p)
        np.testing.assert_array_equal(edge(abc, 0b011, 0.0).p, extreme(abc, 0).p)

    def test_edge_rejects_bad_lambda(self, abc):
        with pytest.raises(RangeError):
            edge(abc, 0b011, 1.5)

    def test_random_collection_feasible_and_deterministic(self, abc):
        a = random_collection(abc, 99)
        b = random_collection(abc, 99)
        np.testing.assert_array_equal(a.p, b.p)
        assert is_member(a, tol=1e-9).feasible

    def test_random_collection_concentration_flattens_weights(self):
        axioms = AxiomSet(tuple(f"a{i}" for i in range(4)))
        c = random_collection(axioms, 5, concentration=1e7)
        alpha = contributions(c).alpha
        assert np.max(np.abs(alpha - 1.0 / 16)) < 1e-3

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_random_collection_rejects_bad_concentration(self, abc, bad):
        with pytest.raises(RangeError, match="concentration"):
            random_collection(abc, 1, concentration=bad)


class TestWorldsMatrix:
    def test_column_of_pair_world(self, abc):
        h = worlds_matrix(abc)
        world = 0b011  # a1 and a2 true
        column = h[:, world]
        expected_rows = {0b001, 0b010, 0b011}
        assert {m for m in range(1, 8) if column[m - 1]} == expected_rows

    def test_empty_world_column_is_zero(self, abc):
        h = worlds_matrix(abc)
        assert not h[:, 0].any()

    def test_matrix_product_reproduces_random_feasible(self):
        rng = np.random.default_rng(23)
        for j in (2, 4, 8):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            h = worlds_matrix(axioms).astype(float)
            for _ in range(100 // len((2, 4, 8)) + 1):
                c = random_feasible(rng, axioms)
                alpha = contributions(c).alpha
                np.testing.assert_allclose(h @ alpha, c.p[1:], atol=1e-9)

    def test_size_guard(self):
        axioms = AxiomSet(tuple(f"a{i}" for i in range(13)))
        with pytest.raises(SizeError):
            worlds_matrix(axioms)


def _world_distribution_exists(p3: np.ndarray) -> bool:
    """Independent two-axiom oracle: solve the square linear system made of
    the incidence rows plus normalization, then check non-negativity."""
    two = AxiomSet(("a1", "a2"))
    h = worlds_matrix(two).astype(float)
    system = np.vstack([h, np.ones(4)])
    rhs = np.concatenate([p3, [1.0]])
    pi, residual, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.linalg.norm(system @ pi - rhs) > 1e-9:
        return False
    return bool(np.all(pi >= -1e-9))


def test_membership_matches_worlds_oracle_exhaustively_two_axioms():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    two = AxiomSet(("a1", "a2"))
    for p1, p2, p12 in itertools.product(grid, repeat=3):
        p = np.array([1.0, p1, p2, p12])
        verdict = is_member(Collection(axioms=two, p=p)).feasible
        assert verdict == _world_distribution_exists(p[1:]), (p1, p2, p12)


def test_frechet_necessary_on_random_feasible():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        j = int(rng.integers(1, 7))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        c = random_feasible(rng, axioms)
        assert is_member(c).feasible
        assert frechet_check(c).frechet_violations == ()


def test_membership_accepts_convex_combinations_of_extremes(abc):
    rng = np.random.default_rng(41)
    for _ in range(50):
        weights = rng.dirichlet(np.ones(8))
        p = zeta_superset(weights)
        p[0] = 1.0
        c = Collection(axioms=abc, p=np.clip(p, 0.0, 1.0))
        assert is_member(c).feasible


class TestJson:
    def test_roundtrip(self):
        c = collection3(BASELINE_P)
        doc = collection_to_json(c)
        again = collection_from_json(doc)
        np.testing.assert_array_equal(again.p, c.p)
        assert again.axioms.labels == c.axioms.labels

    def test_keys_are_order_insensitive(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["p"]["a2+a1"] = doc["p"].pop("a1+a2")
        np.testing.assert_array_equal(
            collection_from_json(doc).p, collection3(BASELINE_P).p
        )

    def test_missing_subset(self):
        doc = collection_to_json(collection3(BASELINE_P))
        del doc["p"]["a1+a3"]
        with pytest.raises(ParseError, match="missing"):
            collection_from_json(doc)

    def test_extra_subset_key(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["p"]["a1-a2"] = 0.5
        with pytest.raises(ParseError):
            collection_from_json(doc)

    def test_duplicate_subset_key(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["p"]["a2+a1"] = 0.8
        with pytest.raises(ParseError, match="twice"):
            collection_from_json(doc)

    def test_extra_top_level_key(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["note"] = "hi"
        with pytest.raises(ParseError):
            collection_from_json(doc)

    def test_non_numeric_value(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["p"]["a1"] = "high"
        with pytest.raises(ParseError):
            collection_from_json(doc)

    def test_out_of_range_value(self):
        doc = collection_to_json(collection3(BASELINE_P))
        doc["p"]["a1"] = 1.5
        with pytest.raises(ParseError):
            collection_from_json(doc)

    def test_axiom_cap_enforced_at_parse_time(self):
        doc = {"axioms": [f"a{i}" for i in range(21)], "p": {}}
        with pytest.raises(ParseError):
            collection_from_json(doc)
