"""Capacity validation, cardinality construction, and the subset transform."""

import numpy as np
import pytest

import axiometer.capacities as capacities_module
from axiometer import (
    AxiomSet,
    Capacity,
    MonotonicityError,
    ParseError,
    RangeError,
    capacity_from_json,
    capacity_moebius,
    capacity_to_json,
    cardinality_capacity,
    normalize,
    validate_capacity,
)
from axiometer.lattice import popcounts, zeta_subset

from conftest import (
    SYNERGY_SMALL_U,
    SYNERGY_U,
    capacity3,
    naive_additivity_flags,
    random_capacity,
)


class TestCapacityType:
    def test_requires_zero_at_empty(self, abc):
        with pytest.raises(RangeError):
            Capacity(axioms=abc, u=np.ones(8))

    def test_rejects_negative_values(self, abc):
        u = np.zeros(8)
        u[5] = -0.1
        with pytest.raises(RangeError):
            Capacity(axioms=abc, u=u)


class TestValidateCapacity:
    def test_synergy_capacity_flags(self):
        report = validate_capacity(capacity3(SYNERGY_SMALL_U))
        assert report.monotone and report.strict
        assert report.superadditive is True
        assert report.subadditive is False

    def test_counting_capacity_is_additive(self, abc):
        cap = Capacity(axioms=abc, u=popcounts(3).astype(float))
        report = validate_capacity(cap)
        assert report.monotone and report.strict
        assert report.superadditive and report.subadditive

    def test_flat_two_axiom_capacity(self):
        two = AxiomSet(("a1", "a2"))
        report = validate_capacity(Capacity(axioms=two, u=np.array([0.0, 1, 1, 1])))
        assert report.monotone
        assert not report.strict
        assert report.superadditive is False  # u12 < u1 + u2
        assert report.subadditive is True

    def test_non_monotone_detected(self, abc):
        u = popcounts(3).astype(float)
        u[3] = 0.5  # below both singletons it covers
        report = validate_capacity(Capacity(axioms=abc, u=u))
        assert report.monotone is False

    def test_additivity_skipped_above_guard(self):
        axioms = AxiomSet(tuple(f"a{i}" for i in range(15)))
        cap = cardinality_capacity(axioms, list(range(16)))
        report = validate_capacity(cap)
        assert report.additivity_checked is False
        assert report.superadditive is None and report.subadditive is None
        assert report.monotone


def additivity_cases(j: int) -> list[Capacity]:
    """Convex, concave and random capacities, and quarter-step ones.

    The quarter-step capacities are additive in quarter-step weights plus a
    bump of -0.25, 0 or 0.25 per subset, so every sum is exact and a split
    misses u[S] by exactly 0.25 as often as not.  The last one bumps only the
    pair of the two highest axioms: no split with T in the low axioms alone
    shows that u[pair] exceeds the sum of its parts.
    """
    rng = np.random.default_rng(900 + j)
    axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
    k = np.arange(j + 1)
    caps = [
        cardinality_capacity(axioms, k * k / 4),
        cardinality_capacity(axioms, np.sqrt(k)),
        random_capacity(rng, axioms),
    ]
    u = rng.uniform(0.0, 1.0, axioms.n_masks)
    u[0] = 0.0
    caps.append(Capacity(axioms=axioms, u=u))
    for bumps in ((0.0,), (0.0, 0.25), (-0.25, 0.0), (-0.25, 0.0, 0.25)):
        weights = rng.integers(1, 5, j) / 4
        u = np.zeros(axioms.n_masks)
        for b, w in enumerate(weights):
            u[1 << b : 2 << b] = u[: 1 << b] + w
        u[1:] += rng.choice(bumps, axioms.n_masks - 1)
        caps.append(Capacity(axioms=axioms, u=u))
    if j >= 2:
        u = cardinality_capacity(axioms, k).u.copy()
        u[3 << j - 2] += 0.25
        caps.append(Capacity(axioms=axioms, u=u))
    return caps


@pytest.mark.parametrize("chunk", [capacities_module.ADDITIVITY_CHUNK_AXIOMS, 3])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
@pytest.mark.parametrize("j", range(1, 11))
def test_additivity_flags_match_bipartition_loop(j, tol, chunk, monkeypatch):
    monkeypatch.setattr(capacities_module, "ADDITIVITY_CHUNK_AXIOMS", chunk)
    flags = set()
    for cap in additivity_cases(j):
        report = validate_capacity(cap, tol)
        got = (report.superadditive, report.subadditive)
        assert got == naive_additivity_flags(cap.u, tol)
        flags.add(got)
    assert j == 1 or len(flags) >= 3


class TestCardinalityCapacity:
    def test_counting_profile(self, abc):
        cap = cardinality_capacity(abc, [0, 1, 2, 3])
        np.testing.assert_array_equal(cap.u, popcounts(3).astype(float))

    def test_worked_synergy_profiles(self, abc):
        np.testing.assert_array_equal(
            cardinality_capacity(abc, [0, 1, 3, 6]).u, capacity3(SYNERGY_SMALL_U).u
        )
        np.testing.assert_array_equal(
            cardinality_capacity(abc, [0, 1, 5, 15]).u, capacity3(SYNERGY_U).u
        )

    def test_rejects_decreasing_profile(self, abc):
        with pytest.raises(MonotonicityError):
            cardinality_capacity(abc, [0, 2, 1, 3])

    def test_rejects_nonzero_start(self, abc):
        with pytest.raises(MonotonicityError):
            cardinality_capacity(abc, [1, 2, 3, 4])

    def test_monotone_for_any_nondecreasing_profile(self):
        rng = np.random.default_rng(13)
        for j in (1, 3, 5):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            for _ in range(25):
                g = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 1, j))])
                assert validate_capacity(cardinality_capacity(axioms, g)).monotone

    def test_convex_profile_superadditive_concave_subadditive(self):
        rng = np.random.default_rng(29)
        for j in range(2, 7):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            increments = np.sort(rng.uniform(0.1, 1.0, j))
            convex = np.concatenate([[0.0], np.cumsum(increments)])
            concave = np.concatenate([[0.0], np.cumsum(increments[::-1])])
            assert validate_capacity(cardinality_capacity(axioms, convex)).superadditive
            assert validate_capacity(cardinality_capacity(axioms, concave)).subadditive


class TestCapacityMoebius:
    def test_counting_capacity_masses(self, abc):
        cap = Capacity(axioms=abc, u=popcounts(3).astype(float))
        masses = capacity_moebius(cap)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1.0
        np.testing.assert_allclose(masses, expected, atol=1e-12)

    def test_flat_two_axiom_expansion(self):
        two = AxiomSet(("a1", "a2"))
        masses = capacity_moebius(Capacity(axioms=two, u=np.array([0.0, 1, 1, 1])))
        np.testing.assert_allclose(masses, [0.0, 1.0, 1.0, -1.0], atol=1e-12)

    def test_zeta_roundtrip(self):
        rng = np.random.default_rng(37)
        for j in (1, 4, 8):
            axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
            u = zeta_subset(np.concatenate([[0.0], rng.uniform(0, 1, (1 << j) - 1)]))
            cap = Capacity(axioms=axioms, u=u)
            np.testing.assert_allclose(
                zeta_subset(capacity_moebius(cap)), cap.u, atol=1e-12
            )


def test_normalize(abc):
    cap = capacity3(SYNERGY_SMALL_U)
    scaled = normalize(cap)
    assert scaled.u[7] == pytest.approx(1.0)
    np.testing.assert_allclose(scaled.u * 6.0, cap.u)
    with pytest.raises(RangeError):
        normalize(Capacity(axioms=abc, u=np.zeros(8)))


class TestJson:
    def test_roundtrip(self):
        cap = capacity3(SYNERGY_U)
        again = capacity_from_json(capacity_to_json(cap))
        np.testing.assert_array_equal(again.u, cap.u)

    def test_missing_subset(self):
        doc = capacity_to_json(capacity3(SYNERGY_U))
        del doc["u"]["a1"]
        with pytest.raises(ParseError):
            capacity_from_json(doc)

    def test_negative_value_rejected(self):
        doc = capacity_to_json(capacity3(SYNERGY_U))
        doc["u"]["a1"] = -1.0
        with pytest.raises(ParseError):
            capacity_from_json(doc)
