"""Subset encoding and transform kernels against naive quadratic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiometer import (
    AxiomSet,
    Collection,
    DuplicateAxiomError,
    RangeError,
    UnknownAxiomError,
    moebius_subset,
    moebius_superset,
    zeta_subset,
    zeta_superset,
)
from axiometer import lattice
from axiometer.lattice import popcounts

from conftest import (
    DECOMP_ALPHA,
    DECOMP_P,
    collection3,
    in_presentation_order,
    naive_moebius_subset,
    naive_moebius_superset,
    naive_zeta_subset,
    naive_zeta_superset,
    per_bit_sweep,
    presentation_to_masks,
)

TRANSFORMS = {
    f.__name__: f for f in (zeta_superset, moebius_superset, zeta_subset, moebius_subset)
}


class TestMaskOf:
    def test_selects_bits_by_label_position(self, abc):
        assert abc.mask_of(["a1", "a3"]) == 0b101

    def test_empty_selection(self, abc):
        assert abc.mask_of([]) == 0

    def test_order_insensitive(self, abc):
        assert abc.mask_of(["a2", "a1"]) == 0b011

    def test_unknown_name(self, abc):
        with pytest.raises(UnknownAxiomError):
            abc.mask_of(["a1", "zz"])

    def test_duplicate_name(self, abc):
        with pytest.raises(DuplicateAxiomError):
            abc.mask_of(["a1", "a1"])


class TestAxiomSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateAxiomError):
            AxiomSet(("x", "x"))

    def test_rejects_too_many(self):
        with pytest.raises(RangeError):
            AxiomSet(tuple(f"a{i}" for i in range(21)))

    def test_rejects_a_label_containing_plus(self):
        # the subset {a, b} would share the key "a+b" with the third axiom
        with pytest.raises(RangeError, match=r"label 'a\+b' contains '\+'"):
            AxiomSet(("a", "b", "a+b"))

    def test_subset_key_roundtrip(self, abc):
        for mask in range(8):
            names = abc.members(mask)
            assert abc.mask_of(names) == mask


class TestMoebiusSuperset:
    def test_inverts_zeta_image_of_unit(self):
        # zeta_superset(unit at S0) is the indicator of subsets of S0;
        # the Moebius transform takes it back to the unit vector.
        j, s0 = 4, 0b0110
        unit = np.zeros(1 << j)
        unit[s0] = 1.0
        x = zeta_superset(unit)
        np.testing.assert_array_equal(
            x, [(t & ~s0) == 0 for t in range(1 << j)]
        )
        np.testing.assert_allclose(moebius_superset(x), unit, atol=1e-12)

    def test_worked_three_axiom_decomposition(self):
        c = collection3(DECOMP_P)
        alpha = moebius_superset(c.p)
        assert in_presentation_order(alpha) == pytest.approx(DECOMP_ALPHA, abs=1e-12)
        assert alpha[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(moebius_superset(np.zeros(16)), np.zeros(16))


class TestZetaSuperset:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 64)
        np.testing.assert_allclose(zeta_superset(moebius_superset(x)), x, atol=1e-12)

    def test_recovers_worked_collection(self):
        alpha = presentation_to_masks(DECOMP_ALPHA)
        p = zeta_superset(alpha)
        assert in_presentation_order(p) == pytest.approx(DECOMP_P, abs=1e-12)

    def test_unit_at_full_mask_spreads_everywhere(self):
        y = np.zeros(8)
        y[7] = 1.0
        np.testing.assert_array_equal(zeta_superset(y), np.ones(8))


class TestMoebiusSubset:
    def test_additive_set_function_has_singleton_masses(self):
        j = 4
        x = popcounts(j).astype(float)
        y = moebius_subset(x)
        expected = np.zeros(1 << j)
        for b in range(j):
            expected[1 << b] = 1.0
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_two_axiom_expansion(self):
        # direct 4-term sums: y_12 = u_12 - u_1 - u_2 + u_0
        y = moebius_subset(np.array([0.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(y, [0.0, 1.0, 1.0, -1.0], atol=1e-12)

    def test_zero(self):
        np.testing.assert_array_equal(moebius_subset(np.zeros(8)), np.zeros(8))


@pytest.mark.parametrize("j", range(1, 7))
def test_fast_sweeps_match_naive_sums(j):
    rng = np.random.default_rng(100 + j)
    for _ in range(100):
        x = rng.uniform(-1, 1, 1 << j)
        np.testing.assert_allclose(zeta_superset(x), naive_zeta_superset(x), atol=1e-12)
        np.testing.assert_allclose(
            moebius_superset(x), naive_moebius_superset(x), atol=1e-12
        )
        np.testing.assert_allclose(zeta_subset(x), naive_zeta_subset(x), atol=1e-12)
        np.testing.assert_allclose(
            moebius_subset(x), naive_moebius_subset(x), atol=1e-12
        )


def spread_values(rng: np.random.Generator, j: int) -> np.ndarray:
    """Signed values whose magnitudes span 1e-5..1e5, so that any change in
    the order of the additions changes some rounding."""
    n = 1 << j
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-5.0, 5.0, n)


# 64 bytes hold at most two rows of the blocked view, so with it the kernel
# walks several blocks from J = 4 on, and one-row blocks from J = 6 on.
@pytest.mark.parametrize("block_bytes", [lattice.SWEEP_BLOCK_BYTES, 64])
@pytest.mark.parametrize("j", range(21))
def test_sweep_is_bit_identical_to_per_bit_loop(j, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(300 + j)
    for _ in range(1 if j >= 17 else 3):
        x = spread_values(rng, j)
        for kind, transform in TRANSFORMS.items():
            assert np.array_equal(transform(x), per_bit_sweep(x, kind)), kind


@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_sweep_returns_a_fresh_array_and_leaves_its_input(kind):
    p = Collection(AxiomSet(("a1", "a2", "a3")), np.linspace(1.0, 0.3, 8)).p
    assert not p.flags.writeable
    for x in (p, p.tolist(), np.arange(8)):
        before = np.array(x, copy=True)
        out = TRANSFORMS[kind](x)
        assert np.array_equal(np.asarray(x), before)
        assert type(x) is list or not np.shares_memory(out, x)
        assert out.dtype == np.float64
        assert out.flags.writeable and out.flags.c_contiguous
        assert np.array_equal(out, per_bit_sweep(before, kind))


@pytest.mark.parametrize("j", [1, 4, 8, 12])
def test_roundtrips_both_orders(j):
    rng = np.random.default_rng(17 + j)
    x = rng.uniform(-1, 1, 1 << j)
    np.testing.assert_allclose(zeta_superset(moebius_superset(x)), x, atol=1e-12)
    np.testing.assert_allclose(moebius_superset(zeta_superset(x)), x, atol=1e-12)
    np.testing.assert_allclose(zeta_subset(moebius_subset(x)), x, atol=1e-12)
    np.testing.assert_allclose(moebius_subset(zeta_subset(x)), x, atol=1e-12)


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_linearity(j, a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 1 << j)
    y = rng.uniform(-1, 1, 1 << j)
    lhs = moebius_superset(a * x + b * y)
    rhs = a * moebius_superset(x) + b * moebius_superset(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_rejects_non_power_of_two_length():
    with pytest.raises(RangeError):
        zeta_superset(np.zeros(6))
