"""Every sweep that pairs S with S + a, against per-pair loops at J = 1..8.

The fast paths pair subsets through ``lattice.halves``; the oracles in
conftest walk every (S, a) pair one at a time.  The inputs are dyadic, so the
Banzhaf sums are exact whatever the order of addition, and every comparison
is exact equality.
"""

import numpy as np
import pytest

from axiometer import AxiomSet, Capacity, banzhaf, frechet_check, is_member, validate_capacity
from axiometer.lattice import halves

from conftest import (
    naive_banzhaf,
    naive_capacity_flags,
    naive_frechet_violations,
    perturbed,
    random_capacity,
    random_dyadic_feasible,
)

SIZES = range(1, 9)


def axioms_of(j: int) -> AxiomSet:
    return AxiomSet(tuple(f"a{i}" for i in range(j)))


def collections_of(j: int):
    """Four feasible collections and four perturbed copies, mostly infeasible."""
    rng = np.random.default_rng(700 + j)
    feasible = [random_dyadic_feasible(rng, axioms_of(j)) for _ in range(4)]
    return feasible + [perturbed(rng, c) for c in feasible]


@pytest.mark.parametrize("j", range(0, 9))
def test_halves_pairs_each_mask_with_its_bit_added(j):
    for b in range(j):
        masks = np.arange(1 << j)
        without, with_b = halves(masks, b)
        assert np.shares_memory(without, masks) and np.shares_memory(with_b, masks)
        assert not np.any(without & 1 << b)
        np.testing.assert_array_equal(with_b, without | 1 << b)
        assert np.all(np.diff(without.ravel()) > 0)
        without[...] = -1
        assert np.count_nonzero(masks == -1) == without.size == 1 << j - 1


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.01])
@pytest.mark.parametrize("j", SIZES)
def test_frechet_violations_match_per_pair_loop(j, tol):
    found = 0
    for c in collections_of(j):
        violations = frechet_check(c, tol).frechet_violations
        got = [(v.subset, v.kind, v.axiom, v.slack) for v in violations]
        assert got == naive_frechet_violations(c.p, c.axioms.labels, tol)
        found += len(got)
        report = is_member(c, tol)
        if not report.feasible:
            assert report.frechet_violations == violations
    assert found > 0 or j == 1


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
@pytest.mark.parametrize("j", SIZES)
def test_capacity_flags_match_per_pair_loop(j, tol):
    rng = np.random.default_rng(800 + j)
    axioms = axioms_of(j)
    caps = [random_capacity(rng, axioms) for _ in range(3)]
    for _ in range(5):
        # quarter steps: ties, drops and steps of exactly 0.25 all occur
        u = rng.integers(0, 5, axioms.n_masks) / 4
        u[0] = 0.0
        caps.append(Capacity(axioms=axioms, u=u))
    flags = set()
    for cap in caps:
        report = validate_capacity(cap, tol)
        assert (report.monotone, report.strict) == naive_capacity_flags(cap.u, tol)
        flags.add((report.monotone, report.strict))
    assert j == 1 or (False, False) in flags and len(flags) >= 2


@pytest.mark.parametrize("j", SIZES)
def test_banzhaf_matches_per_pair_loop(j):
    for c in collections_of(j):
        np.testing.assert_array_equal(banzhaf(c).values, naive_banzhaf(c.p))
