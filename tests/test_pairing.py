"""Every sweep that pairs S with S + a, against per-pair and per-bit loops.

The block iterator ``lattice._pairs`` is checked on its own with one, two
and three mask-valued arrays at J = 1..10, at the default block and at
64 bytes: every yielded pair is its own array's ``halves`` pair, the arrays'
views pair the same masks, every mask sees bits 0..J-1 in order, writes
through the views land in the writeable arrays, and a read-only array is
left as it was.

The fast paths pair subsets through ``lattice.halves``, and the Fréchet and
capacity scans walk the transposed cache blocks of ``lattice._pairs``.  At
J = 1..8 the oracles in conftest walk every (S, a) pair one at a time; the
Fréchet and capacity tests run there at the default ``SWEEP_BLOCK_BYTES`` and
at 64 bytes, with which the scans walk several blocks from J = 4 on and
one-row blocks from J = 6 on.  At J = 1..20 the two scans are compared with
the whole-array per-bit loops they replaced, on inputs built so that the
bounds are violated, or met with no slack to spare, on chosen bits only.
The inputs are dyadic, so the Banzhaf sums are exact whatever the order of
addition, and every comparison is exact equality.  Banzhaf is also pinned
under == to the per-bit loop that gathered its weights per bit, at
J = 1..20 on one Dirichlet collection per J and at J <= 8 on the
collections above.

The Fréchet scan screens the lower bound in the order (sub - with_b) - c
and recomputes it in the extraction's order (sub - c) - with_b only near
tol.  Slacks that the two orders round to opposite sides of tol are planted
at a low and at a high bit at J = 3, 11 and 20, and the scan's peak
allocation is bounded by its scratch buffer and one transposed block.
"""

import tracemalloc

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Capacity,
    Collection,
    banzhaf,
    capacities,
    frechet_check,
    is_member,
    lattice,
    validate_capacity,
)
from axiometer.lattice import halves, popcounts

from conftest import (
    dirichlet_collection,
    naive_banzhaf,
    naive_capacity_flags,
    naive_frechet_violations,
    per_bit_banzhaf,
    per_bit_capacity_flags,
    per_bit_frechet_violations,
    perturbed,
    random_capacity,
    random_dyadic_feasible,
)

#: The default block, and 64 bytes: at most two rows of the blocked view.
BLOCK_BYTES = [lattice.SWEEP_BLOCK_BYTES, 64]

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


def mask_arrays(j: int, writeable: tuple[bool, ...]) -> list[np.ndarray]:
    """One array per flag, array k holding k * 2**J + S at each mask S, so
    every value names its array and its mask; the flag sets ``writeable``."""
    arrays = []
    for k, flag in enumerate(writeable):
        arr = np.arange(1 << j, dtype=np.float64) + k * (1 << j)
        arr.setflags(write=flag)
        arrays.append(arr)
    return arrays


#: One, two and three arrays, writeable or read-only.
WRITEABLE = [(True,), (False,), (True, False), (True, True), (True, False, True)]


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("writeable", WRITEABLE)
@pytest.mark.parametrize("j", range(1, 11))
def test_pairs_yields_each_arrays_halves_in_bit_order(j, writeable, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    arrays = mask_arrays(j, writeable)
    n = 1 << j
    next_bit = np.zeros(n, dtype=np.int64)  # the bit each mask must see next
    seen = [[[] for _ in arrays] for _ in range(j)]
    for b, *views in lattice._pairs(*arrays):
        assert len(views) == 2 * len(arrays)
        masks = views[0]  # array 0 holds the masks themselves
        for k, (lo, hi) in enumerate(zip(views[::2], views[1::2])):
            np.testing.assert_array_equal(lo - k * n, masks)
            np.testing.assert_array_equal(hi - k * n, masks + (1 << b))
            seen[b][k].append(lo.flatten())  # a copy: the scratch buffer is reused
        touched = np.concatenate([masks.ravel(), masks.ravel() + (1 << b)]).astype(np.int64)
        assert np.all(next_bit[touched] == b)
        next_bit[touched] += 1
    assert np.all(next_bit == j)
    for b in range(j):
        for k, arr in enumerate(arrays):
            got = np.sort(np.concatenate(seen[b][k]))
            np.testing.assert_array_equal(got, halves(arr, b)[0].ravel())


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("writeable", WRITEABLE)
@pytest.mark.parametrize("j", range(1, 11))
def test_pairs_writes_back_only_into_writeable_arrays(j, writeable, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    arrays = mask_arrays(j, writeable)
    copies = [arr.copy() for arr in arrays]
    # a superset sum through the views of each writeable array, and through
    # halves on a copy of it; integer sums below 2**53 are exact
    for _, *views in lattice._pairs(*arrays):
        for flag, lo, hi in zip(writeable, views[::2], views[1::2]):
            if flag:
                np.add(lo, hi, out=lo)
    for flag, arr, copy in zip(writeable, arrays, copies):
        if flag:
            for b in range(j):
                lo, hi = halves(copy, b)
                np.add(lo, hi, out=lo)
        np.testing.assert_array_equal(arr, copy)
        assert arr.flags.writeable == flag


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
# No slack of a collection can exceed 1; at 1e300 the screening margin is
# also lost in the rounding of tol - margin
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.01, 1.0, 1e300])
@pytest.mark.parametrize("j", SIZES)
def test_frechet_violations_match_per_pair_loop(j, tol, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    found = 0
    for c in collections_of(j):
        violations = frechet_check(c, tol).frechet_violations
        got = [(v.subset, v.kind, v.axiom, v.slack) for v in violations]
        assert got == naive_frechet_violations(c.p, c.axioms.labels, tol)
        found += len(got)
        report = is_member(c, tol)
        if not report.feasible:
            assert report.frechet_violations == violations
    assert found == 0 if tol >= 1.0 else found > 0 or j == 1


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
@pytest.mark.parametrize("j", SIZES)
def test_capacity_flags_match_per_pair_loop(j, tol, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
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


@pytest.mark.parametrize("j", range(1, 21))
def test_banzhaf_equals_per_bit_loop(j):
    cases = [dirichlet_collection(j)] + (collections_of(j) if j <= 8 else [])
    for c in cases:
        np.testing.assert_array_equal(banzhaf(c).values, per_bit_banzhaf(c.p))


def special_bits(j: int) -> list[tuple[int, ...]]:
    """Bit 0 (a low bit of the blocked view), bit J - 1 (a high bit), both."""
    return sorted({(0,), (j - 1,), tuple(sorted({0, j - 1}))})


def bumped_collection(j: int, special: tuple[int, ...]) -> Collection:
    """p[S] = 2**-|S - special|, then every {b, c} with b special and c not
    raised by 1/4 and 1/8 in turn.

    Before the raise, every slack of a special bit is exactly 0, and no slack
    of another bit is positive.  Raising {b, c} by d gives it a monotonicity
    slack d at bit b, and {b, c, a} a lower-bound slack d at every other
    special bit a; every other slack stays <= 0.
    """
    axioms = axioms_of(j)
    masks = np.arange(axioms.n_masks)
    special_mask = sum(1 << b for b in special)
    p = 0.5 ** popcounts(j)[masks & ~special_mask]
    raises = [(1 << b) | (1 << c) for b in special for c in range(j) if c not in special]
    for k, mask in enumerate(raises):
        p[mask] += 0.25 if k % 2 == 0 else 0.125
    return Collection(axioms=axioms, p=p)


# 1/8 is the smaller raise, so at that tol half of the raises leave a slack
# of exactly tol; at tol 0 so does every special bit away from them.
@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("j", range(1, 21))
def test_blocked_frechet_violations_match_per_bit_loop(j, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(900 + j)
    feasible = random_dyadic_feasible(rng, axioms_of(j))
    inputs = [feasible] + [bumped_collection(j, special) for special in special_bits(j)]
    if j <= 12:  # a quarter of the entries moved: violations on every bit
        inputs.append(perturbed(rng, feasible))
    # fewer tolerances from J = 17 on, where each scan takes longest
    for tol in (0.0, 0.125) if j >= 17 else (0.0, 1e-9, 0.125):
        for c in inputs:
            got = list(frechet_check(c, tol).frechet_violations)
            assert got == per_bit_frechet_violations(c, tol)
    for special in special_bits(j):
        violations = frechet_check(bumped_collection(j, special), 0.0).frechet_violations
        kinds = {"monotonicity"} if len(special) == 1 else {"monotonicity", "lower_bound"}
        if j - len(special) > 0:
            assert {v.axiom for v in violations} == {f"a{b}" for b in special}
            assert {v.kind for v in violations} == kinds
        else:
            assert violations == ()


def boundary_triples(tol: float) -> dict[bool, list[tuple[float, float, float]]]:
    """Triples (sub, with_b, p_a) on which the lower-bound slack in the
    extraction's order, (sub - c) - with_b with c = 1 - p_a, and in the
    screen's order, (sub - with_b) - c, fall on opposite sides of tol: under
    True up to two where the extraction's order exceeds tol, under False up to
    two where the screen's does, each from its own draw.

    The search draws c = 1 - p_a on a log scale below 1/2, with_b up to about
    2c and sub = c + with_b + tol <= 1/2, then moves sub and with_b by up to
    two ulps each.  As p_a >= 1/2, c is a multiple of 2**-53, so near tol
    sub - c is exact and the extraction's order rounds the slack once; the
    screen's order can then exceed tol only where sub - with_b rounds up past
    a tol that lies off its grid, which of 0, 1e-9 and 0.125 only 1e-9 does.
    """
    rng = np.random.default_rng(1100)
    n = 1 << 12
    p_a = 1.0 - rng.uniform(0.5, 1.0, n) * 2.0 ** -rng.integers(1, 12, n)
    c = 1.0 - p_a
    with_b = c * rng.uniform(0.0, 2.0, n) * 2.0 ** -rng.integers(0, 3, n)
    sub = c + with_b + tol
    ulps = np.arange(-2, 3)
    sub = sub[:, None, None] + ulps[:, None] * np.spacing(sub)[:, None, None]
    with_b = with_b[:, None, None] + ulps * np.spacing(with_b)[:, None, None]
    sub, with_b = (x.ravel() for x in np.broadcast_arrays(sub, with_b))
    p_a, c = (np.repeat(x, ulps.size**2) for x in (p_a, c))
    inside = (sub <= 0.5) & (with_b >= 0.0)
    extraction = (sub - c) - with_b
    screen = (sub - with_b) - c
    found = {}
    for way, hit in ((True, (extraction > tol) & (screen <= tol)),
                     (False, (screen > tol) & (extraction <= tol))):
        idx = np.flatnonzero(inside & hit)
        first = np.unique(idx // ulps.size**2, return_index=True)[1]
        found[way] = [(sub[i], with_b[i], p_a[i]) for i in idx[np.sort(first)[:2]]]
    return found


def planted_collection(j: int, bit: int, triple: tuple[float, float, float]) -> Collection:
    """Axiom a = ``bit`` independent of the others, which are exclusive, axiom
    k holding with probability 2**-(k + 2); then p[{e}] = sub and
    p[{e, a}] = with_b, e the axiom at the other end of the bits.

    Away from the plant every lower-bound slack of bit a is
    -(1 - p[S - a]) c, which is exactly 0 at S = {a} and -3c/4 or less
    elsewhere, and every monotonicity slack of bit a is 0 or negative, so the
    plant alone decides whether bit a is hit.  The contribution at the empty
    set is -tol - c times the sum of 2**-(k + 2) over the axioms other than a
    and e, so from J = 3 on the collection is infeasible.
    """
    sub, with_b, p_a = triple
    axioms = axioms_of(j)
    masks = np.arange(axioms.n_masks)
    others = masks & ~(1 << bit)
    single = 0.25 / np.maximum(others, 1)  # 2**-(k + 2) at others = 2**k
    p = np.where(others == 0, 1.0, np.where(popcounts(j)[others] == 1, single, 0.0))
    p *= np.where(masks >> bit & 1, p_a, 1.0)
    end = 1 << (0 if bit == j - 1 else j - 1)
    p[end] = sub
    p[end | 1 << bit] = with_b
    return Collection(axioms=axioms, p=p)


# The screen reads (sub - with_b) - c where the extraction reads
# (sub - c) - with_b, and near tol the two can round to opposite sides of it.
# Planted at a low (blocked) bit, the pair lies in the last blocks; at a high
# bit, in the first.  A bit the screen skipped would lose its violation; a bit
# it passes in vain is recomputed, and its extraction would come out empty.
@pytest.mark.parametrize("block_bytes", [lattice.SWEEP_BLOCK_BYTES, 8])  # 8: one-row blocks
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.125])
@pytest.mark.parametrize("j", [3, 11, 20])
def test_frechet_rounding_boundary_slacks(j, tol, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    triples = boundary_triples(tol)
    assert len(triples[True]) == 2 and len(triples[False]) == (2 if tol == 1e-9 else 0)
    for bit in (0, j - 1):
        label = f"a{bit}"
        for extraction_exceeds, found in triples.items():
            for triple in found:
                c = planted_collection(j, bit, triple)
                violations = frechet_check(c, tol).frechet_violations
                assert list(violations) == per_bit_frechet_violations(c, tol)
                if j <= 8:
                    got = [(v.subset, v.kind, v.axiom, v.slack) for v in violations]
                    assert got == naive_frechet_violations(c.p, c.axioms.labels, tol)
                planted = (1 << (0 if bit == j - 1 else j - 1)) | 1 << bit
                want = [(planted, "lower_bound")] if extraction_exceeds else []
                assert [(v.subset, v.kind) for v in violations if v.axiom == label] == want
                report = is_member(c, tol)
                assert report.feasible is False
                assert report.frechet_violations == violations


def test_frechet_scan_allocates_no_per_bit_temporary():
    """The scan's peak is its half-size scratch, one transposed block of
    ``lattice._pairs`` and the two ufunc buffers that numpy's strided loops
    fill: a temporary of one bit's pairs would add half of p."""
    j = 16
    c = random_dyadic_feasible(np.random.default_rng(1200), axioms_of(j))
    half = c.p.nbytes // 2
    # the default block holds the whole 2**8 x 2**8 view at J = 16
    block = min(c.p.nbytes, lattice.SWEEP_BLOCK_BYTES)
    buffers = 2 * np.getbufsize() * c.p.itemsize
    tracemalloc.start()
    try:
        report = frechet_check(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.frechet_violations == ()
    assert peak < half + block + buffers + 32 * 2**10, (peak, half, block, buffers)
    assert buffers + 32 * 2**10 < half


def stepped_capacity(j: int, special: tuple[int, ...], step: float) -> Capacity:
    """u[S] = 1 + the number of non-special bits in S + step times the number
    of special bits in S (u[empty] = 0): every step u[S + b] - u[S] from a
    non-empty S is exactly ``step`` at a special bit b and 1 at the others."""
    axioms = axioms_of(j)
    masks = np.arange(axioms.n_masks)
    special_mask = sum(1 << b for b in special)
    u = 1.0 + popcounts(j)[masks & ~special_mask] + step * popcounts(j)[masks & special_mask]
    u[0] = 0.0
    return Capacity(axioms=axioms, u=u)


@pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
@pytest.mark.parametrize("j", range(1, 21))
def test_blocked_capacity_flags_match_per_bit_loop(j, block_bytes, monkeypatch):
    monkeypatch.setattr(lattice, "SWEEP_BLOCK_BYTES", block_bytes)
    # only the monotone and strict flags are under test: skip the 3**J sweep
    monkeypatch.setattr(capacities, "ADDITIVITY_CHECK_MAX_AXIOMS", 0)
    rng = np.random.default_rng(1000 + j)
    caps = [random_capacity(rng, axioms_of(j))]
    # dyadic tolerances, so that every step below is exact; fewer from J = 17 on
    for tol in (0.0, 0.25) if j >= 17 else (0.0, 2.0**-30, 0.25):
        for special in special_bits(j):
            # a drop beyond tol, steps of exactly -tol and +tol, a rise beyond tol
            for step, flags in ((-tol - 0.25, (False, False)), (-tol, (True, False)),
                                (tol, (True, False)), (tol + 0.25, (True, True))):
                cap = stepped_capacity(j, special, step)
                report = validate_capacity(cap, tol)
                assert (report.monotone, report.strict) == per_bit_capacity_flags(cap, tol)
                # at J = 1 the one step starts at the empty set, so it is 1 + step
                assert j == 1 or (report.monotone, report.strict) == flags
        for cap in caps:
            report = validate_capacity(cap, tol)
            assert (report.monotone, report.strict) == per_bit_capacity_flags(cap, tol)
