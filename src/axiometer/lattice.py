"""Bitmask encoding of axiom subsets and fast transforms over the Boolean lattice.

Subsets of an ordered axiom set are encoded as bitmasks: bit ``i`` of a mask
corresponds to ``labels[i]``.  Per-subset quantities live in dense float64
arrays of length ``2**J`` indexed by mask, entry 0 being the empty set, so one
carrier type serves satisfaction collections, contribution weights, capacities
and games alike.  The four transforms below convert between a set function and
its additive coefficients for the superset or subset order; each runs in
O(J * 2**J) as one in-place pass per bit through :func:`sweep`.  The passes
come from :func:`_pairs`, the one block iterator: it walks one or several
arrays of the same length in lockstep, yielding the low bits on transposed
blocks whose scratch buffers share one cache-sized budget and the high bits
on the whole arrays, and it copies a block back only into the arrays that
are writeable.  :func:`sweep` is its in-place user over one array, and the
strict-superset maximum in ``performance`` updates one array while reading
a second; the Fréchet bounds in ``collections`` and the monotone and strict
flags in ``capacities`` only read the views of one array.
The Shapley reductions in ``incompatibility`` walk the same row blocks
(:func:`block_rows`) without transposing them.
Every sweep that pairs each subset S with S + a, here and in the other
modules, goes through :func:`halves`, the one place that decodes the mask
layout; it also pairs the rows of the 2-D transposed block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DuplicateAxiomError, RangeError, UnknownAxiomError

#: Hard cap on the number of axioms: arrays have 2**J entries.
MAX_AXIOMS = 20

#: Target size in bytes of the transposed block on which :func:`sweep` runs
#: the low bits; a power-of-two number of rows of the array is taken.
SWEEP_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AxiomSet:
    """Ordered, distinct axiom names without "+"; label order defines bit positions."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if not (1 <= len(labels) <= MAX_AXIOMS):
            raise RangeError(
                f"axiom count must be between 1 and {MAX_AXIOMS}, got {len(labels)}"
            )
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise RangeError(f"axiom labels must be non-empty strings, got {lab!r}")
            if "+" in lab:  # "+" joins the labels of a subset key
                raise RangeError(f"label {lab!r} contains '+'")
        if len(set(labels)) != len(labels):
            raise DuplicateAxiomError(f"axiom labels must be distinct: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        """Number of axioms J."""
        return len(self.labels)

    @property
    def n_masks(self) -> int:
        return 1 << self.size

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise UnknownAxiomError(f"unknown axiom {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        """Bitmask with bit i set iff labels[i] is in ``names``.

        Raises UnknownAxiomError for names outside the set and
        DuplicateAxiomError if a name repeats.
        """
        mask = 0
        for name in names:
            bit = 1 << self.index(name)
            if mask & bit:
                raise DuplicateAxiomError(f"axiom {name!r} listed twice")
            mask |= bit
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Labels of the axioms in ``mask``, in bit order."""
        self._check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def subset_key(self, mask: int) -> str:
        """Join the member labels, e.g. mask 0b101 -> ``"a1+a3"``.

        For many masks at once, index :func:`subset_keys` instead.
        """
        return "+".join(self.members(mask))

    def nonempty_masks(self) -> range:
        return range(1, self.n_masks)

    def _check_mask(self, mask: int) -> None:
        if not 0 <= mask < self.n_masks:
            raise RangeError(f"mask {mask} out of range for {self.size} axioms")


# The key table holds 2**J strings (about 90 MB at J = 20), so it is built on
# first bulk use only and few are kept.


@lru_cache(maxsize=2)
def subset_keys(labels: tuple[str, ...]) -> list[str]:
    """Canonical key of every mask: ``subset_keys(labels)[m] == "+".join(members(m))``.

    Entry 0 (the empty subset) is ``""``. The list is cached and shared between
    callers: do not modify it, and iterate it rather than slice it (a slice
    copies 2**J pointers).
    """
    keys = [""]
    for label in labels:
        keys += [key + "+" + label if key else label for key in keys]
    return keys


def subset_masks(labels: tuple[str, ...]) -> dict[str, int]:
    """Canonical key -> mask for the non-empty subsets (inverse of subset_keys).

    Built afresh on each call (it adds about 60 MB at J = 20), so it lives
    only as long as its caller needs it.
    """
    keys = subset_keys(labels)
    return dict(zip(islice(keys, 1, None), range(1, len(keys))))


def subset_map(axioms: AxiomSet, values: np.ndarray) -> dict[str, float]:
    """Per-subset values keyed by canonical subset key, non-empty subsets in mask order."""
    return dict(zip(islice(subset_keys(axioms.labels), 1, None), values[1:].tolist()))


def subset_vector(axioms: AxiomSet, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and copy a per-subset array (length 2**J, float64)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != axioms.n_masks:
        raise RangeError(
            f"subset vector must have length {axioms.n_masks}, got shape {arr.shape}"
        )
    return arr.copy()


def _prepare(values: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    n = arr.shape[0] if arr.ndim == 1 else 0
    j = n.bit_length() - 1
    if n <= 0 or (1 << j) != n or j > MAX_AXIOMS:
        raise RangeError(f"subset vector length must be a power of two <= 2**{MAX_AXIOMS}")
    return arr


def halves(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``values`` at the masks without bit b and, aligned, with it.

    Entry (i, k) of the first view is some mask m and of the second m | 1 << b,
    both in ascending order of m.  They share the memory of a C-contiguous
    ``values``, so writing through them updates it in place.  ``values`` may
    be 2-D: its entries are then numbered in row-major order, so bit b of a
    row index is bit ``b + log2(columns)`` of that numbering, which is how
    :func:`sweep` pairs the rows of its transposed block.
    """
    v = values.reshape(-1, 2, 1 << b)
    return v[:, 0], v[:, 1]


def block_rows(m: np.ndarray) -> int:
    """Rows of the 2-D array ``m`` in one block of about ``SWEEP_BLOCK_BYTES``.

    A power of two, at least 1 and at most the number of rows, so the blocks
    of a ``2**k``-row array tile it exactly.
    """
    return _rows_within(m.shape[0], m[0].nbytes)


def _rows_within(n_rows: int, row_bytes: int) -> int:
    fit = max(1, SWEEP_BLOCK_BYTES // row_bytes)
    return min(n_rows, 1 << (fit.bit_length() - 1))


def _pairs(*arrays: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Yield ``(b, lo0, hi0, lo1, hi1, ...)`` for b = 0..J-1, each ``lo``/``hi``
    pairing the masks without bit b of its array with the masks that have it,
    as :func:`halves` does, and every array's views pairing the same masks.

    The arrays are C-contiguous 1-D arrays of the same length 2**J.  The low
    ``J // 2`` bits pair entries that lie close together, so numpy would run
    them in short inner loops; instead each array, seen as ``2**(J - J//2)``
    rows of ``2**(J//2)``, is walked in blocks of the same rows, copied
    transposed into one scratch buffer per array, and its low bits are
    yielded there as rows paired in inner loops at least as long as the block
    has rows.  The scratch buffers share one budget of about
    ``SWEEP_BLOCK_BYTES``: with two arrays larger than it, a block has half
    the rows it would have with one.  Every block reuses the buffers, so a
    low-bit view holds the current block only.  Once the caller resumes after
    the last low bit of a block, each writeable array gets its buffer copied
    back, so the caller may update its views in place; a read-only array is
    never written.  The high bits are then yielded on the arrays themselves.
    Every entry is visited in the same bit order as in a plain per-bit loop.
    """
    j = arrays[0].shape[0].bit_length() - 1
    low = j // 2
    ms = [arr.reshape(-1, 1 << low) for arr in arrays]
    rows = _rows_within(ms[0].shape[0], len(ms) * ms[0][0].nbytes)
    shift = rows.bit_length() - 1
    ts = [np.empty((1 << low, rows)) for _ in ms]
    # views of the scratch buffers, which every block refills in place
    low_views = [_paired(b, ts, b + shift) for b in range(low)]
    for start in range(0, ms[0].shape[0], rows):
        for m, t in zip(ms, ts):
            np.copyto(t, m[start : start + rows].T)
        yield from low_views
        for arr, m, t in zip(arrays, ms, ts):
            if arr.flags.writeable:
                np.copyto(m[start : start + rows], t.T)
    for b in range(low, j):
        yield _paired(b, arrays, b)


def _paired(b: int, arrays: Sequence[np.ndarray], bit: int) -> tuple:
    """``(b, lo0, hi0, lo1, hi1, ...)``, the :func:`halves` of each array at ``bit``."""
    views = (b,)
    for arr in arrays:
        views += halves(arr, bit)
    return views


def sweep(values, pair) -> np.ndarray:
    """Return a float64 copy of ``values`` after ``pair(*halves(arr, b))`` for b = 0..J-1.

    ``pair(lo, hi)`` updates the views in place.  They come from
    :func:`_pairs`, which runs the low bits on transposed cache-sized blocks
    and copies each block back into the fresh array.
    Every entry sees the same operations in the same bit order as with a
    plain per-bit loop, so the result is bit-identical to it.
    """
    arr = _prepare(values)
    for _, lo, hi in _pairs(arr):
        pair(lo, hi)
    return arr


def zeta_superset(values) -> np.ndarray:
    """Return x with x[S] = sum over T >= S (superset order) of values[T]."""
    return sweep(values, lambda lo, hi: np.add(lo, hi, out=lo))


def moebius_superset(values) -> np.ndarray:
    """Return y with y[S] = sum over T >= S of (-1)**|T\\S| * values[T].

    Exact inverse of :func:`zeta_superset`.
    """
    return sweep(values, lambda lo, hi: np.subtract(lo, hi, out=lo))


def zeta_subset(values) -> np.ndarray:
    """Return x with x[S] = sum over T <= S (subset order) of values[T]."""
    return sweep(values, lambda lo, hi: np.add(hi, lo, out=hi))


def moebius_subset(values) -> np.ndarray:
    """Return y with y[S] = sum over T <= S of (-1)**|S\\T| * values[T].

    Exact inverse of :func:`zeta_subset`.
    """
    return sweep(values, lambda lo, hi: np.subtract(hi, lo, out=hi))


@lru_cache(maxsize=None)
def popcounts(j: int) -> np.ndarray:
    """Cardinality |S| for every mask S < 2**j (read-only int64 array)."""
    counts = np.zeros(1 << j, dtype=np.int64)
    for b in range(j):
        counts += (np.arange(1 << j) >> b) & 1
    counts.setflags(write=False)
    return counts
