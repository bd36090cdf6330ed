"""Preference profiles and ranking samplers for finite voting problems.

Rankings are strict total orders over ``m`` candidates, encoded as indices
into the lexicographic enumeration of all m! permutations.  A profile is one
ranking per voter.  A sampler is its distribution over rankings: it states
``ranking_pmf(m)`` (at most 5! = 120 entries) and draws i.i.d. ranking
indices from it, one per voter.  Two samplers are provided: impartial
culture (uniform rankings) and the Mallows model, under which the
probability of a ranking is proportional to phi ** (Kendall tau distance to
the reference ranking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from ..errors import RangeError

MIN_CANDIDATES = 3
MAX_CANDIDATES = 5
MIN_VOTERS = 1
MAX_VOTERS = 50


def check_problem_size(m: int, n: int) -> None:
    if not MIN_CANDIDATES <= m <= MAX_CANDIDATES:
        raise RangeError(f"candidate count must be in [{MIN_CANDIDATES}, {MAX_CANDIDATES}], got {m}")
    if not MIN_VOTERS <= n <= MAX_VOTERS:
        raise RangeError(f"voter count must be in [{MIN_VOTERS}, {MAX_VOTERS}], got {n}")


@dataclass(frozen=True)
class PermSpace:
    """Precomputed lookup tables over all m! rankings (cached per m).

    ``perms[k, pos]`` is the candidate at position ``pos`` of ranking k
    (position 0 = most preferred); ``rank[k, c]`` inverts it.
    ``raise_up[k, c]`` is the ranking obtained from k by moving candidate c
    one position towards the top (-1 when c is already on top).

    ``scores`` (m!, m*m + 3m) turns per-ranking counts into every score the
    rules and punctual axioms read, by one matmul.  Row k holds, in order:
    the pairwise margins of ranking k flattened as ``c * m + d`` (+1 when c
    is above d, -1 when below, 0 when c = d), then the top indicator, the
    Borda points and minus the bottom indicator.  ``row_sum`` (m*m, m) sums
    each candidate's m margins, and ``ones`` (m,) sums over the candidates.
    """

    m: int
    perms: np.ndarray
    rank: np.ndarray
    scores: np.ndarray
    row_sum: np.ndarray
    ones: np.ndarray
    raise_up: np.ndarray

    @property
    def count(self) -> int:
        return self.perms.shape[0]


@lru_cache(maxsize=None)
def perm_space(m: int) -> PermSpace:
    perms = np.array(list(permutations(range(m))), dtype=np.int64)
    fact = perms.shape[0]
    rank = np.empty_like(perms)
    rank[np.arange(fact)[:, None], perms] = np.arange(m)[None, :]
    margins = np.sign(rank[:, None, :] - rank[:, :, None]).reshape(fact, m * m)
    scores = np.hstack([margins, rank == 0, m - 1 - rank, -1 * (rank == m - 1)]).astype(np.float64)
    row_sum = np.repeat(np.eye(m), m, axis=0)
    ones = np.ones(m)
    index_of = {tuple(p): k for k, p in enumerate(perms.tolist())}
    raise_up = np.full((fact, m), -1, dtype=np.int64)
    for k, p in enumerate(perms.tolist()):
        for pos in range(1, m):
            q = list(p)
            q[pos - 1], q[pos] = q[pos], q[pos - 1]
            raise_up[k, p[pos]] = index_of[tuple(q)]
    for arr in (perms, rank, scores, row_sum, ones, raise_up):
        arr.setflags(write=False)
    return PermSpace(m, perms, rank, scores, row_sum, ones, raise_up)


def encode_rankings(rankings: np.ndarray) -> np.ndarray:
    """Lexicographic permutation index for each row of a (B, m) order array."""
    r = np.asarray(rankings, dtype=np.int64)
    batch, m = r.shape
    idx = np.zeros(batch, dtype=np.int64)
    for i in range(m):
        smaller_after = np.zeros(batch, dtype=np.int64)
        for j in range(i + 1, m):
            smaller_after += r[:, j] < r[:, i]
        idx += smaller_after * math.factorial(m - 1 - i)
    return idx


@dataclass(frozen=True)
class Profile:
    """One strict ranking per voter, stored as permutation indices."""

    m: int
    n: int
    rankings: tuple[int, ...]

    def __post_init__(self):
        check_problem_size(self.m, self.n)
        rankings = tuple(int(r) for r in self.rankings)
        if len(rankings) != self.n:
            raise RangeError(f"expected {self.n} rankings, got {len(rankings)}")
        fact = math.factorial(self.m)
        for r in rankings:
            if not 0 <= r < fact:
                raise RangeError(f"ranking index {r} out of [0, {fact})")
        object.__setattr__(self, "rankings", rankings)

    @classmethod
    def from_orders(cls, orders) -> "Profile":
        """Build from explicit orders, e.g. [(0, 1, 2), (2, 0, 1)]."""
        orders = [tuple(o) for o in orders]
        if not orders:
            raise RangeError("a profile needs at least one voter")
        m = len(orders[0])
        for o in orders:
            if sorted(o) != list(range(m)):
                raise RangeError(f"not a permutation of 0..{m - 1}: {o}")
        idx = encode_rankings(np.array(orders))
        return cls(m=m, n=len(orders), rankings=tuple(int(i) for i in idx))

    def order(self, voter: int) -> tuple[int, ...]:
        """Candidates from most to least preferred for one voter."""
        return tuple(perm_space(self.m).perms[self.rankings[voter]].tolist())

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rankings, dtype=np.int64)


#: Cells of the guide table that starts each inverse-CDF search.  A power of
#: two, so that scaling a uniform or a CDF value by it is exact.
_GUIDE = 1 << 12


def _kahan_sum(values: list) -> float:
    """The compensated sum that ``Generator.choice`` tests a pmf's total with."""
    if not values:
        return 0.0
    total, carry = values[0], 0.0
    for x in values[1:]:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _checked_pmf(pmf) -> np.ndarray:
    """``pmf`` as float64, or the ValueError ``Generator.choice(p=pmf)`` raises."""
    atol = math.sqrt(np.finfo(np.float64).eps)
    if isinstance(pmf, np.ndarray) and np.issubdtype(pmf.dtype, np.floating):
        atol = max(atol, math.sqrt(np.finfo(pmf.dtype).eps))
    p = np.asarray(pmf, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    total = _kahan_sum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > atol:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring for more information."
        )
    return p


class RankingSampler:
    """A distribution over rankings; subclasses give ``ranking_pmf(m)``."""

    def sample(self, rng: np.random.Generator, m: int, shape) -> np.ndarray:
        """I.i.d. ranking indices drawn from ``ranking_pmf(m)``.

        An exactly uniform pmf draws ``rng.integers(0, m!, shape)``; any
        other pmf is drawn by inverse CDF through a guide table (Chen & Asau
        1974), from the same uniforms and with the same result as
        ``rng.choice(m!, size=shape, p=pmf)``.  A pmf that ``choice`` would
        reject raises its ValueError before anything is drawn.
        """
        pmf = _checked_pmf(self.ranking_pmf(m))
        if (pmf == pmf[0]).all():
            return rng.integers(0, pmf.size, shape)
        # choice's CDF and uniforms, both in units of guide cells
        cdf = pmf.cumsum()
        cdf /= cdf[-1]
        cdf *= _GUIDE
        u = rng.random(shape)
        u *= _GUIDE
        # guide[k] is the answer for u = k, so a lower bound for u in [k, k+1);
        # it is the answer there too unless the CDF steps inside the cell
        cells = np.arange(_GUIDE + 1)
        guide = cdf.searchsorted(cells[:-1], side="right")
        steps_inside = cdf[guide] < cells[1:]
        idx = u.astype(np.int64)
        flat_idx, flat_u = idx.reshape(-1), u.reshape(-1)
        sel = np.flatnonzero(steps_inside[flat_idx])
        guide.take(idx, out=idx, mode="clip")
        # advance to the first index with cdf > u: searchsorted(side="right"),
        # also across the flat stretches that zero-probability rankings leave
        while sel.size:
            sel = sel[cdf[flat_idx[sel]] <= flat_u[sel]]
            flat_idx[sel] += 1
        return idx


class ImpartialCulture(RankingSampler):
    """Uniform i.i.d. rankings."""

    def ranking_pmf(self, m: int) -> np.ndarray:
        fact = math.factorial(m)
        return np.full(fact, 1.0 / fact)

    def __repr__(self):
        return "ImpartialCulture()"


@dataclass(frozen=True)
class Mallows(RankingSampler):
    """Mallows model with dispersion ``phi`` and reference ranking ``sigma``.

    The probability of a ranking is proportional to phi ** (its Kendall tau
    distance to ``sigma``).  phi = 1 is impartial culture and draws the same
    stream; smaller phi concentrates mass near the reference.
    """

    phi: float
    sigma: tuple[int, ...]

    def __post_init__(self):
        if not 0.0 < self.phi <= 1.0:
            raise RangeError(f"phi must be in (0, 1], got {self.phi}")
        sigma = tuple(int(c) for c in self.sigma)
        if sorted(sigma) != list(range(len(sigma))):
            raise RangeError(f"sigma must be a permutation of 0..m-1, got {sigma}")
        object.__setattr__(self, "sigma", sigma)

    def ranking_pmf(self, m: int) -> np.ndarray:
        if len(self.sigma) != m:
            raise RangeError(
                f"reference ranking has {len(self.sigma)} candidates, problem has {m}"
            )
        space = perm_space(m)
        positions = space.rank[:, list(self.sigma)]
        tau = np.zeros(space.count, dtype=np.int64)
        for i in range(m):
            for j in range(i + 1, m):
                tau += positions[:, i] > positions[:, j]
        pmf = self.phi ** tau.astype(np.float64)
        return pmf / pmf.sum()
