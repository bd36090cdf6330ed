"""Satisfaction-probability estimation for rules against axiom batteries.

Each sampled tuple of profiles yields one *world*: the bitmask of axioms it
satisfies.  The probability of jointly satisfying a subset S is then the mass
of worlds containing S, which one superset-zeta sweep extracts from the world
counts.  Because every tuple contributes a genuine world, the estimated
collection is feasible by construction.

Tuples are i.i.d. product draws (each coordinate an independent profile, each
voter an independent ranking), and every axiom reads the first ``arity``
coordinates of the tuple.  Exact enumeration over the whole tuple space is
available under a size guard and doubles as the ground-truth oracle for the
Monte Carlo path.  It walks anonymous count classes instead of profiles: one
weighted row per class, plus one per one-voter deviation of a class when an
axiom is relational.  Under impartial culture the row weights are tuple
counts, so every probability is an exact tuple-count ratio, correctly
rounded, while the counts stay below 2**53.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..collections import Collection
from ..errors import ParseError, RangeError, SizeError
from ..lattice import AxiomSet, moebius_superset, subset_map, zeta_superset
from .axioms import (
    PUNCTUAL_TAGS,
    RELATIONAL_TAGS,
    AxiomSpec,
    EvaluatedProfiles,
    punctual_batch,
    relational_batch,
)
from .preferences import ImpartialCulture, Mallows, check_problem_size
from .rules import RULE_TAGS, VotingRule

#: Hard cap on the rows evaluated by exact enumeration: C(n + m! - 1, n) count
#: classes, times 1 + min(n, m!) * (m! - 1) when an axiom is relational.
ENUMERATION_GUARD = 10**8

#: Most tuples (Monte Carlo) or count-class rows (exact enumeration) that one
#: block evaluates at once; it bounds memory and changes no result.
CHUNK_TUPLES = 1 << 16

#: Top-level keys of the estimator output schema.
_ESTIMATE_KEYS = frozenset({"axioms", "p", "N", "seed", "stderr"})


@dataclass(frozen=True, eq=False)
class EstimatedCollection:
    """Monte Carlo estimate of a collection with sampling diagnostics."""

    collection: Collection
    n_samples: int
    seed: int
    sampler: str
    subset_counts: np.ndarray
    stderr: np.ndarray

    @cached_property
    def world_counts(self) -> np.ndarray:
        """Tuples per world, the superset Moebius image of ``subset_counts``.

        Exact: every partial sum of the transform counts tuples, so it is an
        integer of at most ``n_samples`` <= 2**53.
        """
        counts = np.rint(moebius_superset(self.subset_counts)).astype(np.int64)
        counts.setflags(write=False)
        return counts


@dataclass(frozen=True, eq=False)
class DominanceResult:
    """Instance-level inclusion verdicts, one per non-empty axiom subset."""

    axioms: AxiomSet
    per_mask: np.ndarray
    dominates: bool


def _battery(axioms: Sequence[AxiomSpec]) -> tuple[AxiomSet, int]:
    if not axioms:
        raise RangeError("at least one axiom is required")
    axiom_set = AxiomSet(tuple(ax.name for ax in axioms))
    return axiom_set, max(ax.arity for ax in axioms)


def _punctual_worlds(
    axioms: Sequence[AxiomSpec], ev: EvaluatedProfiles, worlds: np.ndarray
) -> np.ndarray:
    """OR the bits of the punctual axioms on every profile of ``ev`` into ``worlds``."""
    for bit, ax in enumerate(axioms):
        if ax.kind == "punctual":
            worlds |= punctual_batch(ax.predicate, ev).astype(np.int64) << bit
    return worlds


def _relational_worlds(
    axioms: Sequence[AxiomSpec],
    ev1: EvaluatedProfiles,
    ev2: EvaluatedProfiles,
    worlds: np.ndarray,
) -> np.ndarray:
    """OR the bits of the relational axioms on every row-aligned pair into ``worlds``."""
    for bit, ax in enumerate(axioms):
        if ax.kind == "relational":
            worlds |= relational_batch(ax.predicate, ev1, ev2).astype(np.int64) << bit
    return worlds


def _worlds(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    rankings: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """World mask for every tuple of a (B, K, n) ranking array."""
    # with K = 1 no axiom is relational, so ``last`` is never evaluated
    first, last = (EvaluatedProfiles(rule, rankings[:, k, :], m, n) for k in (0, -1))
    worlds = _punctual_worlds(axioms, first, np.zeros(rankings.shape[0], dtype=np.int64))
    return _relational_worlds(axioms, first, last, worlds)


def estimate_collection(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    sampler,
    m: int,
    n: int,
    n_samples: int,
    seed: int,
) -> EstimatedCollection:
    """Monte Carlo estimate of the satisfaction collection.

    Draws ``n_samples`` i.i.d. tuples of profiles from ``sampler`` in blocks
    of at most ``CHUNK_TUPLES`` tuples, computes each tuple's world, and reads
    the subset probabilities off the world counts.  Deterministic given
    ``seed``; the block size changes neither the draws nor the result.
    """
    check_problem_size(m, n)
    if n_samples < 1:
        raise RangeError(f"sample count must be at least 1, got {n_samples}")
    axiom_set, tuple_width = _battery(axioms)
    sampler.ranking_pmf(m)  # validates sampler/m compatibility up front
    rng = np.random.default_rng(seed)
    world_counts = np.zeros(axiom_set.n_masks, dtype=np.int64)
    for start in range(0, n_samples, CHUNK_TUPLES):
        block = min(CHUNK_TUPLES, n_samples - start)
        rankings = sampler.sample(rng, m, (block, tuple_width, n))
        worlds = _worlds(rule, axioms, rankings, m, n)
        world_counts += np.bincount(worlds, minlength=axiom_set.n_masks)
    subset_counts = np.rint(zeta_superset(world_counts.astype(np.float64))).astype(
        np.int64
    )
    p = subset_counts / float(n_samples)
    p[0] = 1.0
    stderr = np.sqrt(p * (1.0 - p) / float(n_samples))
    collection = Collection(axioms=axiom_set, p=p)
    for arr in (subset_counts, stderr):
        arr.setflags(write=False)
    return EstimatedCollection(
        collection=collection,
        n_samples=n_samples,
        seed=seed,
        sampler=sampler.kind,
        subset_counts=subset_counts,
        stderr=stderr,
    )


def _class_rows(fact: int, n: int, relational: bool) -> int:
    """Most rows of one count class: itself and, with a relational axiom, its deviations."""
    return 1 + relational * min(n, fact) * (fact - 1)


def _guard(m: int, n: int, tuple_width: int) -> None:
    fact = math.factorial(m)
    rows = math.comb(n + fact - 1, n) * _class_rows(fact, n, tuple_width > 1)
    if rows > ENUMERATION_GUARD:
        raise SizeError(
            f"exact enumeration over {rows:.3g} count-class rows exceeds "
            f"{ENUMERATION_GUARD:.0e}"
        )


def _exact_worlds(rule: VotingRule, axioms: Sequence[AxiomSpec], m: int, n: int, pmf: np.ndarray):
    """Yield ``(worlds, weights)`` blocks whose weighted rows cover every tuple once.

    Rules and predicates read a profile only through its ballot counts c, and
    a pair only through c and its one deviating voter.  So one row, the
    sorted profile of c, stands for the class c, weighted by multinomial(n; c)
    * W(c) with W(c) = prod pmf**c.  With a relational axiom, each one-voter
    deviation r -> r' adds a row weighted multinomial * c_r * W(c) * W(c'),
    and the class row keeps the rest of the mass with every relational bit
    set (unrelated pairs hold vacuously).  The pmf is scaled to a maximum of
    1, so a uniform pmf weighs rows by exact tuple counts.
    """
    fact = math.factorial(m)
    relational = sum(1 << b for b, ax in enumerate(axioms) if ax.kind == "relational")
    scale = pmf / pmf.max()
    second_mass = scale.sum() ** n
    binom = np.array([[math.comb(s, k) for k in range(n + 1)] for s in range(n + 1)], dtype=float)
    classes = itertools.combinations_with_replacement(range(fact), n)
    per_block = max(1, CHUNK_TUPLES // _class_rows(fact, n, relational > 0))
    while True:
        block = itertools.chain.from_iterable(itertools.islice(classes, per_block))
        reps = np.fromiter(block, dtype=np.int64).reshape(-1, n)
        if not len(reps):
            return
        ev = EvaluatedProfiles(rule, reps, m, n)
        counts = ev.counts.astype(np.int64)
        # each binomial is an exact float, so the product is exact below 2**53
        multinomial = binom[np.cumsum(counts, axis=1), counts].prod(axis=1)
        mass = multinomial * (scale**ev.counts).prod(axis=1)
        worlds = _punctual_worlds(axioms, ev, np.zeros(len(reps), dtype=np.int64))
        if not relational:
            yield worlds, mass
            continue
        row, before, first, second = ev.deviations()
        # W(c') from the counts of c', not as W(c) * pmf[r'] / pmf[r], which
        # is 0/0 where pmf[r] underflows to 0
        deviation = mass[row] * ev.counts[row, before] * (scale**second.counts).prod(axis=1)
        rest = mass * second_mass - np.bincount(row, deviation, minlength=len(reps))
        pair_worlds = _relational_worlds(axioms, first, second, worlds[row])
        yield np.concatenate([worlds | relational, pair_worlds]), np.concatenate([rest, deviation])


def enumerate_collection(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    m: int,
    n: int,
    sampler=None,
) -> Collection:
    """Exact collection by weighted sweep over every tuple of profiles.

    The sampler (impartial culture by default) only contributes the weights of
    the count-class rows (see ``_exact_worlds``).  Guarded by ``ENUMERATION_GUARD``.
    """
    check_problem_size(m, n)
    axiom_set, tuple_width = _battery(axioms)
    _guard(m, n, tuple_width)
    pmf = (sampler if sampler is not None else ImpartialCulture()).ranking_pmf(m)
    weighted = np.zeros(axiom_set.n_masks)
    for worlds, weights in _exact_worlds(rule, axioms, m, n, pmf):
        weighted += np.bincount(worlds, weights, minlength=axiom_set.n_masks)
    p = zeta_superset(weighted)
    p /= p[0]
    np.clip(p, 0.0, 1.0, out=p)
    p[0] = 1.0
    return Collection(axioms=axiom_set, p=p)


def dominance_check(
    rule_f: VotingRule,
    rule_g: VotingRule,
    axioms: Sequence[AxiomSpec],
    m: int,
    n: int,
) -> DominanceResult:
    """Instance-level dominance of ``rule_f`` over ``rule_g``.

    For every non-empty subset S of axioms, checks that each tuple on which
    ``rule_g`` satisfies all of S is also a tuple on which ``rule_f`` does.
    This is the measure-free partial order that the Moebius performance
    measure extends: when it holds, the measure ranks ``rule_f`` at least as
    high for every capacity and every sampling distribution.
    """
    check_problem_size(m, n)
    axiom_set, tuple_width = _battery(axioms)
    _guard(m, n, tuple_width)
    j = axiom_set.size
    pmf = ImpartialCulture().ranking_pmf(m)  # any pmf: the weights are ignored
    pair_codes: set[int] = set()
    for (wf, _), (wg, _) in zip(
        _exact_worlds(rule_f, axioms, m, n, pmf),
        _exact_worlds(rule_g, axioms, m, n, pmf),
    ):
        pair_codes.update(np.unique((wg << j) | wf).tolist())

    masks = np.arange(axiom_set.n_masks)
    violated = np.zeros(axiom_set.n_masks, dtype=bool)
    low_mask = axiom_set.n_masks - 1
    for code in pair_codes:
        world_g, world_f = code >> j, code & low_mask
        if world_g & ~world_f:
            violated |= ((masks & ~world_g) == 0) & ((masks & ~world_f) != 0)
    per_mask = ~violated
    per_mask[0] = True
    per_mask.setflags(write=False)
    return DominanceResult(
        axioms=axiom_set, per_mask=per_mask, dominates=bool(per_mask[1:].all())
    )


# ---------------------------------------------------------------------------
# Experiment spec JSON:
# {"rule": "plurality", "axioms": ["condorcet_consistency", ...], "m": 3,
#  "n": 7, "sampler": {"kind": "mallows", "phi": 0.8, "sigma": [0, 1, 2]},
#  "N": 100000, "seed": 42}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    rule: VotingRule
    axioms: tuple[AxiomSpec, ...]
    m: int
    n: int
    sampler: object
    n_samples: int
    seed: int


def _sampler_from_json(data: object):
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError('"sampler" must be an object with a "kind"')
    kind = data["kind"]
    if kind == "impartial_culture":
        if set(data) != {"kind"}:
            raise ParseError("impartial_culture takes no parameters")
        return ImpartialCulture()
    if kind == "mallows":
        if set(data) != {"kind", "phi", "sigma"}:
            raise ParseError('mallows sampler needs exactly "phi" and "sigma"')
        phi, sigma = data["phi"], data["sigma"]
        if isinstance(phi, bool) or not isinstance(phi, (int, float)):
            raise ParseError(f'"phi" must be a number, got {phi!r}')
        if not isinstance(sigma, list) or any(type(x) is not int for x in sigma):
            raise ParseError('"sigma" must be a list of candidate indices')
        try:
            return Mallows(phi=float(phi), sigma=tuple(sigma))
        except OverflowError:  # float(phi) of an integer beyond float range
            raise ParseError('"phi" must be in (0, 1]') from None
        except RangeError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown sampler kind {kind!r}")


def experiment_from_json(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise ParseError("experiment document must be a JSON object")
    required = {"rule", "axioms", "m", "n", "sampler", "N", "seed"}
    if set(data) != required:
        raise ParseError(
            f"experiment document must have exactly the keys {sorted(required)}"
        )
    if data["rule"] not in RULE_TAGS:
        raise ParseError(f'unknown rule {data["rule"]!r}; choose from {RULE_TAGS}')
    ax_tags = data["axioms"]
    known = PUNCTUAL_TAGS + RELATIONAL_TAGS
    if (
        not isinstance(ax_tags, list)
        or not ax_tags
        or not all(isinstance(t, str) and t in known for t in ax_tags)
    ):
        raise ParseError(f'"axioms" must be a non-empty list drawn from {known}')
    if len(set(ax_tags)) != len(ax_tags):
        raise ParseError("axiom tags must be distinct")
    for key in ("m", "n", "N", "seed"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            raise ParseError(f'"{key}" must be an integer, got {data[key]!r}')
    if data["N"] < 1 or data["seed"] < 0:
        raise ParseError('"N" must be >= 1 and "seed" >= 0')
    sampler = _sampler_from_json(data["sampler"])
    try:
        check_problem_size(data["m"], data["n"])
        sampler.ranking_pmf(data["m"])
    except RangeError as exc:
        raise ParseError(str(exc)) from exc
    return ExperimentSpec(
        rule=VotingRule(data["rule"]),
        axioms=tuple(AxiomSpec.builtin(t) for t in ax_tags),
        m=data["m"],
        n=data["n"],
        sampler=sampler,
        n_samples=data["N"],
        seed=data["seed"],
    )


def estimated_to_json(est: EstimatedCollection) -> dict:
    from ..collections import collection_to_json

    doc = collection_to_json(est.collection)
    axioms = est.collection.axioms
    doc["N"] = est.n_samples
    doc["seed"] = est.seed
    doc["stderr"] = subset_map(axioms, est.stderr)
    return doc


def estimated_from_json(data: dict) -> EstimatedCollection:
    """Parse the estimator output schema back into an EstimatedCollection.

    The subset counts are p * N, rounded; the sampler tag is not part of the
    schema and comes back as "unknown".
    """
    from ..collections import _subset_array_from_json, collection_from_json

    if not isinstance(data, dict):
        raise ParseError("estimate document must be a JSON object")
    if set(data) != _ESTIMATE_KEYS:
        raise ParseError(
            f"estimate document must have exactly the keys {sorted(_ESTIMATE_KEYS)}"
        )
    for key in ("N", "seed"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            raise ParseError(f'"{key}" must be an integer')
    n_samples = data["N"]
    # subset counts are p * N in float64, exact only up to 2**53
    if not 1 <= n_samples <= 2**53:
        raise ParseError('"N" must be >= 1 and <= 2**53')
    collection = collection_from_json({"axioms": data["axioms"], "p": data["p"]})
    axioms = collection.axioms
    stderr = _subset_array_from_json(axioms, data["stderr"], "stderr", 0.0)
    subset_counts = np.rint(collection.p * n_samples).astype(np.int64)
    for arr in (subset_counts, stderr):
        arr.setflags(write=False)
    return EstimatedCollection(
        collection=collection,
        n_samples=n_samples,
        seed=data["seed"],
        sampler="unknown",
        subset_counts=subset_counts,
        stderr=stderr,
    )


def run_experiment(
    spec: ExperimentSpec, exact: bool = False, seed_override: int | None = None
):
    """Execute an experiment spec: estimate, or enumerate when ``exact``."""
    if exact:
        return enumerate_collection(spec.rule, spec.axioms, spec.m, spec.n, spec.sampler)
    seed = spec.seed if seed_override is None else seed_override
    return estimate_collection(
        spec.rule, spec.axioms, spec.sampler, spec.m, spec.n, spec.n_samples, seed
    )
