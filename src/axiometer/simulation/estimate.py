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
Monte Carlo path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..collections import Collection
from ..errors import ParseError, RangeError, SizeError
from ..lattice import AxiomSet, subset_map, zeta_superset
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

#: Hard cap on the number of tuples swept by exact enumeration.
ENUMERATION_GUARD = 10**8

_DEFAULT_CHUNK = 1 << 16


def thread_cap() -> int:
    """Worker-thread ceiling from AXIOMETER_THREADS (default 1)."""
    raw = os.environ.get("AXIOMETER_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True, eq=False)
class EstimatedCollection:
    """Monte Carlo estimate of a collection with sampling diagnostics."""

    collection: Collection
    n_samples: int
    seed: int
    sampler: str
    world_counts: np.ndarray
    subset_counts: np.ndarray
    stderr: np.ndarray


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


def _worlds(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    rankings: np.ndarray,
    m: int,
    n: int,
) -> np.ndarray:
    """World mask for every tuple of a (B, K, n) ranking array."""
    evs = [
        EvaluatedProfiles(rule, rankings[:, k, :], m, n)
        for k in range(rankings.shape[1])
    ]
    worlds = np.zeros(rankings.shape[0], dtype=np.int64)
    for bit, ax in enumerate(axioms):
        if ax.kind == "punctual":
            sat = punctual_batch(ax.predicate, evs[0])
        else:
            sat = relational_batch(ax.predicate, evs[0], evs[1])
        worlds |= sat.astype(np.int64) << bit
    return worlds


def estimate_collection(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    sampler,
    m: int,
    n: int,
    n_samples: int,
    seed: int,
    chunk_size: int = _DEFAULT_CHUNK,
) -> EstimatedCollection:
    """Monte Carlo estimate of the satisfaction collection.

    Draws ``n_samples`` i.i.d. tuples of profiles from ``sampler``, computes
    each tuple's world, and reads the subset probabilities off the world
    counts.  Deterministic given ``seed`` regardless of chunking or the
    AXIOMETER_THREADS evaluation parallelism (sampling is sequential; only
    the pure world evaluation is sharded).
    """
    check_problem_size(m, n)
    if n_samples < 1:
        raise RangeError(f"sample count must be at least 1, got {n_samples}")
    axiom_set, tuple_width = _battery(axioms)
    sampler.ranking_pmf(m)  # validates sampler/m compatibility up front
    rng = np.random.default_rng(seed)
    workers = thread_cap()
    world_counts = np.zeros(axiom_set.n_masks, dtype=np.int64)
    drawn = 0
    while drawn < n_samples:
        block = min(chunk_size, n_samples - drawn)
        rankings = sampler.sample(rng, m, (block, tuple_width, n))
        if workers > 1 and block >= 2 * workers:
            slices = np.array_split(np.arange(block), workers)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = pool.map(
                    lambda idx: _worlds(rule, axioms, rankings[idx], m, n), slices
                )
                worlds = np.concatenate(list(parts))
        else:
            worlds = _worlds(rule, axioms, rankings, m, n)
        world_counts += np.bincount(worlds, minlength=axiom_set.n_masks)
        drawn += block
    subset_counts = np.rint(zeta_superset(world_counts.astype(np.float64))).astype(
        np.int64
    )
    p = subset_counts / float(n_samples)
    p[0] = 1.0
    stderr = np.sqrt(p * (1.0 - p) / float(n_samples))
    collection = Collection(axioms=axiom_set, p=p)
    for arr in (world_counts, subset_counts, stderr):
        arr.setflags(write=False)
    return EstimatedCollection(
        collection=collection,
        n_samples=n_samples,
        seed=seed,
        sampler=sampler.kind,
        world_counts=world_counts,
        subset_counts=subset_counts,
        stderr=stderr,
    )


def _guard(m: int, n: int, tuple_width: int) -> None:
    if math.factorial(m) ** (n * tuple_width) > ENUMERATION_GUARD:
        raise SizeError(
            f"exact enumeration over (m!)**(n*K) = "
            f"{math.factorial(m)}**{n * tuple_width} tuples exceeds "
            f"{ENUMERATION_GUARD:.0e}"
        )


def _decode_profiles(ids: np.ndarray, m: int, n: int) -> np.ndarray:
    """Mixed-radix profile ids -> (len(ids), n) ranking indices."""
    fact = math.factorial(m)
    out = np.empty((ids.shape[0], n), dtype=np.int64)
    rest = ids.copy()
    for v in range(n):
        out[:, v] = rest % fact
        rest //= fact
    return out


def _profile_weights(rankings: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    return pmf[rankings].prod(axis=1)


def enumerate_collection(
    rule: VotingRule,
    axioms: Sequence[AxiomSpec],
    m: int,
    n: int,
    sampler=None,
    chunk_size: int = _DEFAULT_CHUNK,
) -> Collection:
    """Exact collection by weighted sweep over every tuple of profiles.

    The sampler (impartial culture by default) only contributes the product
    weights of the tuples.  Guarded by ``ENUMERATION_GUARD``.
    """
    check_problem_size(m, n)
    axiom_set, tuple_width = _battery(axioms)
    _guard(m, n, tuple_width)
    sampler = sampler if sampler is not None else ImpartialCulture()
    pmf = sampler.ranking_pmf(m)
    # under a uniform sampler, count tuples exactly and divide once at the
    # end: every probability is then a correctly rounded rational
    uniform = bool(np.all(pmf == pmf[0]))
    n_profiles = math.factorial(m) ** n
    weighted = np.zeros(axiom_set.n_masks)
    if tuple_width == 1:
        for start in range(0, n_profiles, chunk_size):
            ids = np.arange(start, min(start + chunk_size, n_profiles))
            rankings = _decode_profiles(ids, m, n)
            worlds = _worlds(rule, axioms, rankings[:, None, :], m, n)
            chunk_weights = None if uniform else _profile_weights(rankings, pmf)
            weighted += np.bincount(
                worlds, weights=chunk_weights, minlength=axiom_set.n_masks
            )
    else:
        rankings = _decode_profiles(np.arange(n_profiles), m, n)
        weights = _profile_weights(rankings, pmf)
        first = EvaluatedProfiles(rule, rankings, m, n)
        punctual_worlds = np.zeros(n_profiles, dtype=np.int64)
        relational = []
        for bit, ax in enumerate(axioms):
            if ax.kind == "punctual":
                punctual_worlds |= punctual_batch(ax.predicate, first).astype(np.int64) << bit
            else:
                relational.append((bit, ax))
        pair_chunk = max(1, chunk_size // n_profiles + 1)
        for start in range(0, n_profiles, pair_chunk):
            rows = np.arange(start, min(start + pair_chunk, n_profiles))
            worlds = np.repeat(punctual_worlds[rows, None], n_profiles, axis=1)
            ev1 = _Tiled(first, rows, n_profiles)
            ev2 = _Tiled(first, None, rows.shape[0])
            for bit, ax in relational:
                sat = relational_batch(ax.predicate, ev1, ev2)
                worlds |= sat.astype(np.int64).reshape(rows.shape[0], n_profiles) << bit
            if uniform:
                pair_weights = None
            else:
                pair_weights = (weights[rows][:, None] * weights[None, :]).ravel()
            weighted += np.bincount(
                worlds.ravel(), weights=pair_weights, minlength=axiom_set.n_masks
            )
    p = zeta_superset(weighted)
    p /= p[0]
    np.clip(p, 0.0, 1.0, out=p)
    p[0] = 1.0
    return Collection(axioms=axiom_set, p=p)


class _Tiled:
    """View of an EvaluatedProfiles batch tiled over pairs (rows x all).

    ``rows=None`` tiles the full batch ``repeats`` times (the second pair
    coordinate); otherwise each selected row is repeated ``repeats`` times
    (the first coordinate).  Reuses the parent's winner cache.
    """

    def __init__(self, parent: EvaluatedProfiles, rows, repeats: int):
        self.space = parent.space
        self.m = parent.m
        self.n = parent.n
        if rows is None:
            self.rankings = np.tile(parent.rankings, (repeats, 1))
            self.winners = np.tile(parent.winners, repeats)
        else:
            self.rankings = np.repeat(parent.rankings[rows], repeats, axis=0)
            self.winners = np.repeat(parent.winners[rows], repeats)


def dominance_check(
    rule_f: VotingRule,
    rule_g: VotingRule,
    axioms: Sequence[AxiomSpec],
    m: int,
    n: int,
    chunk_size: int = _DEFAULT_CHUNK,
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
    n_profiles = math.factorial(m) ** n
    pair_codes: set[int] = set()
    j = axiom_set.size

    if tuple_width == 1:
        for start in range(0, n_profiles, chunk_size):
            ids = np.arange(start, min(start + chunk_size, n_profiles))
            rankings = _decode_profiles(ids, m, n)[:, None, :]
            wf = _worlds(rule_f, axioms, rankings, m, n)
            wg = _worlds(rule_g, axioms, rankings, m, n)
            pair_codes.update(np.unique((wg << j) | wf).tolist())
    else:
        rankings = _decode_profiles(np.arange(n_profiles), m, n)
        evaluated = {}
        punctual_worlds = {}
        for rule in (rule_f, rule_g):
            ev = EvaluatedProfiles(rule, rankings, m, n)
            pw = np.zeros(n_profiles, dtype=np.int64)
            for bit, ax in enumerate(axioms):
                if ax.kind == "punctual":
                    pw |= punctual_batch(ax.predicate, ev).astype(np.int64) << bit
            evaluated[rule.name] = ev
            punctual_worlds[rule.name] = pw
        relational = [(b, ax) for b, ax in enumerate(axioms) if ax.kind == "relational"]
        pair_chunk = max(1, chunk_size // n_profiles + 1)
        for start in range(0, n_profiles, pair_chunk):
            rows = np.arange(start, min(start + pair_chunk, n_profiles))
            worlds = {}
            for rule in (rule_f, rule_g):
                ev = evaluated[rule.name]
                w = np.repeat(punctual_worlds[rule.name][rows, None], n_profiles, axis=1)
                ev1 = _Tiled(ev, rows, n_profiles)
                ev2 = _Tiled(ev, None, rows.shape[0])
                for bit, ax in relational:
                    sat = relational_batch(ax.predicate, ev1, ev2)
                    w |= sat.astype(np.int64).reshape(rows.shape[0], n_profiles) << bit
                worlds[rule.name] = w
            codes = (worlds[rule_g.name] << j) | worlds[rule_f.name]
            pair_codes.update(np.unique(codes).tolist())

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
        if not isinstance(sigma, list) or not all(isinstance(x, int) for x in sigma):
            raise ParseError('"sigma" must be a list of candidate indices')
        try:
            return Mallows(phi=float(phi), sigma=tuple(sigma))
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
        if isinstance(sampler, Mallows):
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

    World counts are recovered exactly from the subset counts (they are each
    other's superset zeta/Moebius images); the sampler tag is not part of the
    schema and comes back as "unknown".
    """
    from ..collections import _subset_array_from_json, collection_from_json
    from ..lattice import moebius_superset

    if not isinstance(data, dict):
        raise ParseError("estimate document must be a JSON object")
    required = {"axioms", "p", "N", "seed", "stderr"}
    if set(data) != required:
        raise ParseError(f"estimate document must have exactly the keys {sorted(required)}")
    for key in ("N", "seed"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            raise ParseError(f'"{key}" must be an integer')
    n_samples = data["N"]
    if n_samples < 1:
        raise ParseError('"N" must be >= 1')
    collection = collection_from_json({"axioms": data["axioms"], "p": data["p"]})
    axioms = collection.axioms
    stderr = _subset_array_from_json(axioms, data["stderr"], "stderr", 0.0)
    subset_counts = np.rint(collection.p * n_samples).astype(np.int64)
    world_counts = np.rint(
        moebius_superset(subset_counts.astype(np.float64))
    ).astype(np.int64)
    for arr in (world_counts, subset_counts, stderr):
        arr.setflags(write=False)
    return EstimatedCollection(
        collection=collection,
        n_samples=n_samples,
        seed=data["seed"],
        sampler="unknown",
        world_counts=world_counts,
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
