"""Punctual and relational axiom predicates for the built-in voting rules.

Punctual axioms constrain the outcome of each profile separately; relational
axioms constrain outcomes across a pair of profiles and hold vacuously when
the pair is not related in the required way.  Which coordinates an axiom
reads is a fixed convention: the first K of the supplied tuple, K being the
axiom's arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ArityError, RangeError, SchemaError
from .preferences import PermSpace, Profile, perm_space
from .rules import VotingRule, pairwise_tallies, ranking_counts, winners_from_counts

PUNCTUAL_TAGS = (
    "condorcet_consistency",
    "majority_winner",
    "condorcet_loser_avoidance",
    "pareto",
)
RELATIONAL_TAGS = ("monotonicity_pair", "strategyproof_pair")


@dataclass(frozen=True)
class AxiomSpec:
    """A named axiom: punctual (arity 1) or relational (arity 2), as its predicate is."""

    name: str
    predicate: str

    def __post_init__(self):
        if self.predicate not in PUNCTUAL_TAGS + RELATIONAL_TAGS:
            raise RangeError(
                f"unknown predicate {self.predicate!r}; "
                f"choose from {PUNCTUAL_TAGS + RELATIONAL_TAGS}"
            )
        if not self.name:
            raise RangeError("axiom name must be non-empty")

    @property
    def kind(self) -> str:
        return "punctual" if self.predicate in PUNCTUAL_TAGS else "relational"

    @property
    def arity(self) -> int:
        return 1 if self.predicate in PUNCTUAL_TAGS else 2

    @classmethod
    def builtin(cls, predicate: str, name: str | None = None) -> "AxiomSpec":
        return cls(name=name or predicate, predicate=predicate)


class EvaluatedProfiles:
    """Lazy per-batch caches shared by all predicates on the same profiles."""

    def __init__(self, rule: VotingRule, rankings: np.ndarray, m: int, n: int):
        self.rule = rule
        self.rankings = np.asarray(rankings, dtype=np.int64)
        self.m = m
        self.n = n
        self.space: PermSpace = perm_space(m)
        self._counts = None
        self._winners = None
        self._tallies = None

    @property
    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = ranking_counts(self.rankings, self.m)
        return self._counts

    @property
    def winners(self) -> np.ndarray:
        if self._winners is None:
            self._winners = winners_from_counts(self.rule, self.counts, self.space)
        return self._winners

    @property
    def tallies(self) -> np.ndarray:
        if self._tallies is None:
            self._tallies = pairwise_tallies(self.counts, self.space)
        return self._tallies

    def deviations(self) -> tuple[np.ndarray, np.ndarray, EvaluatedProfiles, EvaluatedProfiles]:
        """Row-aligned batches of every one-voter deviation of every profile.

        For each row i, each ranking r held in row i and each r' != r, the
        second profile switches the first voter of row i holding r to r'.
        Returns ``(row, before, first, second)``: i, r and the pair batches,
        which carry row i's winners and count c - e_r + e_r' without recounting.
        """
        fact = self.space.count
        row, before = np.nonzero(self.counts)
        voter = np.argmax(self.rankings[row] == before[:, None], axis=1)
        row, before, voter = (np.repeat(a, fact - 1) for a in (row, before, voter))
        after = (before + np.tile(np.arange(1, fact), row.size // (fact - 1))) % fact
        first = EvaluatedProfiles(self.rule, self.rankings[row], self.m, self.n)
        first._winners = self.winners[row]
        second = EvaluatedProfiles(self.rule, first.rankings.copy(), self.m, self.n)
        second.rankings[np.arange(row.size), voter] = after
        second._counts = self.counts[row] - np.eye(fact)[before] + np.eye(fact)[after]
        return row, before, first, second


def punctual_batch(predicate: str, ev: EvaluatedProfiles) -> np.ndarray:
    """Truth value of a punctual axiom on every profile of the batch."""
    rows = np.arange(ev.rankings.shape[0])
    if predicate == "majority_winner":
        firsts = ev.counts @ ev.space.first
        has_majority = firsts > ev.n / 2.0
        exists = has_majority.any(axis=1)
        favorite = np.argmax(has_majority, axis=1)
        return ~exists | (ev.winners == favorite)
    tallies = ev.tallies
    swapped = tallies.transpose(0, 2, 1)
    if predicate == "condorcet_consistency":
        beats_all = (tallies > swapped).sum(axis=2) == ev.m - 1
        exists = beats_all.any(axis=1)
        champion = np.argmax(beats_all, axis=1)
        return ~exists | (ev.winners == champion)
    if predicate == "condorcet_loser_avoidance":
        loses_all = (tallies < swapped).sum(axis=2) == ev.m - 1
        return ~loses_all[rows, ev.winners]
    if predicate == "pareto":
        dominated = (tallies == ev.n).any(axis=1)
        return ~dominated[rows, ev.winners]
    raise RangeError(f"not a punctual predicate: {predicate!r}")


def relational_batch(
    predicate: str, ev1: EvaluatedProfiles, ev2: EvaluatedProfiles
) -> np.ndarray:
    """Truth value of a relational axiom on every pair (row-aligned batches)."""
    r1, r2 = ev1.rankings, ev2.rankings
    rows = np.arange(r1.shape[0])
    differs = r1 != r2
    one_deviator = differs.sum(axis=1) == 1
    deviator = np.argmax(differs, axis=1)
    before = r1[rows, deviator]
    after = r2[rows, deviator]
    if predicate == "strategyproof_pair":
        pos = ev1.space.rank[before]
        gains = pos[rows, ev2.winners] < pos[rows, ev1.winners]
        return ~(one_deviator & gains)
    if predicate == "monotonicity_pair":
        lifted = ev1.space.raise_up[before, ev1.winners]
        related = one_deviator & (after == lifted)
        return ~related | (ev2.winners == ev1.winners)
    raise RangeError(f"not a relational predicate: {predicate!r}")


def check_axiom(ax: AxiomSpec, rule: VotingRule, profiles: Sequence[Profile]) -> bool:
    """Evaluate one axiom on a tuple of profiles (first ``ax.arity`` used)."""
    if len(profiles) < ax.arity:
        raise ArityError(
            f"axiom {ax.name!r} needs {ax.arity} profiles, got {len(profiles)}"
        )
    used = profiles[: ax.arity]
    m, n = used[0].m, used[0].n
    for prof in used[1:]:
        if (prof.m, prof.n) != (m, n):
            raise SchemaError("all profiles of a tuple must share m and n")
    evs = [
        EvaluatedProfiles(rule, prof.as_array()[None, :], m, n) for prof in used
    ]
    if ax.kind == "punctual":
        return bool(punctual_batch(ax.predicate, evs[0])[0])
    return bool(relational_batch(ax.predicate, evs[0], evs[1])[0])
