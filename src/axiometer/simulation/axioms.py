"""Punctual and relational axiom predicates for the built-in voting rules.

Punctual axioms constrain the outcome of each profile separately; relational
axioms constrain outcomes across a pair of profiles and hold vacuously when
the pair is not related in the required way.  Which coordinates an axiom
reads is a fixed convention: the first K of the supplied tuple, K being the
axiom's arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..errors import ArityError, RangeError, SchemaError
from .preferences import PermSpace, Profile, perm_space
from .rules import VotingRule, ranking_counts, rule_scores, winners_from_counts

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
    """Lazy per-batch caches shared by all predicates on the same profiles.

    ``table`` is the batch's score table, ``counts @ space.scores``: the rule
    and every punctual predicate read slices of it, so one matmul serves
    them all.  ``margins[b, c, d]`` is the number of voters of row b who
    prefer c to d minus the number who prefer d to c, and ``copeland`` the
    Copeland scores.
    """

    def __init__(self, rule: VotingRule, rankings: np.ndarray, m: int, n: int):
        self.rule = rule
        self.rankings = np.asarray(rankings, dtype=np.int64)
        self.m = m
        self.n = n
        self.space: PermSpace = perm_space(m)

    @cached_property
    def counts(self) -> np.ndarray:
        return ranking_counts(self.rankings, self.m)

    @cached_property
    def table(self) -> np.ndarray:
        return self.counts @ self.space.scores

    @cached_property
    def winners(self) -> np.ndarray:
        if self.rule.name == "copeland":  # the Copeland predicates reuse its scores
            return np.argmax(self.copeland, axis=1)
        return winners_from_counts(self.rule, self.counts, self.space, self.table)

    @cached_property
    def margins(self) -> np.ndarray:
        m = self.m
        return self.table[:, : m * m].reshape(-1, m, m)

    @cached_property
    def copeland(self) -> np.ndarray:
        return rule_scores("copeland", self.table, self.space)

    def deviations(self) -> tuple[np.ndarray, np.ndarray, EvaluatedProfiles, EvaluatedProfiles]:
        """Row-aligned batches of every one-voter deviation of every profile.

        For each row i, each ranking r held in row i and each r' != r, the
        second profile switches the first voter of row i holding r to r'.
        Returns ``(row, before, first, second)``: i, r and the pair batches
        of ``pairs``.
        """
        fact = self.space.count
        row, before = np.nonzero(self.counts)
        voter = np.argmax(self.rankings[row] == before[:, None], axis=1)
        row, before, voter = (np.repeat(a, fact - 1) for a in (row, before, voter))
        after = (before + np.tile(np.arange(1, fact), row.size // (fact - 1))) % fact
        return (row, before, *self.pairs(row, voter, after))

    def pairs(
        self, row: np.ndarray, voter: np.ndarray, after: np.ndarray
    ) -> tuple[EvaluatedProfiles, EvaluatedProfiles]:
        """Row-aligned batches of the pairs (profile ``row``, its ``voter`` switched to ``after``).

        Every ``after`` must differ from the ranking it replaces.  The first
        batch carries the winners of ``row`` and the second its counts
        c - e_before + e_after, so neither batch recounts its ballots.
        """
        first = EvaluatedProfiles(self.rule, self.rankings[row], self.m, self.n)
        first.winners = self.winners[row]
        second = EvaluatedProfiles(self.rule, first.rankings.copy(), self.m, self.n)
        pair = np.arange(row.size)
        counts = self.counts[row]
        counts[pair, first.rankings[pair, voter]] -= 1.0
        counts[pair, after] += 1.0
        second.rankings[pair, voter] = after
        second.counts = counts
        return first, second


def punctual_batch(predicate: str, ev: EvaluatedProfiles) -> np.ndarray:
    """Truth value of a punctual axiom on every profile of the batch.

    Each predicate reads the winner's entry of a per-candidate array, and
    "some candidate" is a product with ``space.ones``, which costs less
    than a reduction over so short an axis.
    """
    rows, w, ones = np.arange(ev.rankings.shape[0]), ev.winners, ev.space.ones
    if predicate == "condorcet_consistency":
        # a Condorcet winner beats all m - 1 others, so there is at most one
        champion = ev.copeland == ev.m - 1
        return champion[rows, w] | (champion @ ones == 0)
    if predicate == "majority_winner":
        major = rule_scores("plurality", ev.table, ev.space) > ev.n / 2.0
        return major[rows, w] | (major @ ones == 0)
    if predicate == "condorcet_loser_avoidance":
        return ev.copeland[rows, w] != 1 - ev.m
    if predicate == "pareto":
        # d beats w by n exactly when every voter prefers d to w
        return (ev.margins[rows, :, w] == ev.n) @ ones == 0
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
