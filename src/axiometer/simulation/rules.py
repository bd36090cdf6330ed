"""Single-winner voting rules with lexicographic tie-breaking.

All rules are deterministic functions of the profile: scores are computed
from the per-ranking count vector by one matrix product, and ``argmax`` picks
the lowest-indexed candidate among maximal scores, which is exactly the fixed
lexicographic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RangeError
from .preferences import PermSpace, Profile, perm_space

RULE_TAGS = ("plurality", "borda", "copeland", "antiplurality")


@dataclass(frozen=True)
class VotingRule:
    """One of the built-in rules; ties always break towards lower indices."""

    name: str

    def __post_init__(self):
        if self.name not in RULE_TAGS:
            raise RangeError(f"unknown rule {self.name!r}; choose from {RULE_TAGS}")


def ranking_counts(rankings: np.ndarray, m: int) -> np.ndarray:
    """Per-ranking ballot counts, shape (B, m!), from a (B, n) index array."""
    r = np.asarray(rankings, dtype=np.int64)
    if r.ndim == 1:
        r = r[None, :]
    space = perm_space(m)
    counts = np.zeros((r.shape[0], space.count))
    np.add.at(counts, (np.arange(r.shape[0])[:, None], r), 1.0)
    return counts


def pairwise_tallies(counts: np.ndarray, space: PermSpace) -> np.ndarray:
    """tallies[b, c, d] = number of voters preferring c to d in batch row b."""
    m = space.m
    return (counts @ space.pair_flat).reshape(counts.shape[0], m, m)


def winners_from_counts(rule: VotingRule, counts: np.ndarray, space: PermSpace) -> np.ndarray:
    if rule.name == "plurality":
        scores = counts @ space.first
    elif rule.name == "borda":
        scores = counts @ space.borda
    elif rule.name == "antiplurality":
        scores = counts @ space.last_neg
    else:  # copeland
        tallies = pairwise_tallies(counts, space)
        swapped = tallies.transpose(0, 2, 1)
        scores = (tallies > swapped).sum(axis=2) - (tallies < swapped).sum(axis=2)
    return np.argmax(scores, axis=1)


def apply_rule(rule: VotingRule, profile: Profile) -> int:
    """Winning candidate index for one profile."""
    counts = ranking_counts(profile.as_array()[None, :], profile.m)
    return int(winners_from_counts(rule, counts, perm_space(profile.m))[0])
