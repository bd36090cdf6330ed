"""Single-winner voting rules with lexicographic tie-breaking.

All rules are deterministic functions of the profile: their scores are
slices of one score table, computed from the per-ranking count vectors by one
matrix product with ``PermSpace.scores``, and ``argmax`` picks the
lowest-indexed candidate among maximal scores, which is exactly the fixed
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
    """Per-ranking ballot counts, shape (B, m!), from a (B, n) index array.

    Every index must satisfy ``0 <= r < m!``; this is not checked.  The
    ballots are counted through one flat index ``b * m! + r`` into the
    counts, so an index out of range would count into a neighbouring row
    instead of raising.  A single 1-D index keeps ``np.add.at`` on numpy's
    fast loop.
    """
    r = np.asarray(rankings, dtype=np.int64)
    if r.ndim == 1:
        r = r[None, :]
    fact = perm_space(m).count
    counts = np.zeros((r.shape[0], fact))
    np.add.at(counts.reshape(-1), (r + np.arange(0, counts.size, fact)[:, None]).ravel(), 1.0)
    return counts


#: Where each scoring rule's scores start in a score table, after the m * m
#: margins, in units of m columns.
_SCORE_BLOCK = {"plurality": 0, "borda": 1, "antiplurality": 2}


def rule_scores(tag: str, table: np.ndarray, space: PermSpace) -> np.ndarray:
    """Scores of rule ``tag`` for every candidate of every batch row, from a score table.

    The scoring rules read their m columns of the table; Copeland scores,
    pairwise wins minus pairwise losses, are the signs of the margins
    summed per candidate.
    """
    m = space.m
    if tag == "copeland":
        return np.sign(table[:, : m * m]) @ space.row_sum
    start = m * m + m * _SCORE_BLOCK[tag]
    return table[:, start : start + m]


def winners_from_counts(
    rule: VotingRule, counts: np.ndarray, space: PermSpace, table: np.ndarray | None = None
) -> np.ndarray:
    """Winner of every batch row.

    ``table`` is the score table ``counts @ space.scores``; it is computed
    when not given.  Its entries are integers of magnitude at most
    n * (m - 1), so float64 holds them exactly.
    """
    if table is None:
        table = counts @ space.scores
    return np.argmax(rule_scores(rule.name, table, space), axis=1)


def apply_rule(rule: VotingRule, profile: Profile) -> int:
    """Winning candidate index for one profile."""
    counts = ranking_counts(profile.as_array()[None, :], profile.m)
    return int(winners_from_counts(rule, counts, perm_space(profile.m))[0])
