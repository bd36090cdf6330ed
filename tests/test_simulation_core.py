"""Profiles, rules, axiom predicates, and samplers, checked against
independent pure-Python re-derivations."""

import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiometer import ArityError, RangeError
from axiometer.simulation import (
    AxiomSpec,
    ImpartialCulture,
    Mallows,
    Profile,
    VotingRule,
    apply_rule,
    check_axiom,
)
from axiometer.simulation.axioms import PUNCTUAL_TAGS, EvaluatedProfiles, punctual_batch
from axiometer.simulation.preferences import RankingSampler, encode_rankings, perm_space
from axiometer.simulation.rules import ranking_counts

from conftest import add_at_counts, choice_draw, counter_counts

RULES = {tag: VotingRule(tag) for tag in ("plurality", "borda", "copeland", "antiplurality")}


# --- independent scalar re-implementations ----------------------------------


def naive_winner(tag: str, orders) -> int:
    m = len(orders[0])
    candidates = range(m)
    if tag == "plurality":
        scores = [sum(o[0] == c for o in orders) for c in candidates]
    elif tag == "borda":
        scores = [sum(m - 1 - o.index(c) for o in orders) for c in candidates]
    elif tag == "antiplurality":
        scores = [-sum(o[-1] == c for o in orders) for c in candidates]
    else:
        def beats(c, d):
            pro = sum(o.index(c) < o.index(d) for o in orders)
            return 1 if 2 * pro > len(orders) else (-1 if 2 * pro < len(orders) else 0)

        scores = [sum(beats(c, d) for d in candidates if d != c) for c in candidates]
    best = max(scores)
    return min(c for c in candidates if scores[c] == best)


def naive_condorcet_winner(orders):
    m = len(orders[0])
    n = len(orders)
    for c in range(m):
        if all(
            2 * sum(o.index(c) < o.index(d) for o in orders) > n
            for d in range(m)
            if d != c
        ):
            return c
    return None


def naive_avoids_condorcet_loser(orders, winner) -> bool:
    m, n = len(orders[0]), len(orders)
    return not all(
        2 * sum(o.index(winner) < o.index(d) for o in orders) < n
        for d in range(m)
        if d != winner
    )


def naive_pareto(orders, winner) -> bool:
    m = len(orders[0])
    return not any(
        all(o.index(d) < o.index(winner) for o in orders)
        for d in range(m)
        if d != winner
    )


def naive_predicate(predicate: str, orders, winner) -> bool:
    if predicate == "condorcet_consistency":
        cw = naive_condorcet_winner(orders)
        return cw is None or winner == cw
    if predicate == "majority_winner":
        tops = Counter(o[0] for o in orders)
        majors = [c for c, k in tops.items() if 2 * k > len(orders)]
        return not majors or winner == majors[0]
    if predicate == "condorcet_loser_avoidance":
        return naive_avoids_condorcet_loser(orders, winner)
    return naive_pareto(orders, winner)


def random_orders(rng, m, n):
    return [tuple(rng.permutation(m).tolist()) for _ in range(n)]


class TestProfiles:
    def test_encoding_roundtrip(self):
        for m in (3, 4, 5):
            perms = list(permutations(range(m)))
            idx = encode_rankings(np.array(perms))
            np.testing.assert_array_equal(idx, np.arange(math.factorial(m)))

    def test_from_orders_and_back(self):
        prof = Profile.from_orders([(2, 0, 1), (0, 1, 2), (1, 2, 0)])
        assert prof.order(0) == (2, 0, 1)
        assert prof.order(2) == (1, 2, 0)

    def test_bounds(self):
        with pytest.raises(RangeError):
            Profile.from_orders([(0, 1)])  # m = 2 too small
        with pytest.raises(RangeError):
            Profile(m=3, n=0, rankings=())
        with pytest.raises(RangeError):
            Profile(m=3, n=1, rankings=(6,))


class TestRules:
    def test_unanimous_profile_all_rules(self):
        prof = Profile.from_orders([(0, 1, 2)] * 3)
        for rule in RULES.values():
            assert apply_rule(rule, prof) == 0

    def test_plurality_three_way_tie_breaks_low(self):
        prof = Profile.from_orders([(0, 1, 2), (1, 2, 0), (2, 1, 0)])
        assert apply_rule(RULES["plurality"], prof) == 0

    def test_copeland_on_cycle_breaks_low(self):
        prof = Profile.from_orders([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert apply_rule(RULES["copeland"], prof) == 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(RangeError):
            VotingRule("approval")

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_matches_naive_winner_on_random_profiles(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            orders = random_orders(rng, m, n)
            prof = Profile.from_orders(orders)
            for tag, rule in RULES.items():
                assert apply_rule(rule, prof) == naive_winner(tag, orders), (tag, orders)


class TestPunctualAxioms:
    def test_condorcet_vacuous_on_cycle(self):
        prof = Profile.from_orders([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        ax = AxiomSpec.builtin("condorcet_consistency")
        for rule in RULES.values():
            assert check_axiom(ax, rule, [prof])

    def test_majority_winner_satisfied_by_plurality(self):
        prof = Profile.from_orders([(2, 0, 1), (2, 1, 0), (0, 1, 2)])
        assert check_axiom(AxiomSpec.builtin("majority_winner"), RULES["plurality"], [prof])

    def test_borda_can_fail_majority(self):
        orders = [(0, 1, 2)] * 3 + [(1, 2, 0)] * 2
        prof = Profile.from_orders(orders)
        assert apply_rule(RULES["borda"], prof) == 1
        assert not check_axiom(AxiomSpec.builtin("majority_winner"), RULES["borda"], [prof])

    def test_plurality_can_select_condorcet_loser(self):
        ax = AxiomSpec.builtin("condorcet_loser_avoidance")
        clean = Profile.from_orders([(0, 1, 2)] * 3)
        assert check_axiom(ax, RULES["plurality"], [clean])
        # candidate 0 tops 3 of 7 ballots (a strict plurality win) but is
        # ranked last by the other 4, losing both pairwise contests 3-4
        orders = [(0, 1, 2), (0, 1, 2), (0, 2, 1),
                  (1, 2, 0), (1, 2, 0), (2, 1, 0), (2, 1, 0)]
        prof = Profile.from_orders(orders)
        assert apply_rule(RULES["plurality"], prof) == 0
        assert not check_axiom(ax, RULES["plurality"], [prof])

    def test_antiplurality_elects_dominated_candidate_through_tie_break(self):
        # 0 and 1 both avoid last place on every ballot, so the tie-break
        # picks 0 even though every voter prefers 1
        prof = Profile.from_orders([(1, 0, 2)] * 3)
        anti = RULES["antiplurality"]
        assert apply_rule(anti, prof) == 0
        assert not check_axiom(AxiomSpec.builtin("pareto"), anti, [prof])

    @pytest.mark.parametrize(
        "tag", ["condorcet_consistency", "majority_winner", "condorcet_loser_avoidance", "pareto"]
    )
    def test_matches_naive_predicate_on_random_profiles(self, tag):
        rng = np.random.default_rng(hash(tag) % 2**32)
        ax = AxiomSpec.builtin(tag)
        for _ in range(80):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(1, 9))
            orders = random_orders(rng, m, n)
            prof = Profile.from_orders(orders)
            for rule_tag, rule in RULES.items():
                expected = naive_predicate(tag, orders, naive_winner(rule_tag, orders))
                assert check_axiom(ax, rule, [prof]) == expected, (rule_tag, orders)


def plurality_elects_condorcet_loser(rng, m, n):
    """Orders under which plurality elects 0, a Condorcet loser: 0 tops just
    under half of the ballots and is last on all others, whose tops the other
    candidates share."""
    lead = (n - 1) // 2
    orders = []
    for v in range(n):
        if v < lead:
            orders.append((0, *(rng.permutation(m - 1) + 1).tolist()))
        else:
            top = 1 + v % (m - 1)
            rest = [c for c in rng.permutation(m).tolist() if c not in (0, top)]
            orders.append((top, *rest, 0))
    return orders


def antiplurality_elects_dominated(rng, m, n):
    """Orders under which antiplurality elects 0 through the tie-break while
    every voter ranks 1 above it."""
    return [(1, 0, *(rng.permutation(m - 2) + 2).tolist()) for _ in range(n)]


def borda_passes_over_majority(rng, m, n):
    """Orders under which 0 tops a bare majority of the ballots, and so is
    the Condorcet winner, but Borda elects 1 for n >= 5: 1 is second on the
    majority's ballots and first on all others, where 0 is last."""
    orders = []
    for v in range(n):
        rest = (rng.permutation(m - 2) + 2).tolist()
        orders.append((0, 1, *rest) if v <= n // 2 else (1, *rest, 0))
    return orders


def plurality_passes_over_condorcet_winner(rng, m, n):
    """Orders under which 0 tops a third of the ballots and is second on all
    others, whose tops 1 and 2 share, 1 on one ballot more than 0.  For
    n = 7 and n = 50, 0 is the Condorcet winner and plurality elects 1."""
    a = n // 3
    orders = []
    for v in range(n):
        top = 0 if v < a else 1 if v <= 2 * a else 2
        rest = [d for d in rng.permutation(m).tolist() if d not in (0, top)]
        orders.append((0, *rest) if top == 0 else (top, 0, *rest))
    return orders


PLANTED = {
    # (rule, predicate) -> the planted orders on which the rule fails it
    ("plurality", "condorcet_loser_avoidance"): plurality_elects_condorcet_loser,
    ("antiplurality", "pareto"): antiplurality_elects_dominated,
    ("borda", "majority_winner"): borda_passes_over_majority,
    ("borda", "condorcet_consistency"): borda_passes_over_majority,
    ("plurality", "condorcet_consistency"): plurality_passes_over_condorcet_winner,
}
PLANTERS = list(dict.fromkeys(PLANTED.values()))


class TestPredicatesAtWinner:
    """Winners and every punctual predicate, read off one score table per
    block, must equal the scalar rules and predicates on every row."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 50])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_planted_block_matches_scalar_predicates(self, m, n):
        # even n gives pairwise ties (margin 0) and ties at n / 2 first places
        rng = np.random.default_rng(10 * m + n)
        rows = 12
        block = [planter(rng, m, n) for planter in PLANTERS for _ in range(rows)]
        block += [random_orders(rng, m, n) for _ in range(rows)]
        rankings = np.array([encode_rankings(np.array(orders)) for orders in block])
        for tag, rule in RULES.items():
            ev = EvaluatedProfiles(rule, rankings, m, n)
            winners = [naive_winner(tag, orders) for orders in block]
            assert ev.winners.tolist() == winners, tag
            for predicate in PUNCTUAL_TAGS:
                got = punctual_batch(predicate, ev)
                assert got.dtype == bool and got.shape == (len(block),)
                expected = [naive_predicate(predicate, o, w) for o, w in zip(block, winners)]
                assert got.tolist() == expected, (tag, predicate)
                if (tag, predicate) in PLANTED and n >= 7:
                    at = PLANTERS.index(PLANTED[tag, predicate]) * rows
                    assert not got[at : at + rows].any(), (tag, predicate)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_empty_batch(self, m):
        for rule in RULES.values():
            ev = EvaluatedProfiles(rule, np.zeros((0, 4), dtype=np.int64), m, 4)
            assert ev.winners.shape == (0,)
            for predicate in PUNCTUAL_TAGS:
                got = punctual_batch(predicate, ev)
                assert got.dtype == bool and got.shape == (0,), predicate


    def test_copeland_block_scores_once(self, monkeypatch):
        # the winners and both Condorcet predicates read one Copeland score array
        from axiometer.simulation import axioms as axioms_module
        from axiometer.simulation import rules as rules_module
        from axiometer.simulation.rules import rule_scores, winners_from_counts

        m, n, rows = 4, 15, 4096
        rng = np.random.default_rng(415)
        rankings = Mallows(0.8, tuple(range(m))).sample(rng, m, (rows, n))
        calls = []
        for module in (axioms_module, rules_module):
            monkeypatch.setattr(
                module, "rule_scores", lambda tag, *a: calls.append(tag) or rule_scores(tag, *a)
            )
        ev = EvaluatedProfiles(RULES["copeland"], rankings, m, n)
        got = {p: punctual_batch(p, ev) for p in ("condorcet_consistency", "condorcet_loser_avoidance")}
        assert calls == ["copeland"]
        monkeypatch.undo()
        generic = winners_from_counts(RULES["copeland"], ev.counts, ev.space)
        assert ev.winners.tolist() == generic.tolist()
        orders = perm_space(m).perms[rankings[:256]].tolist()
        winners = [naive_winner("copeland", o) for o in orders]
        assert ev.winners[:256].tolist() == winners
        for predicate, truth in got.items():
            expected = [naive_predicate(predicate, o, w) for o, w in zip(orders, winners)]
            assert truth[:256].tolist() == expected, predicate


class TestScoreTable:
    """Each row of ``perm_space(m).scores`` against a scalar build from the
    ranking it stands for."""

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_rows_equal_scalar_build(self, m):
        space = perm_space(m)
        assert space.scores.shape == (math.factorial(m), m * m + 3 * m)
        for k, order in enumerate(space.perms.tolist()):
            pos = order.index
            margins = [
                (pos(c) < pos(d)) - (pos(c) > pos(d)) for c in range(m) for d in range(m)
            ]
            first = [int(order[0] == c) for c in range(m)]
            borda = [m - 1 - pos(c) for c in range(m)]
            last_neg = [-int(order[-1] == c) for c in range(m)]
            assert space.scores[k].tolist() == margins + first + borda + last_neg, order

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_read_only(self, m):
        space = perm_space(m)
        for arr in (space.scores, space.row_sum, space.ones):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            space.scores[0, 0] = 2.0


class TestRankingCounts:
    """The flat-index ballot count against the 2-D ``np.add.at`` reference and
    a per-row ``Counter`` oracle, under ==."""

    @pytest.mark.parametrize("batch", [0, 1, 4097])
    @pytest.mark.parametrize("n", [1, 3, 50])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_equals_references(self, m, n, batch):
        fact = math.factorial(m)
        rankings = np.random.default_rng(100 * m + n).integers(0, fact, (batch, n))
        got = ranking_counts(rankings, m)
        assert got.dtype == np.float64 and got.shape == (batch, fact)
        np.testing.assert_array_equal(got, add_at_counts(rankings, m))
        if batch * n <= 5000:
            np.testing.assert_array_equal(got, counter_counts(rankings, m))

    def test_one_dimensional_input_is_one_row(self):
        rankings = np.random.default_rng(7).integers(0, 24, 30)
        got = ranking_counts(rankings, 4)
        assert got.shape == (1, 24)
        np.testing.assert_array_equal(got, add_at_counts(rankings, 4))
        np.testing.assert_array_equal(got, counter_counts(rankings, 4))

    def test_strided_view(self):
        # the first profile of a (B, 2, n) tuple block, as estimation passes it
        tuples = np.random.default_rng(8).integers(0, 120, (257, 2, 50))
        first = tuples[:, 0, :]
        assert not first.flags.c_contiguous
        got = ranking_counts(first, 5)
        np.testing.assert_array_equal(got, add_at_counts(first, 5))
        np.testing.assert_array_equal(got, counter_counts(first, 5))


def raise_candidate(order, candidate):
    pos = order.index(candidate)
    if pos == 0:
        return None
    lifted = list(order)
    lifted[pos - 1], lifted[pos] = lifted[pos], lifted[pos - 1]
    return tuple(lifted)


class TestRelationalAxioms:
    def test_no_deviation_is_vacuous(self):
        prof = Profile.from_orders([(0, 1, 2), (1, 0, 2)])
        ax = AxiomSpec.builtin("strategyproof_pair")
        assert check_axiom(ax, RULES["plurality"], [prof, prof])

    def test_arity_checked(self):
        prof = Profile.from_orders([(0, 1, 2)])
        with pytest.raises(ArityError):
            check_axiom(AxiomSpec.builtin("strategyproof_pair"), RULES["plurality"], [prof])

    def test_profitable_manipulation_detected(self):
        # sincere: plurality tie broken for 0; voter 2 (prefers 1 over 0)
        # switches from (1,2,0) to (2,1,0)... build a concrete gain instead
        sincere = [(0, 1, 2), (1, 0, 2), (2, 1, 0)]
        prof1 = Profile.from_orders(sincere)
        assert apply_rule(RULES["plurality"], prof1) == 0
        # the third voter joins candidate 1: winner becomes 1, which she
        # prefers to 0 under her sincere ranking -> violation
        prof2 = Profile.from_orders([(0, 1, 2), (1, 0, 2), (1, 2, 0)])
        assert apply_rule(RULES["plurality"], prof2) == 1
        ax = AxiomSpec.builtin("strategyproof_pair")
        assert not check_axiom(ax, RULES["plurality"], [prof1, prof2])

    def test_unprofitable_deviation_ok(self):
        prof1 = Profile.from_orders([(0, 1, 2), (1, 0, 2), (2, 1, 0)])
        prof2 = Profile.from_orders([(0, 1, 2), (1, 0, 2), (2, 0, 1)])
        ax = AxiomSpec.builtin("strategyproof_pair")
        assert check_axiom(ax, RULES["plurality"], [prof1, prof2])

    def test_monotonicity_related_pair(self):
        orders = [(1, 0, 2), (0, 1, 2), (2, 1, 0)]
        prof1 = Profile.from_orders(orders)
        winner = apply_rule(RULES["borda"], prof1)
        lifted = raise_candidate(orders[2], winner)
        assert lifted is not None
        prof2 = Profile.from_orders(orders[:2] + [lifted])
        ax = AxiomSpec.builtin("monotonicity_pair")
        assert check_axiom(ax, RULES["borda"], [prof1, prof2]) == (
            apply_rule(RULES["borda"], prof2) == winner
        )

    def test_monotonicity_vacuous_when_unrelated(self):
        prof1 = Profile.from_orders([(0, 1, 2), (1, 2, 0)])
        prof2 = Profile.from_orders([(2, 1, 0), (0, 1, 2)])  # two voters changed
        ax = AxiomSpec.builtin("monotonicity_pair")
        assert check_axiom(ax, RULES["plurality"], [prof1, prof2])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_relational_vacuity_on_random_unrelated_pairs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 6))
        n = int(rng.integers(2, 8))
        first = random_orders(rng, m, n)
        second = random_orders(rng, m, n)
        differing = sum(a != b for a, b in zip(first, second))
        prof1, prof2 = Profile.from_orders(first), Profile.from_orders(second)
        for tag in ("strategyproof_pair", "monotonicity_pair"):
            ax = AxiomSpec.builtin(tag)
            for rule in RULES.values():
                if differing != 1:
                    assert check_axiom(ax, rule, [prof1, prof2])

    def test_strategyproof_matches_naive_on_one_deviator_pairs(self):
        rng = np.random.default_rng(301)
        ax = AxiomSpec.builtin("strategyproof_pair")
        for _ in range(150):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(1, 8))
            sincere = random_orders(rng, m, n)
            voter = int(rng.integers(0, n))
            deviated = list(sincere)
            deviated[voter] = tuple(rng.permutation(m).tolist())
            prof1 = Profile.from_orders(sincere)
            prof2 = Profile.from_orders(deviated)
            for tag, rule in RULES.items():
                got = check_axiom(ax, rule, [prof1, prof2])
                if deviated[voter] == sincere[voter]:
                    expected = True
                else:
                    w1 = naive_winner(tag, sincere)
                    w2 = naive_winner(tag, deviated)
                    expected = not sincere[voter].index(w2) < sincere[voter].index(w1)
                assert got == expected


class TestSamplers:
    def test_impartial_culture_pmf_uniform(self):
        pmf = ImpartialCulture().ranking_pmf(4)
        np.testing.assert_allclose(pmf, np.full(24, 1 / 24))

    def test_mallows_pmf_proportional_to_distance(self):
        phi, sigma = 0.6, (1, 0, 2)
        pmf = Mallows(phi, sigma).ranking_pmf(3)
        space = perm_space(3)
        for k, perm in enumerate(space.perms.tolist()):
            tau = sum(
                1
                for i in range(3)
                for j in range(i + 1, 3)
                if perm.index(sigma[i]) > perm.index(sigma[j])
            )
            assert pmf[k] == pytest.approx(
                phi**tau * (1 - phi) ** 3 / ((1 - phi) * (1 - phi**2) * (1 - phi**3))
            )

    def test_mallows_phi_one_is_uniform_pmf(self):
        np.testing.assert_allclose(
            Mallows(1.0, (0, 1, 2)).ranking_pmf(3), np.full(6, 1 / 6)
        )

    def test_mallows_parameter_validation(self):
        with pytest.raises(RangeError):
            Mallows(0.0, (0, 1, 2))
        with pytest.raises(RangeError):
            Mallows(1.2, (0, 1, 2))
        with pytest.raises(RangeError):
            Mallows(0.5, (0, 0, 2))

    def test_sampling_is_deterministic_given_seed(self):
        sampler = Mallows(0.7, (2, 1, 0))
        a = sampler.sample(np.random.default_rng(5), 3, (50, 2))
        b = sampler.sample(np.random.default_rng(5), 3, (50, 2))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m,phi", [(3, 0.5), (4, 0.8), (5, 0.8)])
    def test_mallows_sampler_matches_pmf(self, m, phi):
        # chi-square of Mallows samples against the closed form
        from scipy import stats

        sampler = Mallows(phi, tuple(range(m))[::-1])
        draws = sampler.sample(np.random.default_rng(12), m, (50_000,))
        counts = np.bincount(draws, minlength=math.factorial(m))
        expected = sampler.ranking_pmf(m) * draws.shape[0]
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("m", [3, 5])
    def test_uniform_pmf_draws_the_integers_stream(self, m):
        shape = (40, 2, 7)
        ic = ImpartialCulture().sample(np.random.default_rng(21), m, shape)
        flat = Mallows(1.0, tuple(range(m))).sample(np.random.default_rng(21), m, shape)
        ref = np.random.default_rng(21).integers(0, math.factorial(m), shape, dtype=np.int64)
        np.testing.assert_array_equal(ic, ref)
        np.testing.assert_array_equal(flat, ref)
        assert ic.dtype == flat.dtype == np.int64

    def test_mallows_phi_one_matches_impartial_culture_distribution(self):
        from scipy import stats

        draws = Mallows(1.0, (0, 1, 2)).sample(np.random.default_rng(99), 3, (100_000,))
        counts = np.bincount(draws, minlength=6)
        result = stats.chisquare(counts, np.full(6, counts.sum() / 6))
        assert result.pvalue > 0.001


class FixedPmf(RankingSampler):
    """A subclass whose ``ranking_pmf`` is whatever array it is given."""

    def __init__(self, pmf):
        self.pmf = pmf

    def ranking_pmf(self, m: int):
        return self.pmf


def assert_same_draws(sampler, m, shape, seed):
    """``sampler.sample`` equals the Generator.choice reference under ==, with
    the same dtype, and leaves the generator in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sampler.sample(rng, m, shape)
    ref = choice_draw(sampler.ranking_pmf(m), ref_rng, shape)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert (got == ref).all()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: Weights for random pmfs: zeros, tied entries, entries below one guide
#: cell (1/4096) and ordinary ones.
PMF_WEIGHTS = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 3.0]),
    st.floats(1e-300, 1.0 / 8192),
    st.floats(0.01, 1.0),
)


class TestGuideTable:
    """Mallows draws through the guide table equal Generator.choice(p=pmf)."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (50, 2), (65536, 2, 15)])
    @pytest.mark.parametrize("phi", [1e-300, 0.05, 0.5, 0.8, 0.999])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_mallows_equals_choice(self, m, phi, shape):
        # phi = 1e-300 underflows most of the pmf to 0, so its CDF is flat
        sampler = Mallows(phi, tuple(range(m))[::-1])
        assert_same_draws(sampler, m, shape, seed=m * 1000 + len(shape))

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(PMF_WEIGHTS, min_size=2, max_size=120),
        dominant=st.one_of(st.none(), st.integers(0, 119)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_pmf_equals_choice(self, weights, dominant, seed):
        w = np.array(weights)
        if dominant is not None:
            # one entry holds almost all the mass
            w[dominant % w.size] = 1e9 * max(w.sum(), 1.0)
        if w.sum() == 0.0:
            w[0] = 1.0
        assert_same_draws(FixedPmf(w / w.sum()), 3, (4000,), seed)

    @pytest.mark.parametrize(
        "pmf",
        [
            np.array([0.5, 0.25, 0.25 + 1e-9]),
            # choice widens the sum tolerance to the pmf dtype's sqrt(eps)
            np.array([0.2, 0.3, 0.5001], dtype=np.float32),
        ],
        ids=["float64", "float32"],
    )
    def test_sum_within_tolerance_is_accepted(self, pmf):
        assert_same_draws(FixedPmf(pmf), 3, (1000,), 8)

    @pytest.mark.parametrize(
        "pmf,message",
        [
            (np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.1]]), "1-dimensional"),
            (np.array([0.5, np.nan, 0.5]), "contain NaN"),
            (np.array([np.inf, 0.5, 0.5]), "contain NaN"),
            (np.array([1.5, -0.5, 0.0]), "not non-negative"),
            (np.array([0.5, 0.25, 0.25 + 1e-7]), "do not sum to 1"),
        ],
        ids=["2d", "nan", "inf", "negative", "sum"],
    )
    def test_bad_pmf_raises_what_choice_raises(self, pmf, message):
        # the same ValueError as Generator.choice, before any draw is spent
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"(?i){message}"):
            FixedPmf(pmf).sample(rng, 3, (10,))
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match=f"(?i){message}"):
            choice_draw(pmf, np.random.default_rng(4), (10,))

    def test_uniform_pmf_is_checked_too(self):
        # choice_draw's uniform branch never looked at the sum
        with pytest.raises(ValueError, match="(?i)do not sum to 1"):
            FixedPmf(np.full(6, 1.0)).sample(np.random.default_rng(4), 3, (10,))

    def test_uniforms_on_a_cdf_step_take_the_next_ranking(self):
        # searchsorted(side="right"): a uniform equal to a CDF value is past
        # that step, also where zero-probability rankings repeat it.  The pmf
        # is dyadic, so its CDF is exact; one step (3/8192 past 1/4) falls
        # inside a guide cell, the others on cell edges.
        pmf = np.array([0.25, 0.0, 3 / 8192, 0.25 - 3 / 8192, 0.125, 0.0, 0.375])
        cdf = pmf.cumsum()
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0),
                            np.arange(0, 4096, 256) / 4096, [1 - 2**-53]])

        class FixedUniforms:
            def random(self, shape):
                return u.reshape(shape).copy()

        got = FixedPmf(pmf).sample(FixedUniforms(), 3, u.shape)
        np.testing.assert_array_equal(got, cdf.searchsorted(u, side="right"))
