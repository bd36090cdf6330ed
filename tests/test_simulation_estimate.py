"""Monte Carlo estimation against exact enumeration, and dominance checks."""

import functools
import itertools
import json
import math
import platform
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import axiometer.simulation.axioms as axioms_module
import axiometer.simulation.estimate as estimate_module
from axiometer import is_member, perf_moebius
from axiometer.errors import ParseError, RangeError, SizeError
from axiometer.simulation import (
    AxiomSpec,
    ImpartialCulture,
    Mallows,
    Profile,
    VotingRule,
    check_axiom,
    dominance_check,
    enumerate_collection,
    estimate_collection,
    estimated_from_json,
    estimated_to_json,
    experiment_from_json,
    run_experiment,
)

from axiometer.simulation.preferences import perm_space
from axiometer.simulation.rules import RULE_TAGS, ranking_counts, winners_from_counts

from conftest import ChoiceSampler, full_pair_worlds, random_capacity

PLURALITY = VotingRule("plurality")
COPELAND = VotingRule("copeland")
BORDA = VotingRule("borda")

PUNCTUAL_PAIR = [
    AxiomSpec.builtin("condorcet_consistency"),
    AxiomSpec.builtin("majority_winner"),
]
MIXED_TRIPLE = PUNCTUAL_PAIR + [AxiomSpec.builtin("strategyproof_pair")]
# the relational axioms on the lowest and the highest bit
SIX_AXIOMS = [AxiomSpec.builtin(tag) for tag in (
    "monotonicity_pair", "condorcet_consistency", "majority_winner",
    "condorcet_loser_avoidance", "pareto", "strategyproof_pair",
)]

#: The six built-in axioms in the order of the benchmark's experiments.
BENCH_AXIOMS = [AxiomSpec.builtin(tag) for tag in (
    "condorcet_consistency", "majority_winner", "condorcet_loser_avoidance", "pareto",
    "monotonicity_pair", "strategyproof_pair",
)]


def all_profiles(m, n):
    space = list(itertools.product(range(math.factorial(m)), repeat=n))
    return [Profile(m=m, n=n, rankings=r) for r in space]


def scalar_world_masses(rule, axioms, m, n, sampler):
    """World -> (tuple count, tuple mass) from check_axiom on every tuple of profiles."""
    pmf = sampler.ranking_pmf(m)
    width = max(ax.arity for ax in axioms)
    counts, masses = np.zeros(1 << len(axioms), dtype=np.int64), np.zeros(1 << len(axioms))
    for tup in itertools.product(all_profiles(m, n), repeat=width):
        world = sum(check_axiom(ax, rule, list(tup)) << b for b, ax in enumerate(axioms))
        counts[world] += 1
        masses[world] += np.prod([pmf[r] for prof in tup for r in prof.rankings])
    return counts, masses


def superset_sums(worlds):
    """Subset S -> total over the worlds that contain S, summed in Python."""
    masks = range(len(worlds))
    return [sum(worlds[w] for w in masks if s & ~w == 0) for s in masks]


class TestEstimate:
    def test_single_sample_is_zero_one_and_feasible(self):
        est = estimate_collection(PLURALITY, MIXED_TRIPLE, ImpartialCulture(), 3, 3, 1, 7)
        assert set(np.unique(est.collection.p[1:])) <= {0.0, 1.0}
        assert is_member(est.collection).feasible

    def test_copeland_satisfies_condorcet_always(self):
        axioms = [AxiomSpec.builtin("condorcet_consistency")]
        est = estimate_collection(COPELAND, axioms, ImpartialCulture(), 3, 5, 4000, 11)
        assert est.collection.p[1] == 1.0

    def test_estimates_are_feasible(self):
        rng_seeds = [1, 2, 3]
        for seed in rng_seeds:
            est = estimate_collection(
                BORDA, MIXED_TRIPLE, Mallows(0.8, (0, 1, 2)), 3, 4, 5000, seed
            )
            assert is_member(est.collection, tol=1e-9).feasible

    def test_full_six_axiom_battery(self):
        battery = [
            AxiomSpec.builtin(tag)
            for tag in (
                "condorcet_consistency",
                "majority_winner",
                "condorcet_loser_avoidance",
                "pareto",
                "monotonicity_pair",
                "strategyproof_pair",
            )
        ]
        est = estimate_collection(BORDA, battery, ImpartialCulture(), 3, 3, 3000, 31)
        assert est.collection.axioms.size == 6
        assert is_member(est.collection).feasible
        # monotonicity holds surely, so it cannot shrink any joint probability
        mono_bit = 1 << 4
        p = est.collection.p
        for mask in range(1, 64):
            if not mask & mono_bit:
                assert p[mask | mono_bit] == pytest.approx(p[mask], abs=1e-12)

    def test_deterministic_and_chunking_invariant(self, monkeypatch):
        kwargs = dict(rule=PLURALITY, axioms=MIXED_TRIPLE, sampler=ImpartialCulture(),
                      m=3, n=3, n_samples=4321, seed=99)
        a = estimate_collection(**kwargs)
        b = estimate_collection(**kwargs)
        monkeypatch.setattr(estimate_module, "CHUNK_TUPLES", 100)
        c = estimate_collection(**kwargs)
        np.testing.assert_array_equal(a.collection.p, b.collection.p)
        np.testing.assert_array_equal(a.collection.p, c.collection.p)
        np.testing.assert_array_equal(a.world_counts, c.world_counts)

    def test_runs_on_the_calling_thread_whatever_the_environment(self, monkeypatch):
        # older versions started a thread pool when this variable was set
        def refuse(self):
            raise AssertionError("estimate_collection started a thread")

        monkeypatch.setenv("AXIOMETER_THREADS", "2")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        est = estimate_collection(PLURALITY, MIXED_TRIPLE, ImpartialCulture(), 3, 3, 64, 5)
        assert est.world_counts.sum() == 64

    def test_counts_consistent_with_probabilities(self):
        est = estimate_collection(PLURALITY, PUNCTUAL_PAIR, ImpartialCulture(), 3, 3, 1500, 3)
        assert est.world_counts.sum() == 1500
        np.testing.assert_allclose(est.subset_counts / 1500, est.collection.p)
        np.testing.assert_allclose(
            est.stderr,
            np.sqrt(est.collection.p * (1 - est.collection.p) / 1500),
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "rule,m,n,n_samples",
        [(COPELAND, 4, 15, 100_000), (BORDA, 5, 50, 25_000), (COPELAND, 3, 4, 100_000)],
        ids=["copeland_m4_n15", "borda_m5_n50", "copeland_m3_n4"],
    )
    def test_mallows_counts_equal_the_choice_reference(self, rule, m, n, n_samples, seed):
        # the benchmark's Mallows experiments: phi 0.8, identity reference, all six axioms
        sampler = Mallows(0.8, tuple(range(m)))
        got = estimate_collection(rule, BENCH_AXIOMS, sampler, m, n, n_samples, seed)
        ref = estimate_collection(rule, BENCH_AXIOMS, ChoiceSampler(sampler), m, n,
                                  n_samples, seed)
        np.testing.assert_array_equal(got.subset_counts, ref.subset_counts)

    @pytest.mark.parametrize(
        "rule,m,n,sampler",
        [(BORDA, 5, 50, ImpartialCulture()), (BORDA, 5, 50, Mallows(0.8, tuple(range(5)))),
         (COPELAND, 4, 15, Mallows(0.8, tuple(range(4))))],
        ids=["borda_m5_n50_ic", "borda_m5_n50_mallows", "copeland_m4_n15_mallows"],
    )
    def test_block_size_changes_no_count(self, rule, m, n, sampler, monkeypatch):
        # 9000 tuples leave the last block partial at every block size
        counts = []
        for chunk_tuples in (1 << 16, 1 << 12, 1000):
            monkeypatch.setattr(estimate_module, "CHUNK_TUPLES", chunk_tuples)
            est = estimate_collection(rule, BENCH_AXIOMS, sampler, m, n, 9000, 23)
            counts.append(est.subset_counts)
        for other in counts[1:]:
            np.testing.assert_array_equal(other, counts[0])

    @pytest.mark.parametrize("sampler", [ImpartialCulture(), Mallows(0.8, tuple(range(5)))],
                             ids=["ic", "mallows"])
    def test_memory_is_bounded_by_the_block_not_by_the_sample_count(self, sampler):
        peaks = []
        for blocks in (3, 6):
            n_samples = blocks * estimate_module.CHUNK_TUPLES
            tracemalloc.start()
            try:
                estimate_collection(BORDA, BENCH_AXIOMS, sampler, 5, 50, n_samples, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 * 2**20, peaks
        assert max(peaks) <= 1.1 * min(peaks), peaks

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's trim threshold")
    def test_small_blocks_reuse_their_heap_pages(self):
        # a fresh interpreter, as a CLI run has: the 25 blocks of N = 1e5 at m = 3
        # must not page-fault their arrays anew each time (about 6,000 faults)
        code = (
            "import resource\n"
            "from axiometer.simulation import AxiomSpec, ImpartialCulture, VotingRule, estimate_collection\n"
            "axioms = [AxiomSpec.builtin(t) for t in "
            "('condorcet_consistency', 'majority_winner', 'strategyproof_pair')]\n"
            "args = (VotingRule('plurality'), axioms, ImpartialCulture(), 3, 3, 100_000, 42)\n"
            "estimate_collection(*args)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "estimate_collection(*args)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": str(src)})
        assert int(run.stdout) < 1000, run.stdout

    def test_bad_sample_count(self):
        # beyond 2**53 the subset counts are inexact; refused before any draw
        for n_samples in (0, 2**53 + 1):
            with pytest.raises(RangeError):
                estimate_collection(PLURALITY, PUNCTUAL_PAIR, ImpartialCulture(), 3, 3,
                                    n_samples, 1)


def one_deviator(rankings):
    """Rows of a (B, 2, n) ranking array whose two profiles differ in exactly one voter."""
    return (rankings[:, 0] != rankings[:, 1]).sum(axis=1) == 1


def planted_block(rule, sampler, m, n, kind, seed, rows=240):
    """(rows, 2, n) sampled rankings with planted one-voter deviations, and the raised rows.

    ``related``: every second profile is the first with one voter switched;
    in even rows that voter raises the first profile's winner by one
    adjacent swap (where it is not on top already), which makes the pair
    related for ``monotonicity_pair``.  ``mixed``: a third of the rows keep
    their i.i.d. second profile and the rest are deviations as above.
    ``unrelated``: i.i.d. pairs, with the second profile of every pair that
    happens to differ in one voter replaced by a copy of the first.
    """
    rng = np.random.default_rng(seed)
    rankings = np.array(sampler.sample(rng, m, (rows, 2, n)), dtype=np.int64)
    first = rankings[:, 0]
    if kind == "unrelated":
        related = one_deviator(rankings)
        rankings[related, 1] = first[related]
        return rankings, np.zeros(rows, dtype=bool)
    space = perm_space(m)
    winners = winners_from_counts(rule, ranking_counts(first, m), space)
    row = np.arange(rows)
    voter = rng.integers(0, n, rows)
    before = first[row, voter]
    lifted = space.raise_up[before, winners]
    raise_winner = (row % 2 == 0) & (lifted >= 0)
    other = (before + rng.integers(1, space.count, rows)) % space.count
    deviated = first.copy()
    deviated[row, voter] = np.where(raise_winner, lifted, other)
    chosen = row % 3 != 0 if kind == "mixed" else row >= 0
    rankings[chosen, 1] = deviated[chosen]
    return rankings, chosen & raise_winner


class TestWorlds:
    """Monte Carlo worlds scored from one-voter deviations only, against every pair scored."""

    @pytest.mark.parametrize("kind", ["related", "mixed", "unrelated"])
    @pytest.mark.parametrize("phi", [None, 0.5], ids=["ic", "mallows"])
    @pytest.mark.parametrize("n", [1, 3, 50])
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("tag", RULE_TAGS)
    def test_equals_full_pair_evaluation(self, tag, m, n, phi, kind):
        rule = VotingRule(tag)
        sampler = ImpartialCulture() if phi is None else Mallows(phi, tuple(range(m)))
        rankings, raised = planted_block(rule, sampler, m, n, kind, seed=1000 * m + n)
        related = one_deviator(rankings)
        if kind == "related":
            assert related.all()
        if kind == "unrelated":
            assert not related.any()
        else:
            # a lone voter's top candidate wins under all rules but antiplurality
            assert raised.any() or (n == 1 and tag != "antiplurality")
        worlds = estimate_module._worlds(rule, SIX_AXIOMS, rankings, m, n)
        np.testing.assert_array_equal(worlds, full_pair_worlds(rule, SIX_AXIOMS, rankings, m, n))

    def test_block_counts_ballots_of_the_first_profile_only(self, monkeypatch):
        # the second profile of a pair is scored from the first one's counts,
        # and only where one voter deviates
        counted, scored = [], []

        def counting(rankings, m):
            counted.append(len(rankings))
            return ranking_counts(rankings, m)

        def scoring(rule, counts, *rest):
            scored.append(len(counts))
            return winners_from_counts(rule, counts, *rest)

        monkeypatch.setattr(axioms_module, "ranking_counts", counting)
        monkeypatch.setattr(axioms_module, "winners_from_counts", scoring)
        block, seed = 3000, 17
        estimate_collection(PLURALITY, MIXED_TRIPLE, ImpartialCulture(), 3, 3, block, seed)
        draws = ImpartialCulture().sample(np.random.default_rng(seed), 3, (block, 2, 3))
        related = int(one_deviator(draws).sum())
        assert 0 < related < block
        assert counted == [block]
        assert scored == [block, related]


class TestEnumerate:
    def test_single_voter_pareto_is_sure(self):
        axioms = [AxiomSpec.builtin("pareto")]
        for rule in (PLURALITY, BORDA):
            c = enumerate_collection(rule, axioms, 3, 1)
            assert c.p[1] == pytest.approx(1.0)

    def test_copeland_condorcet_exactly_one_on_full_sweep(self):
        c = enumerate_collection(COPELAND, [AxiomSpec.builtin("condorcet_consistency")], 3, 3)
        assert c.p[1] == 1.0

    def test_every_rule_is_monotone_over_the_full_pair_sweep(self):
        # raising the winner one slot never unseats it under any built-in
        # rule, so the relational predicate must enumerate to exactly 1
        mono = [AxiomSpec.builtin("monotonicity_pair")]
        for tag in ("plurality", "borda", "copeland", "antiplurality"):
            c = enumerate_collection(VotingRule(tag), mono, 3, 3)
            assert c.p[1] == 1.0, tag

    def test_score_rules_never_violate_pareto_but_antiplurality_does(self):
        pareto = [AxiomSpec.builtin("pareto")]
        for tag in ("plurality", "borda", "copeland"):
            c = enumerate_collection(VotingRule(tag), pareto, 3, 3)
            assert c.p[1] == 1.0, tag
        c = enumerate_collection(VotingRule("antiplurality"), pareto, 3, 3)
        assert c.p[1] < 1.0  # dominated candidates can win via the tie-break

    def test_plurality_condorcet_matches_direct_sweep(self):
        # triple-checked: scalar predicate over all 216 profiles
        ax = AxiomSpec.builtin("condorcet_consistency")
        hits = sum(
            check_axiom(ax, PLURALITY, [prof]) for prof in all_profiles(3, 3)
        )
        c = enumerate_collection(PLURALITY, [ax], 3, 3)
        assert c.p[1] == pytest.approx(hits / 216)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "sampler",
        [ImpartialCulture()] + [Mallows(phi, (0, 1, 2)) for phi in (0.5, 1e-160, 1e-300)],
        ids=["ic", "mallows", "mallows_1e-160", "mallows_1e-300"],
    )
    def test_mixed_battery_matches_scalar_pair_sweep_small(self, sampler, n):
        # m=3 keeps the pair space at 36 (n=1) or 1296 (n=2) tuples; at n=2
        # count classes have multiplicity, so class weights are exercised.
        # At phi = 1e-160 and 1e-300 some pmf entries underflow to 0, so no
        # weight may divide by a pmf entry.
        axioms = [AxiomSpec.builtin("majority_winner"), AxiomSpec.builtin("strategyproof_pair")]
        c = enumerate_collection(PLURALITY, axioms, 3, n, sampler)
        counts, masses = scalar_world_masses(PLURALITY, axioms, 3, n, sampler)
        if isinstance(sampler, ImpartialCulture):  # the correctly rounded tuple ratio
            total = int(counts.sum())
            expected = [float(Fraction(int(hits), total)) for hits in superset_sums(counts)]
            np.testing.assert_array_equal(c.p, expected)
        else:
            expected = superset_sums(masses / masses.sum())
            np.testing.assert_allclose(c.p, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rule", [PLURALITY, BORDA, COPELAND], ids=lambda r: r.name)
    def test_mixed_battery_matches_scalar_related_pair_sweep(self, rule):
        # at n=3 a deviating ranking can be held by two voters, so the
        # deviation rows' multiplicity is exercised; of the 216 * 216 pairs
        # only the 216 * 15 one-voter deviations are related, and every other
        # pair satisfies the relational axiom vacuously
        punctual, relational = PUNCTUAL_PAIR, AxiomSpec.builtin("strategyproof_pair")
        rel_bit = 1 << len(punctual)
        counts = np.zeros(2 * rel_bit, dtype=np.int64)
        profiles = all_profiles(3, 3)
        for p1 in profiles:
            world = sum(check_axiom(ax, rule, [p1]) << b for b, ax in enumerate(punctual))
            related = [p2 for p2 in profiles
                       if sum(a != b for a, b in zip(p1.rankings, p2.rankings)) == 1]
            counts[world | rel_bit] += len(profiles) - len(related)
            for p2 in related:
                counts[world | check_axiom(relational, rule, [p1, p2]) * rel_bit] += 1
        c = enumerate_collection(rule, MIXED_TRIPLE, 3, 3)
        total = len(profiles) ** 2
        expected = [float(Fraction(int(hits), total)) for hits in superset_sums(counts)]
        np.testing.assert_array_equal(c.p, expected)

    def test_enumeration_weights_follow_sampler(self):
        uniform = enumerate_collection(PLURALITY, PUNCTUAL_PAIR, 3, 3, ImpartialCulture())
        flat_mallows = enumerate_collection(
            PLURALITY, PUNCTUAL_PAIR, 3, 3, Mallows(1.0, (0, 1, 2))
        )
        np.testing.assert_allclose(uniform.p, flat_mallows.p, atol=1e-12)
        skewed = enumerate_collection(
            PLURALITY, PUNCTUAL_PAIR, 3, 3, Mallows(0.3, (0, 1, 2))
        )
        assert not np.allclose(uniform.p, skewed.p)

    def test_size_guard(self):
        # 9.3e6 count classes times 477 rows each; m4 n4 (1.6e6 rows) is admitted
        with pytest.raises(SizeError):
            enumerate_collection(PLURALITY, MIXED_TRIPLE, 5, 4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("axioms", [PUNCTUAL_PAIR, MIXED_TRIPLE], ids=["punctual", "mixed"])
    @pytest.mark.parametrize("sampler", [ImpartialCulture(), Mallows(0.5, (0, 1, 2))],
                             ids=["ic", "mallows"])
    def test_chunking_invariant(self, axioms, sampler, n, monkeypatch):
        whole = enumerate_collection(PLURALITY, axioms, 3, n, sampler)
        for chunk_tuples in (1, 17):
            monkeypatch.setattr(estimate_module, "CHUNK_TUPLES", chunk_tuples)
            chunked = enumerate_collection(PLURALITY, axioms, 3, n, sampler)
            if isinstance(sampler, ImpartialCulture):  # exact tuple counts
                np.testing.assert_array_equal(chunked.p, whole.p)
            else:
                np.testing.assert_allclose(chunked.p, whole.p, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def exact_mixed_triple(rule, m, n, phi):
    sampler = ImpartialCulture() if phi is None else Mallows(phi, tuple(range(m)))
    return sampler, enumerate_collection(rule, MIXED_TRIPLE, m, n, sampler)


class TestConvergence:
    @pytest.mark.parametrize("phi", [None, 0.5], ids=["ic", "mallows"])
    @pytest.mark.parametrize("samples", [1000, 10_000])
    # m4 n4 is 1.6e6 count-class rows, out of reach of a profile-by-profile sweep
    @pytest.mark.parametrize("m, n", [(3, 3), (4, 4)])
    def test_estimates_within_four_standard_errors(self, m, n, samples, phi):
        for rule in (PLURALITY, COPELAND):
            sampler, exact = exact_mixed_triple(rule, m, n, phi)
            est = estimate_collection(
                rule, MIXED_TRIPLE, sampler, m, n, samples, seed=20240817
            )
            bound = 4 * np.sqrt(exact.p * (1 - exact.p) / samples) + 1.0 / samples
            assert np.all(np.abs(est.collection.p - exact.p) <= bound)


class TestDominance:
    def test_rule_dominates_itself(self):
        result = dominance_check(PLURALITY, PLURALITY, MIXED_TRIPLE, 3, 2)
        assert result.dominates
        assert result.per_mask.all()

    def test_copeland_dominates_on_condorcet_alone(self):
        result = dominance_check(
            COPELAND, PLURALITY, [AxiomSpec.builtin("condorcet_consistency")], 3, 3
        )
        assert result.dominates  # copeland satisfies it everywhere

    def test_matches_scalar_inclusion_sweep(self):
        axioms = PUNCTUAL_PAIR
        result = dominance_check(PLURALITY, BORDA, axioms, 3, 3)
        profiles = all_profiles(3, 3)
        for mask in (1, 2, 3):
            chosen = [ax for b, ax in enumerate(axioms) if mask >> b & 1]
            included = all(
                any(not check_axiom(ax, BORDA, [prof]) for ax in chosen)
                or all(check_axiom(ax, PLURALITY, [prof]) for ax in chosen)
                for prof in profiles
            )
            assert bool(result.per_mask[mask]) == included

    def test_matches_scalar_inclusion_sweep_with_relational_axiom(self):
        axioms = [AxiomSpec.builtin("majority_winner"),
                  AxiomSpec.builtin("strategyproof_pair")]
        result = dominance_check(COPELAND, BORDA, axioms, 3, 1)
        profiles = all_profiles(3, 1)
        for mask in (1, 2, 3):
            chosen = [ax for b, ax in enumerate(axioms) if mask >> b & 1]
            included = all(
                any(not check_axiom(ax, BORDA, [p1, p2]) for ax in chosen)
                or all(check_axiom(ax, COPELAND, [p1, p2]) for ax in chosen)
                for p1 in profiles
                for p2 in profiles
            )
            assert bool(result.per_mask[mask]) == included

    def test_dominance_implies_measure_order(self):
        axioms = [AxiomSpec.builtin("condorcet_consistency")]
        result = dominance_check(COPELAND, PLURALITY, axioms, 3, 3)
        assert result.dominates
        exact_f = enumerate_collection(COPELAND, axioms, 3, 3)
        exact_g = enumerate_collection(PLURALITY, axioms, 3, 3)
        rng = np.random.default_rng(71)
        for _ in range(100):
            cap = random_capacity(rng, exact_f.axioms)
            assert (
                perf_moebius(cap, exact_f).value
                >= perf_moebius(cap, exact_g).value - 1e-12
            )

    def test_size_guard(self):
        with pytest.raises(SizeError):
            dominance_check(PLURALITY, BORDA, MIXED_TRIPLE, 5, 3)

    # sizes at which some subsets are dominated and some are not
    @pytest.mark.parametrize("axioms, n", [(PUNCTUAL_PAIR, 3), (MIXED_TRIPLE, 2)],
                             ids=["punctual", "mixed"])
    def test_chunking_invariant(self, axioms, n, monkeypatch):
        whole = dominance_check(PLURALITY, BORDA, axioms, 3, n)
        assert whole.per_mask.any() and not whole.per_mask.all()
        for chunk_tuples in (1, 17):
            monkeypatch.setattr(estimate_module, "CHUNK_TUPLES", chunk_tuples)
            chunked = dominance_check(PLURALITY, BORDA, axioms, 3, n)
            np.testing.assert_array_equal(chunked.per_mask, whole.per_mask)


class TestExperimentJson:
    def spec_doc(self, **overrides):
        doc = {
            "rule": "plurality",
            "axioms": ["condorcet_consistency", "majority_winner"],
            "m": 3,
            "n": 3,
            "sampler": {"kind": "impartial_culture"},
            "N": 500,
            "seed": 42,
        }
        doc.update(overrides)
        return doc

    def test_runs_and_serializes(self):
        spec = experiment_from_json(self.spec_doc())
        est = run_experiment(spec)
        doc = estimated_to_json(est)
        assert doc["N"] == 500 and doc["seed"] == 42
        assert set(doc) == {"axioms", "p", "N", "seed", "stderr"}
        again = estimated_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(again.collection.p, est.collection.p)
        np.testing.assert_array_equal(again.world_counts, est.world_counts)

    def test_estimate_with_negative_seed_is_refused(self):
        doc = estimated_to_json(run_experiment(experiment_from_json(self.spec_doc())))
        doc["seed"] = -1
        with pytest.raises(ParseError, match='"seed" must be >= 0'):
            estimated_from_json(doc)

    @pytest.mark.parametrize("value", [-0.5, 7.0, -0.0001, 0.5000001])
    def test_estimate_with_stderr_outside_its_range_is_refused(self, value):
        # sqrt(p (1 - p) / N) lies in [0, 0.5] for every p and N >= 1
        doc = estimated_to_json(run_experiment(experiment_from_json(self.spec_doc())))
        doc["stderr"] = {key: value for key in doc["stderr"]}
        with pytest.raises(ParseError, match=r'"stderr" value at subset .* must be in \[0, 0.5\]'):
            estimated_from_json(doc)

    def test_estimate_stderr_bounds_are_admitted(self):
        doc = estimated_to_json(run_experiment(experiment_from_json(self.spec_doc())))
        keys = list(doc["stderr"])
        doc["stderr"] = {key: [0.0, 0.5][k % 2] for k, key in enumerate(keys)}
        est = estimated_from_json(doc)
        assert est.stderr[1:].tolist() == [[0.0, 0.5][k % 2] for k in range(len(keys))]

    def test_seed_override(self):
        spec = experiment_from_json(self.spec_doc())
        a = run_experiment(spec, seed_override=7)
        b = run_experiment(spec, seed_override=7)
        np.testing.assert_array_equal(a.collection.p, b.collection.p)
        assert a.seed == 7

    def test_exact_ignores_sampling_parameters(self):
        spec = experiment_from_json(self.spec_doc(N=1))
        exact = run_experiment(spec, exact=True)
        direct = enumerate_collection(PLURALITY, PUNCTUAL_PAIR, 3, 3)
        np.testing.assert_allclose(exact.p, direct.p, atol=1e-15)

    def test_sample_count_of_two_to_the_53_is_read(self):
        assert experiment_from_json(self.spec_doc(N=2**53)).n_samples == 2**53

    def test_mallows_spec(self):
        doc = self.spec_doc(sampler={"kind": "mallows", "phi": 0.8, "sigma": [0, 1, 2]})
        spec = experiment_from_json(doc)
        assert isinstance(spec.sampler, Mallows)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"rule": "veto"},
            {"axioms": []},
            {"axioms": ["not_an_axiom"]},
            {"axioms": ["pareto", "pareto"]},
            {"m": 9},
            {"N": 0},
            {"N": 2**53 + 1},
            {"seed": -1},
            {"sampler": {"kind": "mallows", "phi": 2.0, "sigma": [0, 1, 2]}},
            {"sampler": {"kind": "mallows", "phi": 0.5, "sigma": [0, 1]}},
            {"extra_key": 1},
        ],
    )
    def test_rejects_malformed_documents(self, mutation):
        with pytest.raises(ParseError):
            experiment_from_json(self.spec_doc(**mutation))
