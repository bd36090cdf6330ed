"""Family summaries, alpha-maxmin scores, and the three partial criteria."""

import itertools
from functools import partial

import numpy as np
import pytest

from axiometer import (
    AlignmentError,
    AxiomSet,
    Capacity,
    Collection,
    CollectionFamily,
    InfeasibleCollectionError,
    ParseError,
    RangeError,
    SchemaError,
    WeightError,
    alpha_maxmin_score,
    compare_alpha_maxmin,
    compare_max_and_min,
    compare_min_vs_max,
    compare_pointwise,
    edge,
    extreme,
    family_from_json,
    family_to_json,
    family_values,
    perf_moebius,
    perf_weighted_sum,
    summarize,
)

from conftest import (
    BASELINE_P,
    FLAT_P,
    SYNERGY_U,
    capacity3,
    collection3,
    random_capacity,
    random_feasible,
)

ONE = AxiomSet(("a",))
UNIT_CAP = Capacity(axioms=ONE, u=np.array([0.0, 1.0]))


def fam(values, names=None) -> CollectionFamily:
    """Single-axiom family whose measure values under UNIT_CAP are ``values``."""
    members = tuple(
        Collection(axioms=ONE, p=np.array([1.0, v])) for v in values
    )
    names = tuple(names) if names else tuple(f"model_{k}" for k in range(len(values)))
    return CollectionFamily(axioms=ONE, members=members, model_names=names)


class TestSummarize:
    def test_single_member_identity(self):
        family = fam([0.4])
        np.testing.assert_array_equal(summarize(family).p, family.members[0].p)

    def test_uniform_over_copies_is_identity(self):
        c = collection3(BASELINE_P)
        family = CollectionFamily(
            axioms=c.axioms, members=(c, c), model_names=("one", "two")
        )
        np.testing.assert_allclose(summarize(family).p, c.p, atol=1e-15)

    def test_mixture_of_extreme_and_zero_is_edge(self, abc):
        lam = 0.35
        family = CollectionFamily(
            axioms=abc,
            members=(extreme(abc, 0b011), extreme(abc, 0)),
            model_names=("hi", "lo"),
        )
        mixed = summarize(family, [lam, 1 - lam])
        np.testing.assert_allclose(mixed.p, edge(abc, 0b011, lam).p, atol=1e-15)

    def test_weight_validation(self):
        family = fam([0.2, 0.6])
        with pytest.raises(WeightError):
            summarize(family, [0.7, 0.7])
        with pytest.raises(WeightError):
            summarize(family, [-0.1, 1.1])
        with pytest.raises(WeightError):
            summarize(family, [1.0])


class TestAlphaMaxmin:
    def test_singleton_family_any_alpha(self):
        family = fam([0.4])
        for alpha in (0.0, 0.3, 1.0):
            assert alpha_maxmin_score(UNIT_CAP, family, alpha) == pytest.approx(0.4)

    def test_extremes_select_min_and_max(self):
        family = fam([0.2, 0.9, 0.5])
        assert alpha_maxmin_score(UNIT_CAP, family, 0.0) == pytest.approx(0.2)
        assert alpha_maxmin_score(UNIT_CAP, family, 1.0) == pytest.approx(0.9)

    def test_alpha_out_of_range(self):
        with pytest.raises(RangeError):
            alpha_maxmin_score(UNIT_CAP, fam([0.5]), 1.5)


class TestMaxAndMin:
    def test_crossing_families_incomparable(self):
        assert compare_max_and_min(UNIT_CAP, fam([0.3, 0.1]), fam([0.2, 0.2])).verdict == "incomparable"

    def test_identical_families_equivalent(self):
        assert compare_max_and_min(UNIT_CAP, fam([0.3, 0.1]), fam([0.3, 0.1])).verdict == "equivalent"

    def test_dominating_family_better(self):
        assert compare_max_and_min(UNIT_CAP, fam([0.3, 0.2]), fam([0.2, 0.1])).verdict == "better"
        assert compare_max_and_min(UNIT_CAP, fam([0.2, 0.1]), fam([0.3, 0.2])).verdict == "worse"

    def test_mixed_axiom_sets_rejected(self, abc):
        c = collection3(BASELINE_P)
        other = CollectionFamily(axioms=c.axioms, members=(c,), model_names=("m",))
        with pytest.raises(SchemaError):
            compare_max_and_min(UNIT_CAP, fam([0.5]), other)

    def test_empty_model_names_rejected(self):
        members = (extreme(ONE, 1), extreme(ONE, 0))
        with pytest.raises(SchemaError, match="0 model names for 2 collections"):
            CollectionFamily(ONE, members, ())

    def test_repeated_model_names_rejected(self):
        # results are keyed by model name, so a repeat would hide a value
        with pytest.raises(SchemaError, match="distinct"):
            fam([0.5, 0.3], names=("ic", "ic"))


class TestPointwise:
    def test_weak_dominance_with_strict_entry(self):
        assert compare_pointwise(UNIT_CAP, fam([0.5, 0.4]), fam([0.4, 0.4])).verdict == "better"

    def test_crossing_values_incomparable(self):
        assert compare_pointwise(UNIT_CAP, fam([0.5, 0.3]), fam([0.4, 0.4])).verdict == "incomparable"

    def test_equal_families_equivalent(self):
        assert compare_pointwise(UNIT_CAP, fam([0.5, 0.3]), fam([0.5, 0.3])).verdict == "equivalent"

    def test_misaligned_model_lists_rejected(self):
        f = fam([0.5, 0.3], names=("ic", "mallows"))
        g = fam([0.4, 0.2], names=("mallows", "ic"))
        with pytest.raises(AlignmentError):
            compare_pointwise(UNIT_CAP, f, g)
        with pytest.raises(AlignmentError):
            compare_pointwise(UNIT_CAP, f, fam([0.4], names=("ic",)))


class TestMinVsMax:
    def test_separated_families(self):
        assert compare_min_vs_max(UNIT_CAP, fam([0.4, 0.5]), fam([0.1, 0.3])).verdict == "better"
        assert compare_min_vs_max(UNIT_CAP, fam([0.1, 0.3]), fam([0.4, 0.5])).verdict == "worse"

    def test_overlapping_families_incomparable(self):
        assert compare_min_vs_max(UNIT_CAP, fam([0.4, 0.5]), fam([0.45, 0.46])).verdict == "incomparable"

    def test_constant_equal_families_equivalent(self):
        assert compare_min_vs_max(UNIT_CAP, fam([0.3, 0.3]), fam([0.3, 0.3])).verdict == "equivalent"


def _direction(verdict):
    return {"better": 1, "worse": -1, "equivalent": 0}.get(verdict)


def test_criteria_nest_on_random_families():
    rng = np.random.default_rng(131)
    for _ in range(1000):
        j = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        cap = random_capacity(rng, axioms)
        names = tuple(f"model_{i}" for i in range(k))
        fam_f = CollectionFamily(
            axioms=axioms,
            members=tuple(random_feasible(rng, axioms) for _ in range(k)),
            model_names=names,
        )
        fam_g = CollectionFamily(
            axioms=axioms,
            members=tuple(random_feasible(rng, axioms) for _ in range(k)),
            model_names=names,
        )
        strictest = _direction(compare_min_vs_max(cap, fam_f, fam_g).verdict)
        middle = _direction(compare_pointwise(cap, fam_f, fam_g).verdict)
        weakest = _direction(compare_max_and_min(cap, fam_f, fam_g).verdict)
        if strictest is not None:
            assert middle is not None
            assert strictest == middle or middle == 0 or strictest == 0
        if middle is not None:
            assert weakest is not None
            assert middle == weakest or weakest == 0 or middle == 0
        # alpha-maxmin is complete and agrees with a decisive max-and-min
        for alpha in (0.0, 0.5, 1.0):
            sf = alpha_maxmin_score(cap, fam_f, alpha)
            sg = alpha_maxmin_score(cap, fam_g, alpha)
            if weakest == 1:
                assert sf >= sg - 1e-9
            elif weakest == -1:
                assert sf <= sg + 1e-9


#: The families a verdict puts ahead: F, G, both or neither.
AHEAD = {"better": {"f"}, "worse": {"g"}, "equivalent": {"f", "g"}, "incomparable": set()}


def near_tolerance_values(rng, base, tol, k):
    """``k`` values within a tolerance of ``base``, each a few ulps off
    ``base`` plus a multiple of ``tol / 2``, so that their differences land
    within a few ulps of the multiples of ``tol / 2`` from -2 tol to 2 tol."""
    values = base + tol * rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=k)
    for _ in range(int(rng.integers(0, 4))):
        values = np.nextafter(values, rng.choice([-np.inf, np.inf], size=k))
    return values.tolist()


def test_criteria_nest_within_ulps_of_the_tolerance():
    # every criterion is a difference >= -tol and rounded subtraction is
    # monotone, so the nesting holds exactly in floating point
    rng = np.random.default_rng(139)
    for _ in range(1500):
        tol = float(10.0 ** rng.uniform(-12.0, -1.0))
        base = float(rng.uniform(0.2, 0.8))
        k = int(rng.integers(1, 4))
        vf = near_tolerance_values(rng, base, tol, k)
        vg = near_tolerance_values(rng, base, tol, k)
        fam_f, fam_g = fam(vf), fam(vg)
        strictest = AHEAD[compare_min_vs_max(UNIT_CAP, fam_f, fam_g, tol=tol).verdict]
        middle = AHEAD[compare_pointwise(UNIT_CAP, fam_f, fam_g, tol=tol).verdict]
        weakest = AHEAD[compare_max_and_min(UNIT_CAP, fam_f, fam_g, tol=tol).verdict]
        assert strictest <= middle <= weakest, (vf, vg, tol)
        # min-vs-max implies max-and-min for families of different sizes too
        vh = near_tolerance_values(rng, base, tol, int(rng.integers(1, 4)))
        fam_h = fam(vh)
        strictest = AHEAD[compare_min_vs_max(UNIT_CAP, fam_f, fam_h, tol=tol).verdict]
        weakest = AHEAD[compare_max_and_min(UNIT_CAP, fam_f, fam_h, tol=tol).verdict]
        assert strictest <= weakest, (vf, vh, tol)


def test_one_model_families_get_one_verdict():
    # with one model, max, min and the single value coincide, and so do the
    # alpha-maxmin scores at alpha 0 and 1
    rng = np.random.default_rng(149)
    cases = [(0.8119288470122431, 0.8132702392002724, 0.0013413921880292817)]
    for _ in range(500):
        tol = float(10.0 ** rng.uniform(-12.0, -1.0))
        base = float(rng.uniform(0.2, 0.8))
        cases.append((*near_tolerance_values(rng, base, tol, 2), tol))
    seen = set()
    for vf, vg, tol in cases:
        fam_f, fam_g = fam([vf]), fam([vg])
        verdicts = {
            compare(UNIT_CAP, fam_f, fam_g, tol=tol).verdict
            for compare in (
                compare_max_and_min,
                compare_pointwise,
                compare_min_vs_max,
                partial(compare_alpha_maxmin, alpha=0.0),
                partial(compare_alpha_maxmin, alpha=1.0),
            )
        }
        assert len(verdicts) == 1, (vf, vg, tol, verdicts)
        seen |= verdicts
    assert seen == {"better", "worse", "equivalent"}
    vf, vg, tol = cases[0]
    assert compare_min_vs_max(UNIT_CAP, fam([vf]), fam([vg]), tol=tol).verdict == "worse"


def test_summary_commutes_with_both_linear_measures():
    rng = np.random.default_rng(137)
    for _ in range(100):
        j = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        axioms = AxiomSet(tuple(f"a{i}" for i in range(j)))
        cap = random_capacity(rng, axioms)
        members = tuple(random_feasible(rng, axioms) for _ in range(k))
        family = CollectionFamily(
            axioms=axioms,
            members=members,
            model_names=tuple(f"m{i}" for i in range(k)),
        )
        beta = rng.dirichlet(np.ones(k))
        mixed = summarize(family, beta)
        for measure_fn in (perf_weighted_sum, perf_moebius):
            direct = measure_fn(cap, mixed).value
            averaged = float(
                np.dot(beta, [measure_fn(cap, c).value for c in members])
            )
            assert direct == pytest.approx(averaged, abs=1e-9)


def test_family_values_order():
    family = fam([0.5, 0.2, 0.8])
    np.testing.assert_allclose(family_values(UNIT_CAP, family), [0.5, 0.2, 0.8])


class TestFamilyJson:
    def test_roundtrip(self, abc):
        family = CollectionFamily(
            axioms=abc,
            members=(collection3(BASELINE_P), extreme(abc, 7)),
            model_names=("ic", "mallows_0.8"),
        )
        doc = family_to_json(family)
        again = family_from_json(doc)
        assert again.model_names == family.model_names
        for a, b in zip(again.members, family.members):
            np.testing.assert_array_equal(a.p, b.p)

    def test_accepts_embedded_collection_objects(self, abc):
        from axiometer import collection_to_json

        doc = {
            "axioms": ["a1", "a2", "a3"],
            "models": ["only"],
            "collections": [collection_to_json(collection3(BASELINE_P))],
        }
        family = family_from_json(doc)
        np.testing.assert_array_equal(family.members[0].p, collection3(BASELINE_P).p)

    def test_model_count_mismatch(self, abc):
        doc = family_to_json(
            CollectionFamily(axioms=abc, members=(extreme(abc, 7),), model_names=("m",))
        )
        doc["models"] = ["m", "extra"]
        with pytest.raises(ParseError):
            family_from_json(doc)

    def test_repeated_model_names(self, abc):
        doc = family_to_json(
            CollectionFamily(
                axioms=abc, members=(extreme(abc, 7), extreme(abc, 3)), model_names=("m", "n")
            )
        )
        doc["models"] = ["m", "m"]
        with pytest.raises(ParseError, match="distinct"):
            family_from_json(doc)

    def test_infeasible_member_rejected(self, abc):
        # parsing accepts it; the evaluation that reads it rejects it
        doc = {
            "axioms": ["a1", "a2", "a3"],
            "models": ["bad"],
            "collections": [
                {
                    "a1": 0.7, "a2": 0.7, "a3": 0.7,
                    "a1+a2": 0.7, "a1+a3": 0.7, "a2+a3": 0.7,
                    "a1+a2+a3": 0.4,
                }
            ],
        }
        family = family_from_json(doc)
        cap = capacity3(SYNERGY_U)
        with pytest.raises(InfeasibleCollectionError):
            compare_max_and_min(cap, family, family)


class TestFeasibilityIsCheckedAtTheCallersTol:
    """A directly built family is checked by every evaluation, not at construction."""

    def test_compare_on_infeasible_family_raises(self, abc):
        bad = collection3(FLAT_P)  # contributions down to -0.3
        family = CollectionFamily(axioms=abc, members=(bad,), model_names=("m",))
        good = CollectionFamily(
            axioms=abc, members=(collection3(BASELINE_P),), model_names=("m",)
        )
        cap = capacity3(SYNERGY_U)
        for compare in (
            compare_max_and_min,
            compare_pointwise,
            compare_min_vs_max,
            partial(compare_alpha_maxmin, alpha=0.5),
        ):
            with pytest.raises(InfeasibleCollectionError):
                compare(cap, family, good)
            with pytest.raises(InfeasibleCollectionError):
                compare(cap, good, family)
            assert compare(cap, family, family, tol=0.5).verdict == "equivalent"
        with pytest.raises(InfeasibleCollectionError):
            alpha_maxmin_score(cap, family, 0.5)


def reference_verdict(criterion, vf, vg, alpha, tol):
    """Each criterion as defined, on plain Python floats."""
    if criterion == "alpha_maxmin":
        sf = alpha * max(vf) + (1.0 - alpha) * min(vf)
        sg = alpha * max(vg) + (1.0 - alpha) * min(vg)
        if abs(sf - sg) <= tol:
            return "equivalent"
        return "better" if sf > sg else "worse"
    if criterion == "min_vs_max":
        f_ahead = min(vf) - max(vg) >= -tol
        g_ahead = min(vg) - max(vf) >= -tol
        if f_ahead and g_ahead:
            return "equivalent"
        if f_ahead or g_ahead:
            return "better" if f_ahead else "worse"
        return "incomparable"
    if criterion == "max_and_min":
        diffs = [max(vf) - max(vg), min(vf) - min(vg)]
    else:
        diffs = [a - b for a, b in zip(vf, vg)]
    if all(abs(d) <= tol for d in diffs):
        return "equivalent"
    if all(d >= -tol for d in diffs):
        return "better"
    if all(d <= tol for d in diffs):
        return "worse"
    return "incomparable"


COMPARE = {
    "alpha_maxmin": compare_alpha_maxmin,
    "max_and_min": compare_max_and_min,
    "pointwise": compare_pointwise,
    "min_vs_max": compare_min_vs_max,
}


MIRROR = {"better": "worse", "worse": "better", "equivalent": "equivalent",
          "incomparable": "incomparable"}


@pytest.mark.parametrize("criterion", COMPARE)
def test_verdicts_at_the_tolerance_boundary(criterion):
    # quarter steps are exact in binary, so many differences are exactly +-tol
    grid = [0.0, 0.25, 0.5, 0.75]
    pairs = list(itertools.product(grid, repeat=2))
    families = {vals: fam(vals) for vals in pairs}
    for vals, family in families.items():
        assert family_values(UNIT_CAP, family).tolist() == list(vals)
    alphas = (0.0, 0.5, 1.0) if criterion == "alpha_maxmin" else (None,)
    seen = set()
    for (vf, fam_f), (vg, fam_g), tol, alpha in itertools.product(
        families.items(), families.items(), (0.0, 0.25), alphas
    ):
        compare = COMPARE[criterion]
        if alpha is not None:
            compare = partial(compare, alpha=alpha)
        got = compare(UNIT_CAP, fam_f, fam_g, tol=tol)
        assert got.verdict == reference_verdict(criterion, vf, vg, alpha, tol), (vf, vg, tol)
        assert compare(UNIT_CAP, fam_g, fam_f, tol=tol).verdict == MIRROR[got.verdict]
        seen.add(got.verdict)
    expected = {"equivalent", "better", "worse"}
    assert seen == (expected if criterion == "alpha_maxmin" else expected | {"incomparable"})


def test_compare_alpha_maxmin_reports_the_two_scores():
    f, g = fam([0.2, 0.9]), fam([0.5])
    got = compare_alpha_maxmin(UNIT_CAP, f, g, alpha=0.0)
    assert (got.criterion, got.verdict) == ("alpha_maxmin", "worse")
    assert got.values_f == (alpha_maxmin_score(UNIT_CAP, f, 0.0),)
    assert got.values_g == (alpha_maxmin_score(UNIT_CAP, g, 0.0),)
    assert compare_alpha_maxmin(UNIT_CAP, f, g, alpha=1.0).verdict == "better"
    with pytest.raises(RangeError):
        compare_alpha_maxmin(UNIT_CAP, f, g, alpha=float("nan"))
