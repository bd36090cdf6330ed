"""Superset Moebius transforms per collection per operation.

The aim is one: the membership check computes the contributions alpha, so an
operation that needs them should not transform p a second time.
``require_member`` returns them, read-only, and ``shapley`` and
``shapley_via_moebius`` read them from it.  ``evaluate`` under ``moebius``
still transforms p again in ``contributions`` and is marked as an expected
failure; reading alpha from ``require_member`` mends it, and waits for the
benchmark's tracer self-test (perfbench/tests/test_checks.py), which counts
two transforms for ``rank`` under ``moebius``, to expect one.  A CLI
command runs the transforms of the operations it calls and no more:
``compare`` checks each family member once, where it evaluates it, and
reading a ``simulate`` estimate costs no transform.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import axiometer.collections as collections_module
import axiometer.lattice as lattice_module
from axiometer import (
    AxiomSet,
    InfeasibleCollectionError,
    banzhaf,
    collection_to_json,
    contributions,
    evaluate,
    frechet_check,
    is_member,
    require_member,
    shapley,
    shapley_via_moebius,
)
from axiometer.cli import main
from axiometer.robustness import CRITERION_TAGS
from axiometer.simulation import estimated_from_json

from conftest import FLAT_P, collection3, random_capacity, random_feasible

AXIOMS = AxiomSet(("a", "b", "c", "d"))
RNG = np.random.default_rng(8)
CAP = random_capacity(RNG, AXIOMS)
FEASIBLE = random_feasible(RNG, AXIOMS)

OPERATIONS = {
    "is_member": (is_member, 1),
    "require_member": (require_member, 1),
    "evaluate_moebius": (lambda c: evaluate(CAP, c, "moebius"), 1),
    "evaluate_weighted_sum": (lambda c: evaluate(CAP, c, "weighted_sum"), 1),
    "evaluate_min_diff": (lambda c: evaluate(CAP, c, "min_diff"), 1),
    "shapley": (shapley, 1),
    "shapley_via_moebius": (shapley_via_moebius, 1),
    "banzhaf": (banzhaf, 0),
    "frechet_check": (frechet_check, 0),
}

#: Two transforms today: the membership check, then ``contributions``.
TRANSFORM_TWICE = pytest.mark.xfail(
    strict=True, reason="checks membership, then transforms p again in contributions()"
)
PENDING = {"evaluate_moebius"}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=TRANSFORM_TWICE) if n in PENDING else n for n in OPERATIONS]
)
def test_transforms_per_operation(name, monkeypatch):
    op, expected = OPERATIONS[name]
    calls = []
    transform = collections_module.moebius_superset

    def counting(x):
        calls.append(x)
        return transform(x)

    monkeypatch.setattr(collections_module, "moebius_superset", counting)
    op(FEASIBLE)
    assert len(calls) == expected


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.1])
def test_require_member_returns_the_contributions_it_checked(tol):
    cv = require_member(FEASIBLE, tol)
    assert cv.axioms == FEASIBLE.axioms
    assert not cv.alpha.flags.writeable
    np.testing.assert_array_equal(cv.alpha, contributions(FEASIBLE).alpha)


#: Infeasible with no pairwise-bound violation, and with monotonicity broken.
INFEASIBLE = {"flat": FLAT_P, "non_monotone": (0.3, 0.3, 0.3, 0.5, 0.1, 0.1, 0.1)}


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.1])
@pytest.mark.parametrize("name", INFEASIBLE)
def test_infeasible_report_matches_is_member(name, tol):
    c = collection3(INFEASIBLE[name])
    with pytest.raises(InfeasibleCollectionError) as info:
        require_member(c, tol)
    report = is_member(c, tol)
    assert not report.feasible
    assert bool(report.frechet_violations) == (name == "non_monotone")
    assert info.value.report == report
    assert info.value.axioms is c.axioms


DEMO = Path(__file__).resolve().parents[1] / "demo"
FAMILIES = [str(DEMO / f) for f in ("family_copeland.json", "family_plurality.json")]
BATTERY = str(DEMO / "capacity_battery.json")


@pytest.fixture
def transforms(monkeypatch):
    """Every superset Moebius transform run by any axiometer module."""
    calls = []
    transform = lattice_module.moebius_superset

    def counting(x):
        calls.append(x)
        return transform(x)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("axiometer"):
            if getattr(module, "moebius_superset", None) is transform:
                monkeypatch.setattr(module, "moebius_superset", counting)
    return calls


@pytest.mark.parametrize("measure, expected", [("moebius", 8), ("weighted_sum", 4)])
@pytest.mark.parametrize("criterion", CRITERION_TAGS)
def test_compare_transforms_each_member_once_per_evaluation(
    criterion, measure, expected, transforms
):
    # four members; under moebius each evaluation checks membership, then
    # computes the contributions
    argv = ["compare", BATTERY, *FAMILIES, "--criterion", criterion, "--measure", measure]
    assert main(argv + ["--format", "json"]) == 0
    assert len(transforms) == expected


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A ``simulate`` estimate file, and its collection as a plain collection file."""
    tmp = tmp_path_factory.mktemp("simulated")
    est, plain = tmp / "est.json", tmp / "plain.json"
    argv = ["simulate", str(DEMO / "experiment_plurality.json"), "--format", "json"]
    assert main(argv + ["--out", str(est)]) == 0
    collection = estimated_from_json(json.loads(est.read_text())).collection
    plain.write_text(json.dumps(collection_to_json(collection)))
    return {"estimate": str(est), "collection": str(plain)}


@pytest.mark.parametrize("kind", ["estimate", "collection"])
@pytest.mark.parametrize(
    "command, expected",
    [(["perf", BATTERY], 2), (["incompat"], 1), (["validate"], 1)],
    ids=["perf", "incompat", "validate"],
)
def test_reading_an_estimate_costs_no_transform(command, expected, kind, simulated, transforms):
    assert main(command + [simulated[kind], "--format", "json"]) == 0
    assert len(transforms) == expected
