"""Every input boundary rejects non-finite numbers; output is strict JSON."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from axiometer import (
    AxiomSet,
    Capacity,
    Collection,
    CollectionFamily,
    ContributionVector,
    NegativeWeightError,
    ParseError,
    RangeError,
    WeightError,
    capacity_to_json,
    collection_to_json,
    evaluate,
    family_to_json,
    frechet_check,
    is_member,
    perf_min_diff,
    perf_moebius,
    perf_weighted_sum,
    reconstruct,
    require_member,
    shapley,
    shapley_via_moebius,
    summarize,
    validate_capacity,
)
from axiometer.cli import _emit, main
from axiometer.simulation import estimated_from_json

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demo"
ABC = AxiomSet(("a1", "a2", "a3"))
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("make", [
    lambda p: Collection(ABC, p),
    lambda u: Capacity(ABC, u - 1.0),
])
def test_types_reject_non_finite_values(make, bad):
    values = np.ones(8)
    values[5] = bad
    with pytest.raises(RangeError):
        make(values)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_summary_weights_must_be_finite(bad):
    c = Collection(ABC, np.ones(8))
    family = CollectionFamily(ABC, (c, c), ("f", "g"))
    with pytest.raises(WeightError, match="must be finite"):
        summarize(family, [bad, 1.0])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_contribution_weights_must_be_finite(bad):
    alpha = np.zeros(8)
    alpha[7] = 1.0
    alpha[3] = bad
    with pytest.raises(NegativeWeightError, match="must be finite"):
        reconstruct(ContributionVector(ABC, alpha))


def nan_collection(tmp_path) -> str:
    doc = json.loads((DEMO / "collection_three_axioms.json").read_text())
    doc["p"]["a1"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # writes the bare token NaN
    assert "NaN" in path.read_text()
    return str(path)


def test_validate_rejects_nan_value(tmp_path, capsys):
    assert main(["validate", nan_collection(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "feasible" not in out
    assert "must be finite" in err


def test_incompat_json_never_writes_nan(tmp_path, capsys):
    assert main(["incompat", nan_collection(tmp_path), "--format", "json"]) == 2
    assert capsys.readouterr().out == ""


def test_perf_rejects_infinite_capacity(tmp_path):
    doc = json.loads((DEMO / "capacity_synergy.json").read_text())
    doc["u"]["a1+a2+a3"] = float("inf")
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(doc))
    assert main(["perf", str(cap), str(DEMO / "collection_steady.json")]) == 2


def test_estimate_rejects_nan_stderr():
    doc = {
        "axioms": ["condorcet_consistency"], "p": {"condorcet_consistency": 1.0},
        "N": 10, "seed": 1, "stderr": {"condorcet_consistency": float("nan")},
    }
    with pytest.raises(ParseError, match="must be finite"):
        estimated_from_json(doc)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "loose"])
def test_tolerance_must_be_finite_and_non_negative(tol, capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate", str(DEMO / "collection_flat.json"), f"--tol={tol}"])
    assert info.value.code == 2
    assert "must be a finite number >= 0" in capsys.readouterr().err


#: p[a1 + a2 + a3] = 0.9 exceeds p[a1 + a2] = 0.5: infeasible at any tol < 0.4.
INFEASIBLE_P = (1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9)
#: u[a1 + a2] = 0.5 falls below u[a1] = 1: not monotone at any tol < 0.5.
NON_MONOTONE_U = (0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0)
BAD_TOLERANCES = NON_FINITE + (-1e-9,)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize("check", [
    is_member,
    require_member,
    frechet_check,
    shapley,
    shapley_via_moebius,
    lambda c, tol: evaluate(Capacity(ABC, np.linspace(0.0, 1.0, 8)), c, "moebius", tol),
])
def test_library_tolerance_must_be_finite_and_non_negative(check, tol):
    with pytest.raises(RangeError, match="tol must be a finite number >= 0"):
        check(Collection(ABC, INFEASIBLE_P), tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize("measure", [perf_moebius, perf_weighted_sum, perf_min_diff])
def test_measure_tolerance_must_be_finite_and_non_negative(measure, tol):
    cap = Capacity(ABC, np.linspace(0.0, 1.0, 8))
    with pytest.raises(RangeError, match="tol must be a finite number >= 0"):
        measure(cap, Collection(ABC, INFEASIBLE_P), tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_capacity_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(RangeError, match="tol must be a finite number >= 0"):
        validate_capacity(Capacity(ABC, NON_MONOTONE_U), tol)


def test_zero_library_tolerance_is_accepted():
    c = Collection(ABC, INFEASIBLE_P)
    assert is_member(c, 0.0).feasible is False
    assert frechet_check(c, 0.0).feasible is False
    report = validate_capacity(Capacity(ABC, NON_MONOTONE_U), 0.0)
    assert not report.monotone and not report.strict


def test_zero_tolerance_is_accepted():
    assert main(["validate", str(DEMO / "collection_three_axioms.json"), "--tol", "0"]) == 0


COMPARE_ARGV = ["compare"] + [str(DEMO / f) for f in (
    "capacity_battery.json", "family_copeland.json", "family_plurality.json")]


def test_alpha_nan_exits_two():
    with pytest.raises(SystemExit) as info:
        main(COMPARE_ARGV + ["--criterion", "alpha_maxmin", "--alpha", "nan"])
    assert info.value.code == 2


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5", "1.5", "half"])
@pytest.mark.parametrize("criterion", ["alpha_maxmin", "max_and_min", "pointwise", "min_vs_max"])
def test_alpha_is_checked_whatever_the_criterion(criterion, alpha, capsys):
    with pytest.raises(SystemExit) as info:
        main(COMPARE_ARGV + ["--criterion", criterion, f"--alpha={alpha}"])
    assert info.value.code == 2
    assert "must be a finite number in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_alpha_bounds_are_accepted(alpha):
    assert main(COMPARE_ARGV + ["--criterion", "max_and_min", "--alpha", alpha]) == 0


def test_emit_refuses_non_finite_json(capsys):
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(ValueError):
        _emit(args, {"total": float("nan")}, lambda: "")
    assert capsys.readouterr().out == ""


#: p[S] = 0.5**|S|: feasible, with min_diff weights 0.25, 0.125 and 0.125 by size.
HALVING_P = tuple(0.5 ** bin(mask).count("1") for mask in range(8))
#: Each overflows its measure: weighted_sum adds seven u[S] of 1e308, and
#: min_diff's weights sum to 1.25, so 1.7e308 * 1.25 is past the largest float.
OVERFLOWS = [
    ("weighted_sum", 1e308, np.ones(8)),
    ("min_diff", 1.7e308, HALVING_P),
]


def huge_capacity(u: float) -> Capacity:
    values = np.full(8, u)
    values[0] = 0.0
    return Capacity(ABC, values)


@pytest.mark.parametrize("measure, u, p", OVERFLOWS)
def test_a_measure_that_overflows_raises(measure, u, p):
    with pytest.raises(RangeError, match=f"{measure} value overflows"):
        evaluate(huge_capacity(u), Collection(ABC, p), measure)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["perf", "compare"])
@pytest.mark.parametrize("measure, u, p", OVERFLOWS)
def test_cli_reports_an_overflowing_measure(measure, u, p, command, fmt, tmp_path, capsys):
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps(capacity_to_json(huge_capacity(u))))
    c = Collection(ABC, p)
    if command == "perf":
        doc, inputs = collection_to_json(c), ["c.json"]
    else:
        doc, inputs = family_to_json(CollectionFamily(ABC, (c,), ("m",))), ["f.json"] * 2
    (tmp_path / inputs[0]).write_text(json.dumps(doc))
    argv = [command, str(cap), *(str(tmp_path / f) for f in inputs), "--measure", measure]
    argv += ["--format", fmt]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {measure} value overflows: sum of u[S] * weight[S] is inf\n"
