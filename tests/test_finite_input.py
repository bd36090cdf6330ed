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
    reconstruct,
    summarize,
)
from axiometer.cli import _emit, main
from axiometer.incompatibility import Game
from axiometer.simulation import estimated_from_json

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demo"
ABC = AxiomSet(("a1", "a2", "a3"))
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("make", [
    lambda p: Collection(ABC, p),
    lambda u: Capacity(ABC, u - 1.0),
    lambda v: Game(ABC, v - 1.0),
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
        reconstruct(ContributionVector(ABC, alpha, 1e-9))


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


def test_zero_tolerance_is_accepted():
    assert main(["validate", str(DEMO / "collection_three_axioms.json"), "--tol", "0"]) == 0


def test_alpha_nan_exits_two():
    argv = ["compare"] + [str(DEMO / f) for f in (
        "capacity_battery.json", "family_copeland.json", "family_plurality.json")]
    assert main(argv + ["--criterion", "alpha_maxmin", "--alpha", "nan"]) == 2


def test_emit_refuses_non_finite_json(capsys):
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(ValueError):
        _emit(args, {"total": float("nan")}, lambda: "")
    assert capsys.readouterr().out == ""
