"""Byte-exact CLI output on demo/: every README command, table and JSON form.

``tests/golden/cli_demo.json`` holds the exit code, stdout and stderr of each
command, so indentation, key order and float text are pinned, not just the
parsed values.  Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from axiometer.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_demo.json"

#: The CLI section of the README, run from the repository root.
README_COMMANDS = (
    ["validate", "demo/collection_three_axioms.json"],
    ["validate", "demo/collection_flat.json"],
    ["perf", "demo/capacity_synergy.json", "demo/collection_steady.json",
     "demo/collection_spiky.json", "--measure", "min_diff"],
    ["incompat", "demo/collection_three_axioms.json", "--method", "shapley"],
    ["simulate", "demo/experiment_plurality.json"],
    ["simulate", "demo/experiment_plurality.json", "--exact"],
    ["compare", "demo/capacity_battery.json", "demo/family_copeland.json",
     "demo/family_plurality.json", "--criterion", "pointwise"],
    ["compare", "demo/capacity_battery.json", "demo/family_copeland.json",
     "demo/family_plurality.json", "--criterion", "alpha_maxmin", "--alpha", "0"],
)

CASES = [argv + ["--format", fmt] for argv in README_COMMANDS for fmt in ("table", "json")]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
    sys.stdout.write(f"wrote {len(CASES)} cases to {GOLDEN.relative_to(ROOT)}\n")
