"""Simulation experiments and their committed reference collections.

Regenerate ``reference/simulation.json`` from the repository root with

    PYTHONPATH=src python3 perfbench/simrefs.py

Experiments small enough for the enumeration guard get the exact collection
(compared within 1e-9).  The others get a large Monte Carlo run under a seed
that no workload uses; the benchmark then compares its own estimates within a
combined-standard-error bound (checks.mc_close), which stays valid when the
sampler's random stream changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference" / "simulation.json"

DEMO_BATTERY = ["condorcet_consistency", "majority_winner", "strategyproof_pair"]
PUNCTUAL = ["condorcet_consistency", "majority_winner", "condorcet_loser_avoidance", "pareto"]
ALL_SIX = PUNCTUAL + ["monotonicity_pair", "strategyproof_pair"]
IC = {"kind": "impartial_culture"}


def _mallows(m: int) -> dict:
    return {"kind": "mallows", "phi": 0.8, "sigma": list(range(m))}


#: name -> (experiment without "N" and "seed", reference sample count or 0 for exact)
EXPERIMENTS = {
    "plurality_m3_n3_ic": (
        {"rule": "plurality", "axioms": DEMO_BATTERY, "m": 3, "n": 3, "sampler": IC}, 0),
    "copeland_m4_n15_mallows": (
        {"rule": "copeland", "axioms": ALL_SIX, "m": 4, "n": 15, "sampler": _mallows(4)},
        2_000_000),
    "borda_m5_n50_ic": (
        {"rule": "borda", "axioms": ALL_SIX, "m": 5, "n": 50, "sampler": IC}, 2_000_000),
    "borda_m5_n50_mallows": (
        {"rule": "borda", "axioms": ALL_SIX, "m": 5, "n": 50, "sampler": _mallows(5)},
        500_000),
    "plurality_m3_n8_ic_punctual": (
        {"rule": "plurality", "axioms": PUNCTUAL, "m": 3, "n": 8, "sampler": IC}, 0),
    "copeland_m3_n4_mallows": (
        {"rule": "copeland", "axioms": ALL_SIX, "m": 3, "n": 4, "sampler": _mallows(3)}, 0),
}

#: Seed of the reference Monte Carlo runs; workloads draw theirs below 2**31.
REFERENCE_SEED = 2**31 + 20250


def load() -> dict:
    """name -> {"spec", "N", "p"}; fails if the file is stale against EXPERIMENTS."""
    data = json.loads(REFERENCE_FILE.read_text())["experiments"]
    for name, (spec, n_ref) in EXPERIMENTS.items():
        if data.get(name, {}).get("spec") != spec or data[name]["N"] != n_ref:
            raise RuntimeError(f"{REFERENCE_FILE} is stale for {name}; regenerate it")
    return data


def main() -> None:
    from axiometer.cli import main as cli_main

    out = {}
    tmp = REFERENCE_FILE.with_suffix(".tmp.json")
    for name, (spec, n_ref) in EXPERIMENTS.items():
        doc = dict(spec, N=max(n_ref, 1), seed=REFERENCE_SEED)
        tmp.write_text(json.dumps(doc))
        args = ["simulate", str(tmp), "--out", str(tmp)] + ([] if n_ref else ["--exact"])
        if cli_main(args) != 0:
            raise SystemExit(f"simulate failed for {name}")
        out[name] = {"spec": spec, "N": n_ref, "p": json.loads(tmp.read_text())["p"]}
        print(name, file=sys.stderr)
    tmp.unlink()
    REFERENCE_FILE.write_text(
        json.dumps({"command": "PYTHONPATH=src python3 perfbench/simrefs.py",
                    "experiments": out}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
