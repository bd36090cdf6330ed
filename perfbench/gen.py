"""Seeded inputs and expected outputs for every workload.

Everything here is numpy and the standard library: the program under test is
not imported, so the inputs and the expectations do not depend on it.  The
same (workload, seed) always writes the same files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import refmath as rm
import simrefs

WORKLOAD_IDS = {"lattice_j20": 1, "cli_j16": 2, "cli_demo": 3, "simulation": 4}

DEMO = Path("demo")
MODELS = ["impartial_culture", "mallows_phi_0.8", "mallows_phi_0.5"]
MEASURES = ("moebius", "weighted_sum", "min_diff")
ALPHA = 0.5

#: Monte Carlo sample counts of the simulation workload.  They, and n = 8
#: rather than 9 for exact plurality (1.7M profiles, not 10M), keep one pass
#: near 6 s so that a run's median rests on several passes.
SIMULATION_N = {
    "plurality_m3_n3_ic": 100_000,
    "copeland_m4_n15_mallows": 100_000,
    "borda_m5_n50_ic": 100_000,
    "borda_m5_n50_mallows": 25_000,
}
SIMULATION_EXACT = ["plurality_m3_n8_ic_punctual", "copeland_m3_n4_mallows"]
#: The small simulation every lattice workload also runs, so that each
#: workload reports every command.
SMALL_MC = ("plurality_m3_n3_ic", 50_000)
SMALL_EXACT = "plurality_m3_n3_ic"


def _labels(j: int) -> list[str]:
    return [f"a{i}" for i in range(j)]


def _subset_map(keys, v) -> dict:
    return {keys[m]: float(v[m]) for m in range(1, len(keys))}


def _validate_expect(p) -> dict:
    neg = rm.negative_contributions(p)
    return {"feasible": not neg, "negative_contributions": neg,
            "frechet_violations": rm.frechet_violations(p)}


def _incompat_expect(p) -> dict:
    return {"shapley": rm.shapley(p).tolist(), "banzhaf": rm.banzhaf(p).tolist(),
            "overall": float(1.0 - p[-1])}


def _compare_expect(u, fam_f, fam_g, alpha=ALPHA) -> dict:
    vf = [rm.perf_value(u, p, "moebius") for p in fam_f]
    vg = [rm.perf_value(u, p, "moebius") for p in fam_g]
    out = {"values_f": vf, "values_g": vg}
    for crit in ("alpha_maxmin", "max_and_min", "pointwise"):
        v, sf, sg = rm.verdict(vf, vg, crit, alpha)
        out[crit] = {"verdict": v, "score_f": sf, "score_g": sg}
    return out


def _experiment(work: Path, name: str, n: int, seed: int) -> dict:
    spec, _ = simrefs.EXPERIMENTS[name]
    path = work / f"exp_{name}_{'mc' if n else 'exact'}.json"
    path.write_text(json.dumps(dict(spec, N=max(n, 1), seed=seed)))
    return {"ref": name, "path": str(path), "N": n, "seed": seed}


def _small_simulation(rng, work: Path) -> dict:
    return {
        "simulate": [_experiment(work, SMALL_MC[0], SMALL_MC[1], int(rng.integers(2**31)))],
        "simulate_exact": [_experiment(work, SMALL_EXACT, 0, int(rng.integers(2**31)))],
    }


def lattice_j20(rng, work: Path) -> dict:
    j = 20
    names = [f"c{k}" for k in range(11)]
    ps = {name: rm.dirichlet_collection(rng, j) for name in names}
    ps["bad"] = rm.break_collection(ps["c4"])
    ps["small"] = rm.dirichlet_collection(rng, 8)
    us = {"u20": rm.convex_cardinality(rng, j), "u12": rm.convex_cardinality(rng, 12),
          "u8": rm.convex_cardinality(rng, 8)}
    for name, arr in {**ps, **us}.items():
        np.save(work / f"{name}.npy", arr)
    u = us["u20"]
    fam_f, fam_g = ["c5", "c6", "c7"], ["c8", "c9", "c10"]
    return {
        "labels": _labels(j),
        "collections": list(ps),
        "capacities": list(us),
        "perf_names": names[:4],
        "fam_f": fam_f,
        "fam_g": fam_g,
        "models": MODELS,
        "alpha": ALPHA,
        "expect": {
            "validate": {n: _validate_expect(ps[n]) for n in ("c4", "bad")},
            "perf": {meas: {n: rm.perf_value(u, ps[n], meas) for n in names[:4]}
                     for meas in MEASURES},
            "incompat": _incompat_expect(ps["c4"]),
            "compare": _compare_expect(u, [ps[n] for n in fam_f], [ps[n] for n in fam_g]),
        },
        **_small_simulation(rng, work),
    }


def _lattice_files(rng, work: Path, labels: list[str]) -> dict:
    """Collection, capacity and family files for the lattice CLI commands."""
    j = len(labels)
    keys = rm.subset_keys(labels)
    ps = [rm.dirichlet_collection(rng, j) for _ in range(3)]
    bad = rm.break_collection(ps[0])
    u = rm.convex_cardinality(rng, j)
    fams = [[rm.dirichlet_collection(rng, j) for _ in MODELS] for _ in range(2)]
    files = {}

    def dump(name, doc):
        files[name] = str(work / f"{name}.json")
        Path(files[name]).write_text(json.dumps(doc))

    for name, p in (("c0", ps[0]), ("c1", ps[1]), ("c2", ps[2]), ("bad", bad)):
        dump(name, {"axioms": labels, "p": _subset_map(keys, p)})
    dump("cap", {"axioms": labels, "u": _subset_map(keys, u)})
    for name, fam in zip(("fam_f", "fam_g"), fams):
        dump(name, {"axioms": labels, "models": MODELS,
                    "collections": [_subset_map(keys, p) for p in fam]})
    np.save(work / "weights_c1.npy", rm.measure_weights(ps[1], "moebius"))
    np.save(work / "weights_c2.npy", rm.measure_weights(ps[2], "moebius"))
    return {
        "labels": labels,
        "files": files,
        "alpha": ALPHA,
        "expect": {
            "validate": {"c0": _validate_expect(ps[0]), "bad": _validate_expect(bad)},
            "perf": {"c1": rm.perf_value(u, ps[1], "moebius"),
                     "c2": rm.perf_value(u, ps[2], "moebius")},
            "incompat": _incompat_expect(ps[0]),
            "compare": _compare_expect(u, *fams),
        },
    }


def cli_j16(rng, work: Path) -> dict:
    spec = _lattice_files(rng, work, _labels(16))
    spec.update(_small_simulation(rng, work))
    return spec


def simulation(rng, work: Path) -> dict:
    spec = _lattice_files(rng, work, list(simrefs.ALL_SIX))
    spec["simulate"] = [
        _experiment(work, name, n, int(rng.integers(2**31))) for name, n in SIMULATION_N.items()
    ]
    spec["simulate_exact"] = [
        _experiment(work, name, 0, int(rng.integers(2**31))) for name in SIMULATION_EXACT
    ]
    return spec


def _demo_doc(name: str) -> dict:
    return json.loads((DEMO / name).read_text())


def _demo_array(doc: dict, field: str, empty: float) -> np.ndarray:
    index = rm.key_index(doc["axioms"])
    v = np.full(len(index) + 1, empty)
    for key, val in doc[field].items():
        mask = sum(1 << doc["axioms"].index(a) for a in key.split("+"))
        v[mask] = val
    if len(doc[field]) != len(index):
        raise ValueError(f"demo document lacks subsets of {doc['axioms']}")
    return v


def cli_demo(rng, work: Path) -> dict:
    """Expectations for the README's commands on demo/ (the inputs are fixed)."""
    p3 = _demo_array(_demo_doc("collection_three_axioms.json"), "p", 1.0)
    flat = _demo_array(_demo_doc("collection_flat.json"), "p", 1.0)
    steady = _demo_array(_demo_doc("collection_steady.json"), "p", 1.0)
    spiky = _demo_array(_demo_doc("collection_spiky.json"), "p", 1.0)
    synergy = _demo_array(_demo_doc("capacity_synergy.json"), "u", 0.0)
    battery = _demo_array(_demo_doc("capacity_battery.json"), "u", 0.0)
    fams = []
    for name in ("family_copeland.json", "family_plurality.json"):
        doc = _demo_doc(name)
        fams.append([_demo_array({"axioms": doc["axioms"], "p": c}, "p", 1.0)
                     for c in doc["collections"]])
    experiment = _demo_doc("experiment_plurality.json")
    spec, _ = simrefs.EXPERIMENTS["plurality_m3_n3_ic"]
    if {k: experiment[k] for k in spec} != spec:
        raise ValueError("demo/experiment_plurality.json no longer matches its reference")
    sim = {"ref": "plurality_m3_n3_ic", "path": str(DEMO / "experiment_plurality.json"),
           "seed": experiment["seed"]}
    return {
        "labels": _demo_doc("collection_three_axioms.json")["axioms"],
        "expect": {
            "validate": {"three_axioms": _validate_expect(p3), "flat": _validate_expect(flat)},
            "perf": {"collection_steady": rm.perf_value(synergy, steady, "min_diff"),
                     "collection_spiky": rm.perf_value(synergy, spiky, "min_diff"),
                     "weights": {"collection_steady": rm.measure_weights(steady, "min_diff").tolist(),
                                 "collection_spiky": rm.measure_weights(spiky, "min_diff").tolist()}},
            "incompat": _incompat_expect(p3),
            "compare": {"pointwise": _compare_expect(battery, *fams),
                        "alpha_maxmin": _compare_expect(battery, *fams, alpha=0.0)},
        },
        "simulate": [dict(sim, N=experiment["N"])],
        "simulate_exact": [dict(sim, N=0)],
    }


GENERATORS = {"lattice_j20": lattice_j20, "cli_j16": cli_j16, "cli_demo": cli_demo,
              "simulation": simulation}


def generate(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs into ``work``; return the path of its spec."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    spec = GENERATORS[workload](rng, work)
    path = work / "spec.json"
    path.write_text(json.dumps(spec))
    return path
