"""The four workloads: program objects, timed operations and their checks.

Every workload runs the same six commands -- validate, perf, incompat,
compare, simulate and simulate --exact -- so that every end-to-end metric
exists on every workload; the workloads differ in scale and entry point:

* lattice_j20 -- library calls at J = 20 (8 MB arrays, no JSON);
* cli_j16     -- in-process ``axiometer.cli.main`` on generated J = 16 files;
* cli_demo    -- the README's commands on demo/, table and JSON output;
* simulation  -- ``simulate`` on the large Monte Carlo and exact experiments.

An operation is a zero-argument callable; its check raises CheckError.  The
program is reached only through module attributes looked up at call time, so
that the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refmath as rm
import simrefs
from checks import (
    EXACT_TOL,
    close,
    finite_number,
    mc_close,
    require,
    strict_loads,
    subset_array,
    table_matches,
)

COMMANDS = ("validate", "perf", "incompat", "compare", "simulate", "simulate_exact")


@dataclass
class Op:
    name: str
    fn: Callable
    check: Callable
    cli: bool = False  # returns (exit code, stdout)
    out_path: str | None = None  # the --out file of a CLI operation


# -- normalised outputs -------------------------------------------------------
# Library objects and CLI payloads are brought to one form, then compared with
# the expectations that gen.py wrote.


def _validate_form(feasible, negatives, frechet):
    """negatives: [(mask, value)]; frechet: [(mask, kind, bit, slack)]."""
    return {
        "feasible": feasible,
        "neg": {int(m): float(v) for m, v in negatives},
        "frechet": {(int(m), k, int(b)): float(s) for m, k, b, s in frechet},
    }


def check_validate(form: dict, exp: dict, what: str) -> None:
    want = _validate_form(exp["feasible"], exp["negative_contributions"], exp["frechet_violations"])
    require(form["feasible"] == want["feasible"], f"{what}: feasible {form['feasible']}")
    for part in ("neg", "frechet"):
        got, exp_part = form[part], want[part]
        require(set(got) == set(exp_part), f"{what}: {part} subsets differ")
        keys = sorted(exp_part)
        close([got[k] for k in keys], [exp_part[k] for k in keys], f"{what} {part}")


def check_ranking(entries, values: dict, what: str, weights=None) -> None:
    """entries: [(rank, name, value, weights or None)] in output order."""
    require(sorted(e[1] for e in entries) == sorted(values), f"{what}: names differ")
    got = [e[2] for e in entries]
    close(got, [values[e[1]] for e in entries], f"{what} values")
    require(all(a >= b - 1e-9 for a, b in zip(got, got[1:])), f"{what}: not descending")
    require(entries[0][0] == 1 and all(a[0] <= b[0] for a, b in zip(entries, entries[1:])),
            f"{what}: bad ranks")
    for e in entries if weights is not None else ():
        close(e[3], weights[e[1]], f"{what} weights[{e[1]}]")


def check_incompat(values, total, overall, exp: dict, method: str, what: str) -> None:
    close(values, exp[method], f"{what} values")
    close(total, float(np.sum(exp[method])), f"{what} total")
    if method == "shapley":
        close(total, exp["overall"], f"{what} total vs 1 - p[A]")
    if overall is not None:
        close(overall, exp["overall"], f"{what} overall")


def check_compare(verdict, scores, values, exp: dict, criterion: str, what: str) -> None:
    want = exp[criterion]
    require(verdict == want["verdict"], f"{what}: verdict {verdict!r}, want {want['verdict']!r}")
    if scores is not None:
        close(scores, [want["score_f"], want["score_g"]], f"{what} scores")
    if values is not None:
        close(values[0], exp["values_f"], f"{what} values_f")
        close(values[1], exp["values_g"], f"{what} values_g")


class SimRef:
    """Committed reference of one experiment, as a dense array."""

    def __init__(self, refs: dict, entry: dict):
        ref = refs[entry["ref"]]
        self.labels = ref["spec"]["axioms"]
        self.index = rm.key_index(self.labels)
        self.p = subset_array(ref["p"], self.index, entry["ref"])
        self.p[0] = 1.0
        self.ref_n = ref["N"]
        self.n, self.seed, self.name = entry["N"], entry["seed"], entry["ref"]

    def check(self, p, stderr, n=None, seed=None, rounding=0.0) -> None:
        if not self.n:
            close(p, self.p, f"{self.name} exact", max(EXACT_TOL, rounding))
            return
        require(n in (None, self.n), f"{self.name}: N = {n}, want {self.n}")
        require(seed in (None, self.seed), f"{self.name}: seed = {seed}, want {self.seed}")
        mc_close(p, None, self.n, self.p, self.ref_n, self.name)
        close(stderr, np.sqrt(p[1:] * (1 - p[1:]) / self.n), f"{self.name} stderr",
              max(1e-12, rounding))


# -- CLI payload checks -------------------------------------------------------


def cli_check(kind: str, exp, index: dict, labels, fmt: str, rc_want: int = 0, **kw):
    """Check of one CLI run's (exit code, text); ``kind`` names the command."""

    def check(result):
        rc, text = result
        require(rc == rc_want, f"{kind}: exit code {rc}, want {rc_want}")
        if fmt == "json":
            CHECKS_JSON[kind](strict_loads(text), exp, index, labels, **kw)
        else:
            CHECKS_TABLE[kind](text, exp, index, labels, **kw)

    return check


def _json_validate(doc, exp, index, labels):
    require(doc["checks"] == "full" and doc["tolerance"] == 1e-9, "validate: header fields")
    neg = [(index[e["subset"]] if e["subset"] else 0, finite_number(e["value"], "value"))
           for e in doc["negative_contributions"]]
    fre = [(index[e["subset"]], e["kind"], labels.index(e["axiom"]), finite_number(e["slack"], "slack"))
           for e in doc["frechet_violations"]]
    check_validate(_validate_form(doc["feasible"], neg, fre), exp, "validate")


def _table_validate(text, exp, index, labels):
    require(text.startswith(f"feasible: {'yes' if exp['feasible'] else 'no'}\n"), "validate: verdict line")
    nums = [v for _, v in exp["negative_contributions"]] + [v[3] for v in exp["frechet_violations"]]
    table_matches(text, nums, "validate table")


def _json_perf(doc, exp, index, labels, measure, weights):
    require(doc["measure"] == measure, "perf: measure")
    entries = [(e["rank"], e["name"], finite_number(e["value"], "value"),
                subset_array(e["weights"], index, "weights")) for e in doc["ranking"]]
    check_ranking(entries, exp, "perf", weights)


def _table_perf(text, exp, index, labels, measure, weights):
    require(text.startswith(f"measure: {measure}\n"), "perf: header")
    nums = list(exp.values()) + [w for ws in weights.values() for w in ws[1:]]
    table_matches(text, nums, "perf table")


def _json_incompat(doc, exp, index, labels, method):
    require(doc["method"] == method, "incompat: method")
    values = [finite_number(doc["values"][lab], lab) for lab in labels]
    require(len(doc["values"]) == len(labels), "incompat: axiom count")
    check_incompat(values, doc["total"], doc["overall_incompatibility"], exp, method, "incompat")


def _table_incompat(text, exp, index, labels, method):
    require(text.startswith(f"method: {method}\n"), "incompat: header")
    nums = exp[method] + [sum(exp[method])] + ([exp["overall"]] if method == "shapley" else [])
    table_matches(text, nums, "incompat table")


def _json_compare(doc, exp, index, labels, criterion, models):
    require(doc["criterion"] == criterion, "compare: criterion")
    if criterion == "alpha_maxmin":
        check_compare(doc["verdict"], [doc["score_f"], doc["score_g"]], None, exp, criterion, "compare")
    else:
        values = [[finite_number(doc[k][m], k) for m in models] for k in ("values_f", "values_g")]
        check_compare(doc["verdict"], None, values, exp, criterion, "compare")


def _table_compare(text, exp, index, labels, criterion, models):
    want = exp[criterion]
    require(f"\nverdict: {want['verdict']}\n" in text, "compare: verdict line")
    nums = [want["score_f"], want["score_g"]] if criterion == "alpha_maxmin" else exp["values_f"] + exp["values_g"]
    table_matches(text, nums, "compare table")


def _json_simulate(doc, exp, index, labels):
    sim: SimRef = exp
    p = subset_array(doc["p"], sim.index, "p")
    p[0] = 1.0
    if sim.n:
        require(set(doc) == {"axioms", "p", "N", "seed", "stderr"}, "simulate: keys")
        sim.check(p, subset_array(doc["stderr"], sim.index, "stderr")[1:], doc["N"], doc["seed"])
    else:
        require(set(doc) == {"axioms", "p"}, "simulate --exact: keys")
        sim.check(p, None)


_ROW = re.compile(r"^\{(.*)\}  (\S+)(?:  (\S+))?$")


def _table_simulate(text, exp, index, labels):
    sim: SimRef = exp
    lines = text.splitlines()
    require(lines[0] == "subset  p" + ("  stderr" if sim.n else ""), "simulate: header")
    p = np.ones(len(sim.index) + 1)
    stderr = np.zeros(len(sim.index) + 1)
    seen = set()
    for line in lines[1:]:
        m = _ROW.match(line)
        require(m is not None and m.group(1) in sim.index, f"simulate: bad row {line!r}")
        mask = sim.index[m.group(1)]
        seen.add(mask)
        p[mask] = float(m.group(2))
        stderr[mask] = float(m.group(3) or 0.0)
    require(len(seen) == len(sim.index), "simulate: rows missing")
    sim.check(p, stderr[1:], rounding=1e-6)


CHECKS_JSON = {"validate": _json_validate, "perf": _json_perf, "incompat": _json_incompat,
               "compare": _json_compare, "simulate": _json_simulate}
CHECKS_TABLE = {"validate": _table_validate, "perf": _table_perf, "incompat": _table_incompat,
                "compare": _table_compare, "simulate": _table_simulate}


def cli_call(state, argv, out_path=None):
    """Operation that runs ``axiometer.cli.main(argv)`` and returns (exit code, output)."""
    argv = argv + (["--out", out_path] if out_path else [])

    def fn():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = state.cli.main(argv)
        return rc, stdout.getvalue()

    def read(result):
        """The --out file replaces stdout; it is removed so no stale file can pass."""
        rc, text = result
        if out_path:
            require(not text, "output written to stdout despite --out")
            path = Path(out_path)
            require(path.exists(), "no --out file written")
            text = path.read_text()
            path.unlink()
        return rc, text

    return fn, read


# -- workloads ------------------------------------------------------------------


class State:
    """Program objects a workload builds before timing starts."""

    def __init__(self, spec: dict, work: Path):
        import axiometer
        import axiometer.cli

        self.A, self.cli, self.spec, self.work = axiometer, axiometer.cli, spec, work


def _sim_ops(state, refs, entries, library: bool, exact: bool) -> list:
    """simulate (or simulate --exact) on each experiment, via the library or the CLI."""
    ops = []
    for k, entry in enumerate(entries):
        sim = SimRef(refs, entry)
        if library:
            spec_obj = state.experiments[entry["path"]]
            fn = (lambda s=spec_obj: state.A.simulation.run_experiment(s, exact=exact))
            ops.append(Op(sim.name, fn, _library_sim_check(sim, exact)))
        else:
            argv = ["simulate", entry["path"]] + (["--exact"] if exact else [])
            out = str(state.work / f"out_sim{int(exact)}_{k}.json")
            ops.append(_cli_op(state, sim.name, argv, out,
                               cli_check("simulate", sim, sim.index, sim.labels, "json")))
    return ops


def _library_sim_check(sim: SimRef, exact: bool):
    def check(result):
        if exact:
            sim.check(np.asarray(result.p), None)
        else:
            sim.check(np.asarray(result.collection.p), np.asarray(result.stderr)[1:],
                      result.n_samples, result.seed)

    return check


def _cli_op(state, name, argv, out_path, check) -> Op:
    fn, read = cli_call(state, argv, out_path)
    return Op(name, fn, lambda result: check(read(result)), True, out_path)


class LatticeJ20:
    """Library calls at J = 20: the numeric layers without the JSON codec."""

    def build(self, spec: dict, work: Path) -> State:
        s = State(spec, work)
        A = s.A
        ax = A.AxiomSet(tuple(spec["labels"]))

        def load(name):
            v = np.load(work / f"{name}.npy")
            return A.AxiomSet(tuple(f"a{i}" for i in range(len(v).bit_length() - 1))), v

        s.c = {n: A.Collection(*load(n)) for n in spec["collections"]}
        s.u = {n: A.Capacity(*load(n)) for n in spec["capacities"]}
        s.fam_f = A.CollectionFamily(ax, tuple(s.c[n] for n in spec["fam_f"]), tuple(spec["models"]))
        s.fam_g = A.CollectionFamily(ax, tuple(s.c[n] for n in spec["fam_g"]), tuple(spec["models"]))
        s.experiments = {
            e["path"]: A.simulation.experiment_from_json(json.loads(Path(e["path"]).read_text()))
            for e in spec["simulate"] + spec["simulate_exact"]
        }
        return s

    def groups(self, s: State, refs: dict) -> dict:
        A, spec, exp = s.A, s.spec, s.spec["expect"]
        cap = s.u["u20"]

        def validate(name):
            def fn():
                return A.is_member(s.c[name]), A.frechet_check(s.c[name])

            def check(out):
                member, bounds = out
                require(member.checks == "full" and bounds.checks == "frechet", "validate: checks")
                require(bounds.feasible is (False if bounds.frechet_violations else None),
                        "frechet_check: verdict")
                fre = [(v.subset, v.kind, spec["labels"].index(v.axiom), v.slack)
                       for v in bounds.frechet_violations]
                check_validate(_validate_form(member.feasible, member.negative_contributions, fre),
                               exp["validate"][name], f"validate {name}")
                if not member.feasible:
                    require({(v.subset, v.kind, v.axiom) for v in member.frechet_violations}
                            == {(v.subset, v.kind, v.axiom) for v in bounds.frechet_violations},
                            "is_member: Frechet part")

            return Op(f"validate {name}", fn, check)

        def capacity(name, flags):
            def check(report):
                got = (report.monotone, report.strict, report.superadditive,
                       report.subadditive, report.additivity_checked)
                require(got == flags, f"validate_capacity {name}: {got}, want {flags}")

            return Op(f"validate_capacity {name}", lambda: A.validate_capacity(s.u[name]), check)

        def perf(measure):
            entries = [(n, s.c[n]) for n in spec["perf_names"]]

            def check(ranked):
                check_ranking([(e.rank, e.name, e.value, None) for e in ranked],
                              exp["perf"][measure], f"rank {measure}")

            return Op(f"rank {measure}", lambda: A.rank(entries, cap, measure), check)

        def incompat(method):
            fn = (lambda: A.shapley(s.c["c4"])) if method == "shapley" else (lambda: A.banzhaf(s.c["c4"]))

            def check(alloc):
                require(alloc.method == method, "incompat: method")
                check_incompat(alloc.values, alloc.total, None, exp["incompat"], method, method)

            return Op(method, fn, check)

        cmp_exp = exp["compare"]
        alpha = spec["alpha"]

        def scores():
            return (A.alpha_maxmin_score(cap, s.fam_f, alpha), A.alpha_maxmin_score(cap, s.fam_g, alpha))

        def check_scores(out):
            sf, sg = out
            verdict = "equivalent" if abs(sf - sg) <= 1e-9 else ("better" if sf > sg else "worse")
            check_compare(verdict, [sf, sg], None, cmp_exp, "alpha_maxmin", "alpha_maxmin")

        def comparison(criterion, fn):
            def check(c):
                require(c.criterion == criterion, "compare: criterion")
                check_compare(c.verdict, None, (c.values_f, c.values_g), cmp_exp, criterion, criterion)

            return Op(criterion, lambda: fn(cap, s.fam_f, s.fam_g), check)

        return {
            "validate": [validate("c4"), validate("bad"),
                         capacity("u20", (True, True, None, None, False)),
                         capacity("u12", (True, True, True, False, True))],
            "perf": [perf(m) for m in ("moebius", "weighted_sum", "min_diff")],
            "incompat": [incompat("shapley"), incompat("banzhaf")],
            "compare": [Op("alpha_maxmin", scores, check_scores),
                        comparison("max_and_min", lambda *a: A.compare_max_and_min(*a)),
                        comparison("pointwise", lambda *a: A.compare_pointwise(*a))],
            "simulate": _sim_ops(s, refs, spec["simulate"], True, False),
            "simulate_exact": _sim_ops(s, refs, spec["simulate_exact"], True, True),
        }

    def oracles(self, s: State) -> list:
        return (lattice_identities(s.A, s.c["c0"], s.u["u20"], "J=20")
                + lattice_identities(s.A, s.c["small"], s.u["u8"], "J=8"))


def lattice_identities(A, c, cap, what: str) -> list:
    """Program identities, plus the brute-force oracles where J <= 8."""

    def reconstruct():
        close(A.reconstruct(A.contributions(c)).p, c.p, f"{what} reconstruct(contributions)")

    def perf_is_dot():
        alpha = A.contributions(c).alpha
        close(A.evaluate(cap, c, "moebius").value, float(np.dot(cap.u[1:], alpha[1:])), f"{what} perf = <u, alpha>")

    def shapley_total():
        close(A.shapley(c).total, 1.0 - c.p[-1], f"{what} Shapley total = 1 - p[A]")

    def shapley_routes():
        close(A.shapley(c).values, A.shapley_via_moebius(c).values, f"{what} shapley = shapley_via_moebius")

    checks = [reconstruct, perf_is_dot, shapley_total, shapley_routes]
    if c.axioms.size <= 8:
        def worlds():
            close(A.worlds_matrix(c.axioms) @ A.contributions(c).alpha, c.p[1:], f"{what} worlds matrix")

        def bruteforce():
            close(A.shapley(c).values, A.shapley_bruteforce(c).values, f"{what} shapley = bruteforce")

        checks += [worlds, bruteforce]
    return [(f"{what} {f.__name__}", f) for f in checks]


class LatticeCli:
    """In-process CLI on generated files (cli_j16 at J = 16, simulation at J = 6)."""

    def build(self, spec: dict, work: Path) -> State:
        """The CLI's own set-up: import, then the argument parser."""
        s = State(spec, work)
        s.parser = s.cli.build_parser()
        return s

    def groups(self, s: State, refs: dict) -> dict:
        spec, exp, f = s.spec, s.spec["expect"], s.spec["files"]
        labels = spec["labels"]
        index = rm.key_index(labels)
        weights = {n: np.load(s.work / f"weights_{n}.npy") for n in ("c1", "c2")}
        models = ["impartial_culture", "mallows_phi_0.8", "mallows_phi_0.5"]

        def op(name, kind, argv, expect, rc=0, **kw):
            out = str(s.work / f"out_{len(ops)}.json")
            ops.append(_cli_op(s, name, argv + ["--format", "json"], out,
                               cli_check(kind, expect, index, labels, "json", rc, **kw)))
            return ops[-1]

        ops: list = []
        return {
            "validate": [op("validate c0", "validate", ["validate", f["c0"]], exp["validate"]["c0"]),
                         op("validate bad", "validate", ["validate", f["bad"]], exp["validate"]["bad"], 1)],
            "perf": [op("perf", "perf", ["perf", f["cap"], f["c1"], f["c2"]], exp["perf"],
                        measure="moebius", weights=weights)],
            "incompat": [op(f"incompat {m}", "incompat", ["incompat", f["c0"], "--method", m],
                            exp["incompat"], method=m) for m in ("shapley", "banzhaf")],
            "compare": [op(f"compare {c}", "compare",
                           ["compare", f["cap"], f["fam_f"], f["fam_g"], "--criterion", c],
                           exp["compare"], criterion=c, models=models)
                        for c in ("alpha_maxmin", "pointwise")],
            "simulate": _sim_ops(s, refs, spec["simulate"], False, False),
            "simulate_exact": _sim_ops(s, refs, spec["simulate_exact"], False, True),
        }

    def oracles(self, s: State) -> list:
        A, f = s.A, s.spec["files"]
        c = A.collection_from_json(json.loads(Path(f["c0"]).read_text()))
        cap = A.capacity_from_json(json.loads(Path(f["cap"]).read_text()))
        return lattice_identities(A, c, cap, f"J={c.axioms.size}")


class CliDemo(LatticeCli):
    """The README's commands, verbatim on demo/, each with its other-format twin."""

    def groups(self, s: State, refs: dict) -> dict:
        exp, labels = s.spec["expect"], s.spec["labels"]
        index = rm.key_index(labels)
        models = ["impartial_culture", "mallows_phi_0.8"]
        weights = {n: np.asarray(w) for n, w in exp["perf"]["weights"].items()}
        values = {n: v for n, v in exp["perf"].items() if n != "weights"}
        sim = SimRef(refs, s.spec["simulate"][0])
        exact = SimRef(refs, s.spec["simulate_exact"][0])

        def twins(name, kind, argv, expect, rc=0, default="table", **kw):
            other = "json" if default == "table" else "table"
            return [
                _cli_op(s, f"{name} {default}", argv, None,
                        cli_check(kind, expect, index, labels, default, rc, **kw)),
                _cli_op(s, f"{name} {other}", argv + ["--format", other], None,
                        cli_check(kind, expect, index, labels, other, rc, **kw)),
            ]

        three, flat = "demo/collection_three_axioms.json", "demo/collection_flat.json"
        fams = ["demo/capacity_battery.json", "demo/family_copeland.json", "demo/family_plurality.json"]
        return {
            "validate": twins("validate three_axioms", "validate", ["validate", three],
                              exp["validate"]["three_axioms"])
            + twins("validate flat", "validate", ["validate", flat], exp["validate"]["flat"], 1),
            "perf": twins("perf", "perf",
                          ["perf", "demo/capacity_synergy.json", "demo/collection_steady.json",
                           "demo/collection_spiky.json", "--measure", "min_diff"],
                          values, measure="min_diff", weights=weights),
            "incompat": twins("incompat", "incompat", ["incompat", three, "--method", "shapley"],
                              exp["incompat"], method="shapley"),
            "compare": twins("compare pointwise", "compare",
                             ["compare", *fams, "--criterion", "pointwise"],
                             exp["compare"]["pointwise"], criterion="pointwise", models=models)
            + twins("compare alpha_maxmin", "compare",
                    ["compare", *fams, "--criterion", "alpha_maxmin", "--alpha", "0"],
                    exp["compare"]["alpha_maxmin"],
                    criterion="alpha_maxmin", models=models),
            "simulate": twins("simulate", "simulate", ["simulate", "demo/experiment_plurality.json"],
                              sim, default="json"),
            "simulate_exact": twins("simulate --exact", "simulate",
                                    ["simulate", "demo/experiment_plurality.json", "--exact"],
                                    exact, default="json"),
        }

    def oracles(self, s: State) -> list:
        A = s.A
        load = lambda p: json.loads(Path(p).read_text())  # noqa: E731
        c = A.collection_from_json(load("demo/collection_three_axioms.json"))
        cap = A.capacity_from_json(load("demo/capacity_synergy.json"))
        return lattice_identities(A, c, cap, "demo")


WORKLOADS = {"lattice_j20": LatticeJ20(), "cli_j16": LatticeCli(), "cli_demo": CliDemo(),
             "simulation": LatticeCli()}
#: The calibration task each workload is measured against (calibration.py):
#: bandwidth-bound numpy for the J = 20 library calls, both tasks for the
#: mixed numpy and Python work of the others.  Chosen from runs of this
#: benchmark, as the task whose normalised times spread least across seeds.
SPEED_TASK = {"lattice_j20": "numpy", "cli_j16": "both", "cli_demo": "both",
              "simulation": "both"}
