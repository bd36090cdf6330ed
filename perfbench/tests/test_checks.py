"""Each output check accepts the program's real output and rejects a corrupted one.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re

import numpy as np
import pytest

import gen
import refmath as rm
import simrefs
import workloads
from checks import CheckError, close, mc_close, strict_loads, table_matches
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _perturb(doc):
    """Every float shifted: the smallest change a wrong program could make."""
    if isinstance(doc, float):
        return doc * 1.01 + 0.01
    if isinstance(doc, dict):
        return {k: _perturb(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_perturb(v) for v in doc]
    return doc


def _first_float_to_nan(text):
    doc = json.loads(text)

    def walk(d):
        for k, v in (d.items() if isinstance(d, dict) else enumerate(d)):
            if isinstance(v, float):
                d[k] = math.nan
                return True
            if isinstance(v, (dict, list)) and walk(v):
                return True
        return False

    return json.dumps(doc) if walk(doc) else None


def _cli_cases(state, refs, workload):
    for command, ops in workload.groups(state, refs).items():
        for op in ops:
            yield command, op


def _run(op):
    out = op.fn()
    text = open(op.out_path).read() if op.out_path else out[1]
    return out, text


def _corrupt_and_check(op, out, text):
    """Feed the check the output with ``text`` in place of the real one."""
    if op.out_path:
        with open(op.out_path, "w") as fh:
            fh.write(text)
        op.check((out[0], ""))
    else:
        op.check((out[0], text))


@pytest.fixture(scope="module")
def small_cli(tmp_path_factory):
    """The CLI workload at J = 4, with the small simulation experiments."""
    work = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(7)
    spec = gen._lattice_files(rng, work, ["a0", "a1", "a2", "a3"])
    spec.update(gen._small_simulation(rng, work))
    (work / "spec.json").write_text(json.dumps(spec))
    wl = workloads.LatticeCli()
    return wl.build(spec, work), wl


def test_cli_checks_accept_real_output_and_reject_corruption(small_cli):
    state, wl = small_cli
    refs = simrefs.load()
    for command, op in _cli_cases(state, refs, wl):
        out, text = _run(op)
        _corrupt_and_check(op, out, text)  # the real output passes
        for bad in (json.dumps(_perturb(json.loads(text))), _first_float_to_nan(text)):
            if bad is None:
                continue
            op.fn()
            with pytest.raises(CheckError):
                _corrupt_and_check(op, out, bad)
        op.fn()
        with pytest.raises(CheckError):  # an unexpected exit code
            op.check((out[0] + 1, ""))


def test_demo_table_checks_reject_a_changed_digit(tmp_path):
    spec = gen.cli_demo(None, tmp_path)
    wl = workloads.CliDemo()
    state = wl.build(spec, tmp_path)
    checked = 0
    for command, op in _cli_cases(state, simrefs.load(), wl):
        out, text = _run(op)
        op.check(out)
        if text.lstrip().startswith("{"):
            continue
        numbers = list(re.finditer(r"\d\.\d{6}", text))
        if not numbers:
            continue
        i = numbers[-1].end() - 4  # a digit well above the rounding
        bad = text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]
        with pytest.raises(CheckError):
            op.check((out[0], bad))
        checked += 1
    assert checked >= 6


def test_library_checks_reject_corruption():
    import axiometer as A

    rng = np.random.default_rng(3)
    labels = [f"a{i}" for i in range(6)]
    ax = A.AxiomSet(tuple(labels))
    p = rm.dirichlet_collection(rng, 6)
    bad = rm.break_collection(p)
    for q in (p, bad):
        exp = gen._validate_expect(q)
        member = A.is_member(A.Collection(ax, q))
        bounds = A.frechet_check(A.Collection(ax, q))
        fre = [(v.subset, v.kind, labels.index(v.axiom), v.slack) for v in bounds.frechet_violations]
        workloads.check_validate(workloads._validate_form(member.feasible, member.negative_contributions, fre), exp, "v")
        with pytest.raises(CheckError):
            workloads.check_validate(workloads._validate_form(not member.feasible, member.negative_contributions, fre), exp, "v")
    negs = A.is_member(A.Collection(ax, bad)).negative_contributions
    exp = gen._validate_expect(bad)
    with pytest.raises(CheckError):
        workloads.check_validate(workloads._validate_form(False, negs[1:], []), exp, "v")
    with pytest.raises(CheckError):
        workloads.check_validate(workloads._validate_form(False, [(m, v * 0.9) for m, v in negs], []), exp, "v")

    u = rm.convex_cardinality(rng, 6)
    cap = A.Capacity(ax, u)
    cs = {f"c{k}": rm.dirichlet_collection(rng, 6) for k in range(3)}
    values = {n: rm.perf_value(u, q, "min_diff") for n, q in cs.items()}
    ranked = A.rank([(n, A.Collection(ax, q)) for n, q in cs.items()], cap, "min_diff")
    entries = [(e.rank, e.name, e.value, None) for e in ranked]
    workloads.check_ranking(entries, values, "rank")
    with pytest.raises(CheckError):
        workloads.check_ranking(entries[::-1], values, "rank")
    with pytest.raises(CheckError):
        workloads.check_ranking([(r, n, v + 1e-6, w) for r, n, v, w in entries], values, "rank")

    exp = gen._incompat_expect(cs["c0"])
    alloc = A.shapley(A.Collection(ax, cs["c0"]))
    workloads.check_incompat(alloc.values, alloc.total, None, exp, "shapley", "s")
    with pytest.raises(CheckError):
        workloads.check_incompat(alloc.values[::-1], alloc.total, None, exp, "shapley", "s")
    alloc = A.banzhaf(A.Collection(ax, cs["c0"]))
    with pytest.raises(CheckError):
        workloads.check_incompat(alloc.values, alloc.total, None, exp, "shapley", "s")

    fams = [[rm.dirichlet_collection(rng, 6) for _ in range(3)] for _ in range(2)]
    exp = gen._compare_expect(u, *fams)
    families = [A.CollectionFamily(ax, tuple(A.Collection(ax, q) for q in f), tuple(gen.MODELS)) for f in fams]
    c = A.compare_pointwise(cap, *families)
    workloads.check_compare(c.verdict, None, (c.values_f, c.values_g), exp, "pointwise", "c")
    with pytest.raises(CheckError):
        workloads.check_compare(c.verdict, None, (c.values_g, c.values_f), exp, "pointwise", "c")
    wrong = "incomparable" if c.verdict != "incomparable" else "better"
    with pytest.raises(CheckError):
        workloads.check_compare(wrong, None, (c.values_f, c.values_g), exp, "pointwise", "c")


def test_simulation_checks():
    refs = simrefs.load()
    entry = {"ref": "plurality_m3_n3_ic", "N": 100_000, "seed": 1}
    sim = workloads.SimRef(refs, entry)
    exact = workloads.SimRef(refs, dict(entry, N=0))
    exact.check(sim.p.copy(), None)
    with pytest.raises(CheckError):
        exact.check(sim.p + 1e-8, None)
    # an estimate one standard error off passes; ten off does not
    se = np.sqrt(sim.p * (1 - sim.p) / sim.n)
    p = np.clip(sim.p + se, 0, 1)
    sim.check(p, np.sqrt(p[1:] * (1 - p[1:]) / sim.n), sim.n, sim.seed)
    p = np.clip(sim.p - 10 * np.maximum(se, 1e-3), 0, 1)
    with pytest.raises(CheckError):
        sim.check(p, np.sqrt(p[1:] * (1 - p[1:]) / sim.n), sim.n, sim.seed)
    with pytest.raises(CheckError):  # stderr that does not match p
        sim.check(sim.p, np.zeros(7), sim.n, sim.seed)
    with pytest.raises(CheckError):
        sim.check(sim.p, np.sqrt(sim.p[1:] * (1 - sim.p[1:]) / sim.n), sim.n + 1, sim.seed)


def test_mc_bound_floors_the_standard_error_at_zero_probability():
    n = 200_000
    mc_close(np.array([0.0, 2.0 / n]), None, n, np.zeros(2), 2_000_000, "floor")
    with pytest.raises(CheckError):
        mc_close(np.array([0.0, 50.0 / n]), None, n, np.zeros(2), 2_000_000, "floor")


def test_strict_json_and_close():
    assert strict_loads('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', "{"):
        with pytest.raises(CheckError):
            strict_loads(text)
    close([1.0, 2.0], [1.0, 2.0 + 1e-12], "ok")
    for bad in ([1.0, math.nan], [1.0, 2.1], [1.0]):
        with pytest.raises(CheckError):
            close(bad, [1.0, 2.0], "bad")
    table_matches("x 0.500000\ny -0.250000", [-0.25, 0.5], "t")
    with pytest.raises(CheckError):
        table_matches("x 0.500000\ny -0.250000", [0.25, 0.5], "t")
    with pytest.raises(CheckError):
        table_matches("x 0.500000", [0.25, 0.5], "t")


def test_tracer_self_times_sum_to_wall_and_missing_names_are_reported(monkeypatch):
    import axiometer as A
    import tracer as tr
    import worker

    rng = np.random.default_rng(5)
    ax = A.AxiomSet(tuple(f"a{i}" for i in range(10)))
    c = A.Collection(ax, rm.dirichlet_collection(rng, 10))
    cap = A.Capacity(ax, rm.convex_cardinality(rng, 10))
    monkeypatch.setattr(tr, "WRAPS", tr.WRAPS + [("axiometer.performance", "no_such_function", "performance.gone")])
    t = tr.Tracer()
    assert t.missing == ["axiometer.performance.no_such_function"]
    out, wall = t.run_op(1, "perf", lambda: A.rank([("c", c)], cap, "moebius"))
    assert out[0].name == "c"
    assert A.rank.__module__ == "axiometer.performance" and not hasattr(A.rank, "__wrapped__")
    assert abs(sum(t.self_s.values()) - wall) < 1e-9
    assert t.self_s["collections.is_member"] > 0 and t.self_s["lattice.transform"] > 0
    assert t.counts["lattice.transform_calls"] == 2  # is_member, then contributions
    runner = worker.Runner(t)
    runner.op_id, runner.untraced_s, runner.traced_s = 2, wall, wall
    metrics = worker.layer_metrics(t, runner, 1, workloads.COMMANDS)
    assert metrics["trace.missing_wraps"] == 1
    assert metrics["performance.gone_s"] == -1.0
