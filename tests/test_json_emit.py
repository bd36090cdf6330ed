"""The CLI's JSON emitter: the text of ``json.dumps(indent=2)``, in parts.

``cli._json_parts`` walks dicts and lists itself and C-encodes each dict of
exact floats in one call.  Its text must equal ``json.dumps(obj, indent=2,
allow_nan=False)`` byte for byte, refuse non-finite floats as that does, and
hold less memory than the one-string dump it replaces.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiometer import AxiomSet, capacity_to_json, collection_to_json, family_to_json
from axiometer import evaluate, random_collection
from axiometer.cli import _emit, _json_parts, main
from axiometer.lattice import subset_map
from axiometer.robustness import CollectionFamily

from conftest import random_capacity


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# keys with non-ASCII characters, quotes, backslashes and control characters
KEYS = st.text(st.sampled_from('ab"\\\x00\x1f\n\t/é€\U0001f600'), max_size=4) | st.text(max_size=4)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64), KEYS
)
FLAT_MAPS = st.dictionaries(KEYS, FLOATS, max_size=6)
PAYLOADS = st.recursive(
    SCALARS | FLAT_MAPS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_text_equals_json_dumps_indent_2(obj):
    assert "".join(_json_parts(obj, [])) == dumps(obj)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, [[], ()], {"": -0.0}, [5e-324, 1e308]])
def test_edge_payloads(obj):
    assert "".join(_json_parts(obj, [])) == dumps(obj)


NON_FINITE = [
    {"a1": 0.5, "a2": bad} for bad in (float("nan"), float("inf"), -float("inf"))
] + [
    {"ranking": [{"name": "c", "weights": {"a1": 0.5}, "value": bad}]}
    for bad in (float("nan"), float("inf"), -float("inf"))
] + [[1.0, np.float64("nan")]]


@pytest.mark.parametrize("obj", NON_FINITE)
def test_non_finite_floats_raise_and_write_no_file(obj, tmp_path):
    with pytest.raises(ValueError):
        dumps(obj)
    with pytest.raises(ValueError):
        _json_parts(obj, [])
    out = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _emit(argparse.Namespace(format="json", out=str(out)), obj, lambda: "")
    assert not out.exists()


# -- every command at J = 12: --out text, stdout text and json.dumps agree ----------


@pytest.fixture(scope="module")
def j12(tmp_path_factory):
    root = tmp_path_factory.mktemp("j12")
    axioms = AxiomSet(tuple(f"a{i}" for i in range(12)))
    rng = np.random.default_rng(1201)
    collections = [random_collection(axioms, rng) for _ in range(5)]
    bad = collection_to_json(collections[0])
    bad["p"]["a1+a2"] = 0.99  # above p[a1]: a negative contribution
    docs = {
        "c0": collection_to_json(collections[0]),
        "c1": collection_to_json(collections[1]),
        "bad": bad,
        "cap": capacity_to_json(random_capacity(rng, axioms)),
        "fam_f": family_to_json(CollectionFamily(axioms, tuple(collections[1:3]), ("m0", "m1"))),
        "fam_g": family_to_json(CollectionFamily(axioms, tuple(collections[3:5]), ("m0", "m1"))),
        "exp": {"rule": "copeland", "axioms": ["condorcet_consistency", "pareto", "monotonicity_pair"],
                "m": 3, "n": 4, "sampler": {"kind": "impartial_culture"}, "N": 2000, "seed": 7},
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in docs}


CASES = [
    (["validate", "c0"], 0),
    (["validate", "bad"], 1),
    *((["perf", "cap", "c0", "c1", "--measure", m], 0)
      for m in ("moebius", "weighted_sum", "min_diff")),
    *((["incompat", "c0", "--method", m], 0) for m in ("shapley", "banzhaf")),
    *((["compare", "cap", "fam_f", "fam_g", "--criterion", c], 0)
      for c in ("alpha_maxmin", "max_and_min", "pointwise", "min_vs_max")),
    (["simulate", "exp"], 0),
    (["simulate", "exp", "--exact"], 0),
]


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_cli_json_at_j12_is_json_dumps_indent_2(argv, code, j12, tmp_path, capsys):
    argv = [j12.get(a, a) for a in argv] + ["--format", "json"]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert main(argv) == code
    printed = capsys.readouterr().out
    written = out.read_text(encoding="utf-8")
    assert written == printed
    assert written == dumps(json.loads(written)) + "\n"


# -- memory ------------------------------------------------------------------------


def test_emit_holds_less_memory_than_one_indented_dump(tmp_path):
    axioms = AxiomSet(tuple(f"a{i}" for i in range(16)))
    rng = np.random.default_rng(1601)
    cap = random_capacity(rng, axioms)
    ranking = []
    for rank, name in enumerate(("c1", "c2"), 1):
        result = evaluate(cap, random_collection(axioms, rng), "moebius")
        ranking.append({"rank": rank, "name": name, "value": result.value,
                        "weights": subset_map(axioms, result.weights)})
    payload = {"measure": "moebius", "ranking": ranking}
    args = argparse.Namespace(format="json", out=str(tmp_path / "out.json"))

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    emitted = peak(lambda: _emit(args, payload, lambda: ""))
    dumped = peak(lambda: json.dumps(payload, indent=2))
    # about half (15.0 against 30.6 MB on Python 3.11); an emit that joins the
    # indented dump into one text, as it once did, peaks at the dump's own peak
    assert emitted < 0.75 * dumped, (emitted, dumped)
