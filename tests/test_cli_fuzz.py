"""Fuzz every subcommand with small random documents and flag values.

Whatever the input, the CLI keeps its exit-code contract (0 feasible,
1 infeasible, 2 parse or usage error, 3 size guard), lets no traceback reach
stderr, and writes strict JSON when asked for JSON.  Documents are mostly
well formed with random values, so the numeric layers run too; some have a
key dropped, added or replaced by a value of the wrong type.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from axiometer.cli import main
from axiometer.performance import MEASURE_TAGS
from axiometer.robustness import CRITERION_TAGS
from axiometer.simulation import PUNCTUAL_TAGS, RELATIONAL_TAGS, RULE_TAGS


def mostly(good, bad):
    """Draw from ``good`` most of the time, from ``bad`` now and then."""
    return st.integers(min_value=0, max_value=9).flatmap(lambda i: bad if i == 0 else good)


JUNK = st.sampled_from([None, True, -1, 0, 2.5, "x", "", [], {}, [1, 2], {"a": 1}])
NUMBERS = mostly(
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(
        st.floats(min_value=-0.5, max_value=1.5),
        st.sampled_from([math.nan, math.inf, -math.inf, 2, -1, 10**400]),
    ),
)
FLOAT_TEXT = mostly(
    st.sampled_from(["0", "1e-9", "0.25", "0.5", "1"]),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["-1", "nan", "inf", "abc", ""]),
    ),
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@st.composite
def mutated(draw, doc):
    """``doc`` as is, or with one key dropped, added or given a junk value."""
    how = draw(st.sampled_from(["keep"] * 28 + ["drop", "add", "junk", "replace"]))
    if how == "replace":
        return draw(JUNK)
    doc = dict(doc)
    if how == "drop" and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "add":
        doc["extra"] = draw(JUNK)
    elif how == "junk" and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


@st.composite
def labels(draw):
    good = st.lists(st.sampled_from(["a1", "a2", "a3", "a4"]), min_size=1, max_size=4,
                    unique=True)
    bad = st.lists(st.sampled_from(["a1", "a1", "c+d", ""]), min_size=1, max_size=4)
    return draw(mostly(good, bad))


@st.composite
def subset_map(draw, names):
    """A value for every non-empty subset key, sometimes one key off."""
    keys = ["+".join(c) for r in range(1, len(names) + 1) for c in combinations(names, r)]
    values = {key: draw(NUMBERS) for key in keys}
    how = draw(st.sampled_from(["keep"] * 21 + ["drop", "add", "junk"]))
    if how == "drop" and values:
        del values[draw(st.sampled_from(keys))]
    elif how == "add":
        values["zz"] = 0.5
    elif how == "junk" and values:
        values[draw(st.sampled_from(keys))] = draw(JUNK)
    return values


@st.composite
def probabilities(draw, names):
    if draw(st.booleans()):  # a feasible collection: the subset sums of random worlds
        weights = [draw(st.integers(min_value=0, max_value=3)) for _ in range(1 << len(names))]
        total = sum(weights) or 1
        p = {}
        for r in range(1, len(names) + 1):
            for combo in combinations(range(len(names)), r):
                mask = sum(1 << i for i in combo)
                mass = sum(w for world, w in enumerate(weights) if world & mask == mask)
                p["+".join(names[i] for i in combo)] = mass / total
        return p
    return draw(subset_map(names))


@st.composite
def collection_doc(draw, names=None):
    names = names if names is not None else draw(labels())
    return draw(mutated({"axioms": names, "p": draw(probabilities(names))}))


@st.composite
def estimate_doc(draw, names=None):
    """A ``simulate`` estimate: a collection with "N", "seed" and "stderr"."""
    names = names if names is not None else draw(labels())
    counts = st.integers(min_value=1, max_value=10**6)
    # counts are exact in float64 up to 2**53, so draw the edge often
    edge = st.sampled_from([2**53, 2**53 + 1, 10**20, 10**400])
    doc = {
        "axioms": names,
        "p": draw(probabilities(names)),
        "N": draw(st.one_of(counts, counts, edge, NUMBERS)),
        "seed": draw(mostly(st.integers(min_value=0, max_value=2**40), NUMBERS)),
        "stderr": draw(subset_map(names)),
    }
    return draw(mutated(doc))


def scored_doc(names=None):
    """What validate, perf and incompat read: a collection or an estimate."""
    return st.one_of(collection_doc(names), estimate_doc(names))


@st.composite
def capacity_doc(draw, names):
    return draw(mutated({"axioms": names, "u": draw(subset_map(names))}))


@st.composite
def family_doc(draw, names):
    k = draw(st.integers(min_value=1, max_value=3))
    models = draw(st.lists(st.sampled_from(["m1", "m2", "m3"]), min_size=k, max_size=k))
    collections = [draw(collection_doc(names)) for _ in range(k)]
    maps = [c["p"] if isinstance(c, dict) and "p" in c else c for c in collections]
    return draw(mutated({"axioms": names, "models": models, "collections": maps}))


@st.composite
def experiment_doc(draw):
    tags = list(PUNCTUAL_TAGS + RELATIONAL_TAGS)
    sigma = mostly(
        st.permutations([0, 1, 2]),
        st.lists(st.integers(min_value=-1, max_value=3), min_size=2, max_size=4),
    )
    sampler = draw(st.one_of(
        st.just({"kind": "impartial_culture"}),
        st.builds(lambda phi, sigma: {"kind": "mallows", "phi": phi, "sigma": sigma},
                  NUMBERS, sigma),
    ))
    doc = {
        "rule": draw(st.sampled_from(RULE_TAGS)),
        "axioms": draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3, unique=True)),
        "m": 3,
        "n": draw(st.integers(min_value=1, max_value=3)),
        "sampler": sampler,
        # beyond 2**53 the sample counts are inexact, so simulate must refuse
        # N before it starts drawing
        "N": draw(mostly(st.integers(min_value=1, max_value=200),
                         st.sampled_from([2**53 + 1, 10**20, 10**400]))),
        "seed": draw(st.integers(min_value=0, max_value=2**40)),
    }
    return draw(mutated(doc))


@st.composite
def common_flags(draw):
    flags = []
    if draw(st.booleans()):
        flags.append(f"--tol={draw(FLOAT_TEXT)}")
    flags += ["--format", draw(st.sampled_from(["json", "table"]))]
    return flags


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str]) -> None:
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, err
    if out and argv[argv.index("--format") + 1] == "json":
        json.loads(out, parse_constant=_reject_constant)


def write_all(tmp: str, docs: dict) -> dict:
    paths = {}
    for name, doc in docs.items():
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@SETTINGS
@given(doc=scored_doc(), flags=common_flags())
def test_validate(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(["validate", write_all(tmp, {"c": doc})["c"], *flags])


@SETTINGS
@given(data=st.data(), flags=common_flags(),
       measure=st.sampled_from(MEASURE_TAGS), count=st.integers(min_value=1, max_value=3))
def test_perf(data, flags, measure, count):
    names = data.draw(labels())
    docs = {"cap": data.draw(capacity_doc(names))}
    for i in range(count):
        docs[f"c{i}"] = data.draw(scored_doc(data.draw(mostly(st.just(names), labels()))))
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_all(tmp, docs)
        check_contract(["perf", *paths.values(), "--measure", measure, *flags])


@SETTINGS
@given(doc=scored_doc(), flags=common_flags(),
       method=st.sampled_from(["shapley", "banzhaf"]))
def test_incompat(doc, flags, method):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(["incompat", write_all(tmp, {"c": doc})["c"], "--method", method, *flags])


@SETTINGS
@given(data=st.data(), flags=common_flags(), criterion=st.sampled_from(CRITERION_TAGS),
       measure=st.sampled_from(MEASURE_TAGS), alpha=FLOAT_TEXT)
def test_compare(data, flags, criterion, measure, alpha):
    names = data.draw(labels())
    docs = {
        "cap": data.draw(capacity_doc(names)),
        "f": data.draw(family_doc(names)),
        "g": data.draw(family_doc(data.draw(mostly(st.just(names), labels())))),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_all(tmp, docs)
        check_contract(["compare", paths["cap"], paths["f"], paths["g"], "--criterion",
                        criterion, "--measure", measure, f"--alpha={alpha}", *flags])


@SETTINGS
@given(doc=experiment_doc(), flags=common_flags(), exact=st.booleans(),
       seed=st.one_of(st.none(), st.integers(min_value=-3, max_value=2**70).map(str)))
def test_simulate(doc, flags, exact, seed):
    extra = (["--exact"] if exact else []) + ([f"--seed={seed}"] if seed is not None else [])
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(["simulate", write_all(tmp, {"e": doc})["e"], *extra, *flags])
