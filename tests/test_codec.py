"""The subset-key codec: key tables, the bulk parser and emitter, error messages."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiometer import (
    AxiomSet,
    Capacity,
    ParseError,
    RangeError,
    UnknownAxiomError,
    capacity_from_json,
    capacity_to_json,
    collection_from_json,
    collection_to_json,
    family_from_json,
    family_to_json,
    random_collection,
)
from axiometer.cli import main
from axiometer.lattice import subset_keys, subset_map, subset_masks
from axiometer.robustness import CollectionFamily
from axiometer.simulation import (
    AxiomSpec,
    ImpartialCulture,
    VotingRule,
    estimate_collection,
    estimated_from_json,
    estimated_to_json,
    experiment_from_json,
)

label_lists = st.lists(
    st.text(alphabet="abcxyz019_", min_size=1, max_size=3), min_size=1, max_size=8, unique=True
)


@given(st.integers(1, 10))
@settings(max_examples=10, deadline=None)
def test_subset_keys_join_the_members(j):
    axioms = AxiomSet(tuple(f"a{i}" for i in range(1, j + 1)))
    keys = subset_keys(axioms.labels)
    assert len(keys) == axioms.n_masks
    for m in range(axioms.n_masks):
        assert keys[m] == "+".join(axioms.members(m)) == axioms.subset_key(m)
    assert subset_masks(axioms.labels) == {keys[m]: m for m in axioms.nonempty_masks()}


@given(label_lists, st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_shuffled_names_and_order_parse_to_the_canonical_array(labels, seed, rnd):
    c = random_collection(AxiomSet(tuple(labels)), seed)
    items = list(collection_to_json(c)["p"].items())
    rnd.shuffle(items)
    shuffled = {}
    for key, value in items:
        names = key.split("+")
        rnd.shuffle(names)
        shuffled["+".join(names)] = value
    again = collection_from_json({"axioms": labels, "p": shuffled})
    np.testing.assert_array_equal(again.p, c.p)


@given(label_lists, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_emitter_gives_the_same_floats_as_per_mask_conversion(labels, seed):
    axioms = AxiomSet(tuple(labels))
    u = np.random.default_rng(seed).random(axioms.n_masks)
    u[0] = 0.0
    emitted = subset_map(axioms, u)
    assert list(emitted) == [axioms.subset_key(m) for m in axioms.nonempty_masks()]
    assert all(type(v) is float for v in emitted.values())
    assert list(emitted.values()) == [float(u[m]) for m in axioms.nonempty_masks()]
    cap = capacity_from_json(json.loads(json.dumps(capacity_to_json(Capacity(axioms, u)))))
    np.testing.assert_array_equal(cap.u, u)


AB = ["a1", "a2"]
BASE = {"a1": 1.0, "a2": 0.8, "a1+a2": 0.8}

# Messages as the per-name parser worded them; the table lookup keeps them.
PARSE_ERRORS = [
    ({**BASE, "a9": 0.1}, "bad subset key 'a9': unknown axiom 'a9'"),
    ({**BASE, "a1+a1": 0.1}, "bad subset key 'a1+a1': axiom 'a1' listed twice"),
    ({**BASE, "": 0.1}, "bad subset key '': unknown axiom ''"),
    ({**BASE, "a1+": 0.1}, "bad subset key 'a1+': unknown axiom ''"),
    ({**BASE, "a2+a1": 0.8}, "subset {a1+a2} given twice"),
    # the canonical length and float values, so the key-order check sees them
    ({"a1": 1.0, "a2": 0.8, "a1+a9": 0.8}, "bad subset key 'a1+a9': unknown axiom 'a9'"),
    ({"a1": 1.0, "a1+a1": 0.8, "a1+a2": 0.8}, "bad subset key 'a1+a1': axiom 'a1' listed twice"),
    ({"a1": 1.0, "a2+a1": 0.8, "a1+a2": 0.8}, "subset {a1+a2} given twice"),
    ({**BASE, "a1": True}, "value for 'a1' must be a number, got True"),
    ({**BASE, "a1": "1"}, "value for 'a1' must be a number, got '1'"),
    ({**BASE, "a1": None}, "value for 'a1' must be a number, got None"),
    ({**BASE, "a2": np.int64(0)}, f"value for 'a2' must be a number, got {np.int64(0)!r}"),
    ({"a1": 1.0}, '"p" is missing subsets: a2, a1+a2'),
    ([], '"p" must be an object keyed by subsets'),
    # first bad item in document order wins
    ({"a1": True, "zz": 1.0}, "value for 'a1' must be a number, got True"),
    ({"zz": 1.0, "a1": True}, "bad subset key 'zz': unknown axiom 'zz'"),
    # non-finite values
    ({**BASE, "a1": float("nan")}, '"p" value at subset {a1} must be finite, got nan'),
    ({**BASE, "a1+a2": float("inf")}, '"p" value at subset {a1+a2} must be finite, got inf'),
    ({**BASE, "a1": 10**400}, f"value for 'a1' must be finite, got {10**400!r}"),
]


@pytest.mark.parametrize("mapping, message", PARSE_ERRORS)
def test_parse_error_messages(mapping, message):
    with pytest.raises(ParseError) as info:
        collection_from_json({"axioms": AB, "p": mapping})
    assert str(info.value) == message


def test_missing_subsets_are_listed_in_mask_order_with_a_count():
    with pytest.raises(ParseError) as info:
        capacity_from_json({"axioms": ["a", "b", "c"], "u": {"b+c": 1.0}})
    assert str(info.value) == '"u" is missing subsets: a, b, a+b, c (+2 more)'


PLUS_MAP = {"a+b": 1.0, "c": 1.0, "a+b+c": 1.0}


@pytest.mark.parametrize(
    "parse, doc",
    [
        (collection_from_json, {"axioms": ["a+b", "c"], "p": PLUS_MAP}),
        (capacity_from_json, {"axioms": ["a+b", "c"], "u": PLUS_MAP}),
        (family_from_json, {"axioms": ["a+b", "c"], "models": ["m"], "collections": [PLUS_MAP]}),
    ],
)
def test_labels_containing_plus_are_rejected(parse, doc):
    with pytest.raises(ParseError) as info:
        parse(doc)
    assert str(info.value) == "bad axiom list: label 'a+b' contains '+'"


class _NoDraws(ImpartialCulture):
    def sample(self, rng, m, shape):
        raise AssertionError("drew rankings")


def test_battery_with_a_plus_in_a_name_raises_before_any_draw():
    battery = [AxiomSpec.builtin("pareto"), AxiomSpec(name="a+b", predicate="majority_winner")]
    with pytest.raises(RangeError, match="contains"):
        estimate_collection(
            VotingRule("plurality"), battery, _NoDraws(), m=3, n=3, n_samples=10, seed=0
        )


READERS = [
    (collection_from_json, "collection", ["axioms", "p"]),
    (capacity_from_json, "capacity", ["axioms", "u"]),
    (family_from_json, "family", ["axioms", "collections", "models"]),
    (estimated_from_json, "estimate", ["N", "axioms", "p", "seed", "stderr"]),
    (experiment_from_json, "experiment", ["N", "axioms", "m", "n", "rule", "sampler", "seed"]),
]


@pytest.mark.parametrize("parse, kind, keys", READERS)
def test_readers_share_the_document_shape_errors(parse, kind, keys):
    with pytest.raises(ParseError) as info:
        parse(["axioms"])
    assert str(info.value) == f"{kind} document must be a JSON object"
    for doc in ({"axioms": ["a"]}, {**dict.fromkeys(keys), "extra": 1}):
        with pytest.raises(ParseError) as info:
            parse(doc)
        assert str(info.value) == f"{kind} document must have exactly the keys {keys}"


class _Float(float):
    pass


@pytest.mark.parametrize("convert", [float, np.float64, _Float, lambda v: int(v)])
def test_accepted_value_types(convert):
    values = {"a1": 1.0, "a2": 0.0, "a1+a2": 0.0}
    c = collection_from_json({"axioms": AB, "p": {k: convert(v) for k, v in values.items()}})
    np.testing.assert_array_equal(c.p, [1.0, 1.0, 0.0, 0.0])


def _in_order(mapping: dict, order: str) -> dict:
    """A mask-ordered ``mapping`` with its items in mask, sorted or shuffled order."""
    items = list(mapping.items())
    if order == "sorted":
        items.sort()
    elif order == "shuffled":
        random.Random(5).shuffle(items)
    again = dict(items)
    assert (list(again) == list(mapping)) == (order == "mask")
    return again


@pytest.mark.parametrize("order", ["mask", "sorted", "shuffled"])
def test_every_reader_gives_the_same_array_in_any_key_order(order):
    axioms = AxiomSet(("a1", "a2", "a3", "a4", "a5"))
    c = random_collection(axioms, 3)
    doc = collection_to_json(c)
    doc["p"] = _in_order(doc["p"], order)
    np.testing.assert_array_equal(collection_from_json(doc).p, c.p)

    u = np.random.default_rng(3).random(axioms.n_masks)
    u[0] = 0.0
    doc = capacity_to_json(Capacity(axioms, u))
    doc["u"] = _in_order(doc["u"], order)
    np.testing.assert_array_equal(capacity_from_json(doc).u, u)

    fam = CollectionFamily(axioms, (c, random_collection(axioms, 4)), ("m0", "m1"))
    doc = family_to_json(fam)
    doc["collections"] = [_in_order(m, order) for m in doc["collections"]]
    for a, b in zip(family_from_json(doc).members, fam.members):
        np.testing.assert_array_equal(a.p, b.p)

    battery = [AxiomSpec.builtin(t) for t in ("condorcet_consistency", "majority_winner", "pareto")]
    est = estimate_collection(
        VotingRule("borda"), battery, ImpartialCulture(), m=3, n=4, n_samples=700, seed=3
    )
    doc = estimated_to_json(est)
    doc["stderr"] = _in_order(doc["stderr"], order)
    np.testing.assert_array_equal(estimated_from_json(doc).stderr, est.stderr)


class _CountingDict(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("order", ["mask", "sorted", "shuffled", "respelled"])
def test_a_mask_ordered_map_is_read_without_key_lookups(order):
    axioms = AxiomSet(tuple(f"a{i}" for i in range(1, 7)))
    c = random_collection(axioms, 6)
    p = collection_to_json(c)["p"]
    if order == "respelled":
        p = {("a2+a1" if k == "a1+a2" else k): v for k, v in p.items()}
    else:
        p = _in_order(p, order)
    counted = _CountingDict(p)
    np.testing.assert_array_equal(
        collection_from_json({"axioms": list(axioms.labels), "p": counted}).p, c.p
    )
    if order == "mask":
        assert counted.lookups == 0


DEMO = Path(__file__).resolve().parents[1] / "demo"


def _cli_json(tmp_path, *argv) -> dict:
    out = tmp_path / "out.json"
    assert main([*map(str, argv), "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_cli_json_lists_subset_maps_in_mask_order(tmp_path):
    experiment = DEMO / "experiment_plurality.json"
    est = _cli_json(tmp_path, "simulate", experiment)
    exact = _cli_json(tmp_path, "simulate", experiment, "--exact")
    perf = _cli_json(
        tmp_path, "perf", DEMO / "capacity_synergy.json",
        DEMO / "collection_steady.json", DEMO / "collection_spiky.json",
    )
    cap = json.loads((DEMO / "capacity_synergy.json").read_text())
    maps = [
        (est["axioms"], est["p"]),
        (est["axioms"], est["stderr"]),
        (exact["axioms"], exact["p"]),
        *((cap["axioms"], entry["weights"]) for entry in perf["ranking"]),
    ]
    for labels, mapping in maps:
        mask_order = list(islice(subset_keys(tuple(labels)), 1, None))
        assert mask_order != sorted(mask_order)
        assert list(mapping) == mask_order


def test_an_estimate_the_cli_wrote_is_read_without_key_lookups(tmp_path):
    doc = _cli_json(tmp_path, "simulate", DEMO / "experiment_plurality.json")
    expected = estimated_from_json(doc)
    doc["p"], doc["stderr"] = _CountingDict(doc["p"]), _CountingDict(doc["stderr"])
    again = estimated_from_json(doc)
    assert doc["p"].lookups == doc["stderr"].lookups == 0
    np.testing.assert_array_equal(again.collection.p, expected.collection.p)
    np.testing.assert_array_equal(again.stderr, expected.stderr)


def test_family_roundtrip_is_bit_exact():
    axioms = AxiomSet(("x", "y", "z", "w"))
    fam = CollectionFamily(
        axioms, tuple(random_collection(axioms, s) for s in range(3)), ("m0", "m1", "m2")
    )
    again = family_from_json(json.loads(json.dumps(family_to_json(fam))))
    for a, b in zip(again.members, fam.members):
        np.testing.assert_array_equal(a.p, b.p)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_estimate_roundtrip_is_bit_exact(seed):
    battery = [AxiomSpec.builtin(t) for t in ("condorcet_consistency", "majority_winner", "pareto")]
    est = estimate_collection(
        VotingRule("borda"), battery, ImpartialCulture(), m=3, n=4, n_samples=700, seed=seed
    )
    again = estimated_from_json(json.loads(json.dumps(estimated_to_json(est))))
    for field in ("stderr", "world_counts", "subset_counts"):
        np.testing.assert_array_equal(getattr(again, field), getattr(est, field))
    np.testing.assert_array_equal(again.collection.p, est.collection.p)
    assert (again.n_samples, again.seed) == (est.n_samples, est.seed)


def test_index_and_mask_of_use_the_label_table():
    axioms = AxiomSet(("a1", "a2", "a3"))
    assert [axioms.index(lab) for lab in axioms.labels] == [0, 1, 2]
    assert axioms.mask_of(["a3", "a1"]) == 0b101
    for bad in ("a4", ["a1"]):
        with pytest.raises(UnknownAxiomError):
            axioms.index(bad)


def test_key_tables_are_built_only_on_bulk_use():
    code = (
        "import axiometer\n"
        "from axiometer.lattice import subset_keys\n"
        "a = axiometer.AxiomSet(tuple(f'a{i}' for i in range(20)))\n"
        "a.subset_key(a.full_mask); a.mask_of(['a3', 'a7'])\n"
        "print(subset_keys.cache_info().currsize)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False,
        env={"PYTHONPATH": str(src)},
    )
    assert out.stdout.split() == ["0"], out.stderr
