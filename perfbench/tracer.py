"""Spans around the program's public functions, recorded from outside it.

Each traced name is replaced, for the length of one traced operation, by a
wrapper in every axiometer module that holds it (``from .x import f`` binds
``f`` in the importing module, and callers look it up there).  A span is
(name, start, end, parent, op id); spans stay in memory and are written out
at the end.  A layer's self time is its span's duration minus the durations
of its child spans, so the self times of one operation sum to its wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROOT = "bench.op"
COUNTER = "trace.counter"

#: (module, attribute path, span name).  Several functions may share a span
#: name; ``{command}`` is replaced by the command of the running operation.
WRAPS = [
    ("axiometer.lattice", "zeta_superset", "lattice.transform"),
    ("axiometer.lattice", "moebius_superset", "lattice.transform"),
    ("axiometer.lattice", "zeta_subset", "lattice.transform"),
    ("axiometer.lattice", "moebius_subset", "lattice.transform"),
    ("axiometer.collections", "is_member", "collections.is_member"),
    ("axiometer.collections", "require_member", "collections.is_member"),
    ("axiometer.collections", "frechet_check", "collections.frechet_check"),
    ("axiometer.collections", "contributions", "collections.contributions"),
    ("axiometer.collections", "collection_from_json", "collections.from_json"),
    ("axiometer.capacities", "validate_capacity", "capacities.validate_capacity"),
    ("axiometer.capacities", "capacity_from_json", "capacities.from_json"),
    ("axiometer.performance", "evaluate", "performance.evaluate"),
    ("axiometer.performance", "rank", "performance.rank"),
    ("axiometer.performance", "strict_superset_max", "performance.strict_superset_max"),
    ("axiometer.incompatibility", "shapley", "incompatibility.shapley"),
    ("axiometer.incompatibility", "banzhaf", "incompatibility.banzhaf"),
    ("axiometer.robustness", "family_values", "robustness.family_values"),
    ("axiometer.robustness", "family_from_json", "robustness.family_from_json"),
    ("axiometer.robustness", "alpha_maxmin_score", "robustness.compare"),
    ("axiometer.robustness", "compare_max_and_min", "robustness.compare"),
    ("axiometer.robustness", "compare_pointwise", "robustness.compare"),
    ("axiometer.simulation.preferences", "ImpartialCulture.sample", "preferences.sample"),
    ("axiometer.simulation.preferences", "Mallows.sample", "preferences.sample"),
    ("axiometer.simulation.rules", "ranking_counts", "rules.ranking_counts"),
    ("axiometer.simulation.rules", "winners_from_counts", "rules.winners"),
    ("axiometer.simulation.axioms", "punctual_batch", "axioms.punctual"),
    ("axiometer.simulation.axioms", "relational_batch", "axioms.relational"),
    ("axiometer.simulation.estimate", "estimate_collection", "estimate"),
    ("axiometer.simulation.estimate", "enumerate_collection", "estimate"),
    ("axiometer.simulation.estimate", "run_experiment", "estimate"),
    ("axiometer.cli", "main", "cli.{command}"),
]


def _transform_bytes(tracer, args, result):
    n = len(result)
    j = n.bit_length() - 1
    tracer.counts["lattice.transform_calls"] += 1
    # each of the J per-bit sweeps reads two halves and writes one: 3 * 2**(J-1) doubles
    tracer.counts["lattice.transform_bytes"] += j * 3 * (n // 2) * 8


def _sampled(tracer, args, result):
    tracer.counts["preferences.rankings_sampled"] += int(np.size(result))


def _punctual(tracer, args, result):
    tracer.counts["axioms.profiles_evaluated"] += len(result)


def _relational(tracer, args, result):
    """Count the pairs whose deviator relation holds, from the rankings passed in."""
    tracer.counts["axioms.profiles_evaluated"] += len(result)
    predicate, ev1, ev2 = args[:3]
    r1, r2 = ev1.rankings, ev2.rankings
    differs = r1 != r2
    related = differs.sum(axis=1) == 1
    if predicate == "monotonicity_pair":
        rows = np.arange(r1.shape[0])
        deviator = np.argmax(differs, axis=1)
        lifted = ev1.space.raise_up[r1[rows, deviator], ev1.winners]
        related &= r2[rows, deviator] == lifted
    tracer.counts["axioms.pairs"] += r1.shape[0]
    tracer.counts["axioms.related_pairs"] += int(related.sum())


COUNTERS = {
    "lattice.transform": _transform_bytes,
    "preferences.sample": _sampled,
    "axioms.punctual": _punctual,
    "axioms.relational": _relational,
}
CALL_COUNTS = {
    ("axiometer.collections", "is_member"): "collections.is_member_calls",
    ("axiometer.performance", "evaluate"): "performance.evaluate_calls",
    ("axiometer.robustness", "family_values"): "robustness.family_values_calls",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.command = ""
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self._op = -1
        self._patches: list[tuple] = []
        self.max_self_sum_error = 0.0
        self._op_self = 0.0
        self._resolve()

    # -- wrapping -------------------------------------------------------------

    def _resolve(self) -> None:
        for modname, path, span in WRAPS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(original, span, COUNTERS.get(span),
                                 CALL_COUNTS.get((modname, path)))
            if outer:  # a method: patch the class only
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("axiometer"):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, name, original, wrapper))

    def _wrap(self, fn, span, counter, call_count):
        def wrapper(*args, **kwargs):
            self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if call_count:
                self.counts[call_count] += 1
            if counter:
                self._enter(COUNTER)
                try:
                    counter(self, args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    note = f"counter for {span} (arguments changed shape)"
                    if note not in self.missing:
                        self.missing.append(note)
                finally:
                    self._exit()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        if "{" in name:
            name = name.format(command=self.command)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.spans.append([name, start, 0.0, parent, self._op])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, start, children = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        own = duration - children
        self.self_s[span[0]] += own
        self._op_self += own
        if self._stack:
            self._stack[-1][2] += duration

    def run_op(self, op_id: int, command: str, fn):
        """Run one operation traced; return (output, wall seconds)."""
        self._op, self.command, self._op_self = op_id, command, 0.0
        self.install()
        root = len(self.spans)
        self._enter(ROOT)
        try:
            out = fn()
        finally:
            self._exit()
            self.uninstall()
        wall = self.spans[root][2] - self.spans[root][1]
        self.max_self_sum_error = max(self.max_self_sum_error, abs(self._op_self - wall))
        return out, wall

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op]) + "\n")
