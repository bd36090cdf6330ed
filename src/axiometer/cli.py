"""Batch command-line front end.

Subcommands: ``validate`` (consistency of a collection file), ``perf``
(rank collections under a capacity), ``incompat`` (per-axiom allocation),
``simulate`` (estimate or enumerate a collection for a voting rule), and
``compare`` (robust family comparison).  Everything is file-in/file-out and
deterministic given flags and seeds.

Exit codes: 0 success/feasible, 1 infeasible input, 2 parse or usage error,
3 enumeration size guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

from .capacities import capacity_from_json
from .collections import (
    DEFAULT_TOL,
    Collection,
    FeasibilityReport,
    collection_from_json,
    collection_to_json,
    frechet_check,
    is_member,
)
from .errors import AxiometerError, InfeasibleCollectionError, ParseError, SizeError
from .incompatibility import banzhaf, shapley
from .lattice import popcounts, subset_keys, subset_map
from .performance import MEASURE_TAGS, evaluate, rank_values, require_one_axiom_set
from .robustness import (
    CRITERION_TAGS,
    compare_alpha_maxmin,
    compare_max_and_min,
    compare_min_vs_max,
    compare_pointwise,
    family_from_json,
)
from .simulation import (
    EstimatedCollection,
    estimated_from_json,
    estimated_to_json,
    experiment_from_json,
    run_experiment,
)
from .simulation.estimate import _ESTIMATE_KEYS

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_SIZE = 3


def _presentation_masks(axioms):
    """Non-empty masks (ints) ordered by subset size, then bit pattern."""
    return (popcounts(axioms.size)[1:].argsort(kind="stable") + 1).tolist()


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    # malformed JSON and over-long integer literals raise ValueError, nesting
    # deeper than the recursion limit raises RecursionError
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_collection(path: str) -> Collection:
    """A collection file, or the collection of a ``simulate`` estimate file."""
    data = _load_json(path)
    if isinstance(data, dict) and set(data) == _ESTIMATE_KEYS:
        return estimated_from_json(data).collection
    return collection_from_json(data)


def _write(stream, parts) -> None:
    """Write ``parts`` in order to ``stream`` as UTF-8, whatever the locale's
    encoding, and flush once; a stream with no byte buffer (a StringIO)
    takes the text as it is."""
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.writelines(parts)
        return
    stream.flush()
    buffer.writelines(part.encode("utf-8") for part in parts)
    buffer.flush()


_ENCODE = json.JSONEncoder(allow_nan=False).encode


def _json_parts(obj, parts: list, pad: str = "") -> list:
    """Append the text of ``json.dumps(obj, indent=2, allow_nan=False)`` to
    ``parts``, in parts; dict keys must be ``str``.  Any ``indent`` sends
    ``json.dumps`` through the pure-Python encoder, so this walks dicts and
    lists itself and C-encodes each dict of exact floats (every subset map)
    in one call, braces re-padded."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(type(v) is float for v in obj.values()):
        text = json.JSONEncoder(separators=(",\n" + inner, ": "), allow_nan=False).encode(obj)
        parts += "{\n" + inner, text[1:-1], "\n" + pad + "}"
    elif isinstance(obj, (dict, list, tuple)) and obj:
        keyed = isinstance(obj, dict)
        sep = ("{" if keyed else "[") + "\n" + inner
        for key, value in obj.items() if keyed else enumerate(obj):
            parts.append(sep + _ENCODE(key) + ": " if keyed else sep)
            _json_parts(value, parts, inner)
            sep = ",\n" + inner
        parts.append("\n" + pad + ("}" if keyed else "]"))
    else:
        parts.append(_ENCODE(obj))  # a scalar, {} or []
    return parts


def _emit(args, payload, table) -> None:
    """Write ``payload`` as strict JSON, keys in the order the payload lists
    them (subset maps in mask order), or the text built by ``table()``.
    Every part is built before ``--out`` is opened, so a non-finite value
    raises before anything is written."""
    if args.format == "json":
        parts = _json_parts(payload, [])
        parts.append("\n")
    else:
        text = table()
        parts = [text if text.endswith("\n") else text + "\n"]
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                _write(out, parts)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    else:
        _write(sys.stdout, parts)


def _report_payload(report: FeasibilityReport, collection: Collection) -> dict:
    keys = subset_keys(collection.axioms.labels)
    return {
        "feasible": report.feasible,
        "checks": report.checks,
        "tolerance": report.tolerance,
        "negative_contributions": [
            {"subset": keys[mask], "value": value}
            for mask, value in report.negative_contributions
        ],
        "frechet_violations": [
            {
                "subset": keys[v.subset],
                "kind": v.kind,
                "axiom": v.axiom,
                "slack": v.slack,
            }
            for v in report.frechet_violations
        ],
    }


def _report_table(report: FeasibilityReport, axioms) -> str:
    keys = subset_keys(axioms.labels)
    lines = [
        f"feasible: {'yes' if report.feasible else 'no'}",
        f"tolerance: {report.tolerance:g}",
    ]
    if report.negative_contributions:
        lines.append("negative contributions:")
        for mask, value in report.negative_contributions:
            lines.append(f"  {{{keys[mask]}}}  {value:.6f}")
    if report.frechet_violations:
        lines.append("frechet violations:")
        for v in report.frechet_violations:
            lines.append(
                f"  {{{keys[v.subset]}}}  {v.kind} via {v.axiom}"
                f"  slack {v.slack:.6f}"
            )
    return "\n".join(lines)


def cmd_validate(args) -> int:
    collection = _load_collection(args.collection)
    report = is_member(collection, args.tol)
    if report.feasible:  # an infeasible report already lists the violations
        bounds = frechet_check(collection, args.tol).frechet_violations
        report = dataclasses.replace(report, frechet_violations=bounds)
    _emit(
        args,
        _report_payload(report, collection),
        lambda: _report_table(report, collection.axioms),
    )
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_perf(args) -> int:
    cap = capacity_from_json(_load_json(args.capacity))
    names = [Path(p).stem for p in args.collections]
    if len(set(names)) != len(names):
        names = list(args.collections)
    entries = [
        (name, _load_collection(path))
        for name, path in zip(names, args.collections)
    ]
    require_one_axiom_set(entries)
    results = [evaluate(cap, c, args.measure, args.tol) for _, c in entries]
    ranked = rank_values([(name, r.value) for name, r in zip(names, results)])
    weights = {name: r.weights for name, r in zip(names, results)}
    axioms = cap.axioms
    payload = {
        "measure": args.measure,
        "ranking": [
            {
                "rank": e.rank,
                "name": e.name,
                "value": e.value,
                "weights": subset_map(axioms, weights[e.name]),
            }
            for e in ranked
        ],
    }

    def table() -> str:
        keys = subset_keys(axioms.labels)
        name_width = max(len("name"), *(len(e.name) for e in ranked))
        lines = [f"measure: {args.measure}", f"rank  {'name':<{name_width}}  value"]
        for e in ranked:
            lines.append(f"{e.rank:<4}  {e.name:<{name_width}}  {e.value:.6f}")
        lines.append("")
        key_width = max(map(len, keys)) + 2
        masks = _presentation_masks(axioms)
        for e in ranked:
            lines.append(f"weights[{e.name}]:")
            for m in masks:
                key = "{" + keys[m] + "}"
                lines.append(f"  {key:<{key_width}}  {weights[e.name][m]:.6f}")
        return "\n".join(lines)

    _emit(args, payload, table)
    return EXIT_OK


def cmd_incompat(args) -> int:
    collection = _load_collection(args.collection)
    if args.method == "shapley":
        alloc = shapley(collection, args.tol)
    else:
        alloc = banzhaf(collection)
    overall = 1.0 - float(collection.p[collection.axioms.full_mask])
    payload = {
        "method": alloc.method,
        "values": alloc.by_axiom(),
        "total": alloc.total,
        "overall_incompatibility": overall,
    }

    def table() -> str:
        width = max(len("total"), *(len(lab) for lab in collection.axioms.labels))
        lines = [f"method: {alloc.method}", f"{'axiom':<{width}}  value"]
        for label, value in alloc.by_axiom().items():
            lines.append(f"{label:<{width}}  {value:.6f}")
        lines.append(f"{'total':<{width}}  {alloc.total:.6f}")
        if args.method == "shapley":
            lines.append(f"overall incompatibility (1 - p[all]): {overall:.6f}")
        return "\n".join(lines)

    _emit(args, payload, table)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = experiment_from_json(_load_json(args.experiment))
    result = run_experiment(spec, exact=args.exact, seed_override=args.seed)
    if isinstance(result, EstimatedCollection):
        payload = estimated_to_json(result)
        collection = result.collection
    else:
        payload = collection_to_json(result)
        collection = result

    def table() -> str:
        estimated = isinstance(result, EstimatedCollection)
        keys = subset_keys(collection.axioms.labels)
        lines = ["subset  p" + ("  stderr" if estimated else "")]
        for m in _presentation_masks(collection.axioms):
            row = f"{{{keys[m]}}}  {collection.p[m]:.6f}"
            if estimated:
                row += f"  {result.stderr[m]:.6f}"
            lines.append(row)
        return "\n".join(lines)

    _emit(args, payload, table)
    return EXIT_OK


def cmd_compare(args) -> int:
    cap = capacity_from_json(_load_json(args.capacity))
    fam_f = family_from_json(_load_json(args.family_f))
    fam_g = family_from_json(_load_json(args.family_g))
    compare = {
        "alpha_maxmin": partial(compare_alpha_maxmin, alpha=args.alpha),
        "max_and_min": compare_max_and_min,
        "pointwise": compare_pointwise,
        "min_vs_max": compare_min_vs_max,
    }[args.criterion]
    result = compare(cap, fam_f, fam_g, measure=args.measure, tol=args.tol)
    payload = {"criterion": result.criterion, "verdict": result.verdict}
    lines = [f"criterion: {result.criterion}", f"verdict: {result.verdict}"]
    if result.criterion == "alpha_maxmin":
        (score_f,), (score_g,) = result.values_f, result.values_g
        payload.update(alpha=args.alpha, score_f=score_f, score_g=score_g)
        lines[0] += f" (alpha={args.alpha:g})"
        lines += [f"score F: {score_f:.6f}", f"score G: {score_g:.6f}"]
    else:
        payload["values_f"] = dict(zip(fam_f.model_names, result.values_f))
        payload["values_g"] = dict(zip(fam_g.model_names, result.values_g))
        lines.append("values F: " + "  ".join(f"{v:.6f}" for v in result.values_f))
        lines.append("values G: " + "  ".join(f"{v:.6f}" for v in result.values_g))
    _emit(args, payload, lambda: "\n".join(lines))
    return EXIT_OK


def _number(text: str, accept, wanted: str) -> float:
    """``float(text)`` if it is finite and ``accept`` holds, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and accept(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number {wanted}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _number(text, lambda tol: tol >= 0.0, ">= 0")


def _alpha(text: str) -> float:
    return _number(text, lambda alpha: 0.0 <= alpha <= 1.0, "in [0, 1]")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


def _add_common(parser, default_format="table"):
    parser.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="feasibility tolerance"
    )
    parser.add_argument("--format", choices=("json", "table"), default=default_format)
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axiometer",
        description="Quantitative analysis of axiom satisfaction collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a collection file for consistency")
    p.add_argument("collection")
    _add_common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("perf", help="rank collections under a capacity")
    p.add_argument("capacity")
    p.add_argument("collections", nargs="+")
    p.add_argument("--measure", choices=MEASURE_TAGS, default="moebius")
    _add_common(p)
    p.set_defaults(handler=cmd_perf)

    p = sub.add_parser("incompat", help="allocate incompatibility across axioms")
    p.add_argument("collection")
    p.add_argument("--method", choices=("shapley", "banzhaf"), default="shapley")
    _add_common(p)
    p.set_defaults(handler=cmd_incompat)

    p = sub.add_parser("simulate", help="estimate a collection for a voting rule")
    p.add_argument("experiment")
    p.add_argument("--exact", action="store_true", help="enumerate instead of sampling")
    p.add_argument("--seed", type=_seed, default=None, help="override the experiment seed")
    _add_common(p, default_format="json")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="compare two families of collections")
    p.add_argument("capacity")
    p.add_argument("family_f")
    p.add_argument("family_g")
    p.add_argument("--criterion", choices=CRITERION_TAGS, default="max_and_min")
    p.add_argument("--alpha", type=_alpha, default=0.5, help="alpha_maxmin weight in [0, 1]")
    p.add_argument("--measure", choices=MEASURE_TAGS, default="moebius")
    _add_common(p)
    p.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SizeError as exc:
        _write(sys.stderr, [f"error: {exc}\n"])
        return EXIT_SIZE
    except InfeasibleCollectionError as exc:
        report = "" if exc.report is None else _report_table(exc.report, exc.axioms) + "\n"
        _write(sys.stderr, [f"error: {exc}\n{report}"])
        return EXIT_INFEASIBLE
    except AxiometerError as exc:
        _write(sys.stderr, [f"error: {exc}\n"])
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
