"""Exit-code contract, output round-trips, and determinism of the CLI."""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from axiometer import collection_from_json, collection_to_json
from axiometer.cli import main
from axiometer.simulation import estimated_from_json

from conftest import BASELINE_P, FLAT_P, STEADY_P, SPIKY_P, SYNERGY_U, capacity3, collection3

from axiometer.capacities import capacity_to_json


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write, tmp_path


def collection_doc(values):
    return collection_to_json(collection3(values))


def experiment_doc(**overrides):
    doc = {
        "rule": "plurality",
        "axioms": ["condorcet_consistency", "majority_winner"],
        "m": 3,
        "n": 3,
        "sampler": {"kind": "impartial_culture"},
        "N": 400,
        "seed": 42,
    }
    doc.update(overrides)
    return doc


def family_doc(values_per_model, models):
    docs = []
    for values in values_per_model:
        docs.append(collection_doc(values)["p"])
    return {"axioms": ["a1", "a2", "a3"], "models": models, "collections": docs}


class TestValidate:
    def test_feasible_file_exits_zero(self, files, capsys):
        write, _ = files
        assert main(["validate", write("c.json", collection_doc(BASELINE_P))]) == 0
        assert "feasible: yes" in capsys.readouterr().out

    def test_inconsistent_file_exits_one_with_deficits(self, files, capsys):
        write, _ = files
        assert main(["validate", write("c.json", collection_doc(FLAT_P))]) == 1
        out = capsys.readouterr().out
        assert "feasible: no" in out
        assert out.count("-0.300000") == 3

    def test_malformed_key_exits_two(self, files, capsys):
        write, _ = files
        doc = collection_doc(BASELINE_P)
        doc["p"]["a1-a2"] = doc["p"].pop("a1+a2")
        assert main(["validate", write("c.json", doc)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_json_output_parses(self, files, capsys):
        write, _ = files
        assert main(["validate", write("c.json", collection_doc(BASELINE_P)), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True


class TestPerf:
    def test_min_diff_ranks_second_collection_first(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        c_a = write("steady.json", collection_doc(STEADY_P))
        c_b = write("spiky.json", collection_doc(SPIKY_P))
        code = main(["perf", cap, c_a, c_b, "--measure", "min_diff", "--format", "json"])
        assert code == 0
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        assert [r["name"] for r in ranking] == ["spiky", "steady"]
        assert ranking[0]["value"] == pytest.approx(9.5)
        assert ranking[1]["value"] == pytest.approx(9.3)

    def test_weighted_sum_reverses_the_order(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        c_a = write("steady.json", collection_doc(STEADY_P))
        c_b = write("spiky.json", collection_doc(SPIKY_P))
        code = main(["perf", cap, c_a, c_b, "--measure", "weighted_sum", "--format", "json"])
        assert code == 0
        ranking = json.loads(capsys.readouterr().out)["ranking"]
        assert [r["name"] for r in ranking] == ["steady", "spiky"]
        assert ranking[0]["value"] == pytest.approx(20.1)

    def test_single_collection_table(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        c_a = write("only.json", collection_doc(STEADY_P))
        assert main(["perf", cap, c_a]) == 0
        assert "only" in capsys.readouterr().out

    def test_infeasible_collection_exits_one(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        bad = write("bad.json", collection_doc(FLAT_P))
        assert main(["perf", cap, bad]) == 1


class TestIncompat:
    def test_shapley_allocation(self, files, capsys):
        write, _ = files
        path = write("c.json", collection_doc(BASELINE_P))
        assert main(["incompat", path, "--method", "shapley", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"]["a1"] == pytest.approx(0.0, abs=1e-12)
        assert payload["values"]["a2"] == pytest.approx(0.125)
        assert payload["values"]["a3"] == pytest.approx(0.525)
        assert payload["total"] == pytest.approx(0.65)
        assert payload["overall_incompatibility"] == pytest.approx(0.65)

    def test_banzhaf_allocation(self, files, capsys):
        write, _ = files
        path = write("c.json", collection_doc(BASELINE_P))
        assert main(["incompat", path, "--method", "banzhaf", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"]["a3"] == pytest.approx(0.525)

    def test_all_ones_gives_zeros(self, files, capsys):
        write, _ = files
        path = write("c.json", collection_doc([1.0] * 7))
        assert main(["incompat", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in payload["values"].values())

    def test_infeasible_exits_one(self, files):
        write, _ = files
        assert main(["incompat", write("c.json", collection_doc(FLAT_P))]) == 1

    def test_out_file_is_utf8_under_an_ascii_locale(self, files):
        # input files are read as UTF-8, so output files are written as UTF-8
        write, tmp = files
        path = write("c.json", {"axioms": ["é", "b"], "p": {"é": 0.5, "b": 0.5, "é+b": 0.25}})
        out = tmp / "alloc.txt"
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "axiometer.cli", "incompat", path,
             "--format", "table", "--out", str(out)],
            capture_output=True, text=True, check=False,
            env={"PYTHONPATH": str(src), "LC_ALL": "C"},
        )
        assert run.returncode == 0, run.stderr
        assert "é      0.375000" in out.read_bytes().decode("utf-8")

    def test_stdout_is_utf8_under_an_ascii_locale(self, files):
        write, _ = files
        path = write("c.json", {"axioms": ["é", "b"], "p": {"é": 0.5, "b": 0.5, "é+b": 0.25}})
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "axiometer.cli", "incompat", path,
             "--format", "table"],
            capture_output=True, check=False,
            env={"PYTHONPATH": str(src), "LC_ALL": "C"},
        )
        assert run.returncode == 0, run.stderr
        assert "é      0.375000" in run.stdout.decode("utf-8")

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_ascii_streams_get_utf8_bytes(self, files, monkeypatch, stream):
        # a feasible file's table goes to stdout; an infeasible one's error
        # lines, which name the axiom, go to stderr
        write, _ = files
        second = 0.25 if stream == "stdout" else 0.75
        path = write("c.json", {"axioms": ["é", "b"], "p": {"é": 0.5, "b": 0.5, "é+b": second}})
        raw = io.BytesIO()
        monkeypatch.setattr(sys, stream, io.TextIOWrapper(raw, encoding="ascii"))
        rc = main(["incompat", path, "--format", "table"])
        getattr(sys, stream).flush()
        text = raw.getvalue().decode("utf-8")
        if stream == "stdout":
            assert rc == 0
            assert "é      0.375000" in text
        else:
            assert rc == 1
            assert "monotonicity via é" in text


class TestSimulate:
    def test_byte_identical_reruns(self, files):
        write, tmp = files
        spec = write("exp.json", experiment_doc())
        out1, out2 = str(tmp / "one.json"), str(tmp / "two.json")
        assert main(["simulate", spec, "--out", out1]) == 0
        assert main(["simulate", spec, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_output_roundtrips_through_reader(self, files, capsys):
        write, _ = files
        spec = write("exp.json", experiment_doc())
        assert main(["simulate", spec]) == 0
        est = estimated_from_json(json.loads(capsys.readouterr().out))
        assert est.n_samples == 400

    def test_exact_output_is_collection_schema(self, files, capsys):
        write, _ = files
        spec = write("exp.json", experiment_doc())
        assert main(["simulate", spec, "--exact"]) == 0
        collection = collection_from_json(json.loads(capsys.readouterr().out))
        assert collection.p[1] == pytest.approx(192.0 / 216.0)

    def test_copeland_condorcet_estimate_is_one(self, files, capsys):
        write, _ = files
        spec = write(
            "exp.json",
            experiment_doc(rule="copeland", axioms=["condorcet_consistency"]),
        )
        assert main(["simulate", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"]["condorcet_consistency"] == 1.0

    def test_seed_flag_overrides_spec(self, files, capsys):
        write, _ = files
        spec = write("exp.json", experiment_doc())
        assert main(["simulate", spec, "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_spec_error_exits_two(self, files):
        write, _ = files
        assert main(["simulate", write("exp.json", experiment_doc(rule="veto"))]) == 2

    def test_size_guard_exits_three(self, files):
        write, _ = files
        spec = write(
            "exp.json",
            experiment_doc(m=5, n=4, axioms=["pareto", "strategyproof_pair"]),
        )
        assert main(["simulate", spec, "--exact"]) == 3


class TestEstimateInput:
    """``simulate`` output feeds ``validate``, ``perf`` and ``incompat`` as is."""

    @staticmethod
    def estimate(files):
        """Path and document of a ``simulate`` estimate, and a capacity file."""
        write, tmp = files
        (tmp / "est").mkdir()
        path = tmp / "est" / "rule.json"
        assert main(["simulate", write("exp.json", experiment_doc()), "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        u = {"condorcet_consistency": 1.0, "majority_winner": 2.0,
             "condorcet_consistency+majority_winner": 4.0}
        return str(path), doc, write("u.json", {"axioms": doc["axioms"], "u": u})

    def test_estimate_file_is_read_as_its_collection(self, files, capsys):
        est, doc, cap = self.estimate(files)
        _, tmp = files
        # the same file name, so perf names both entries alike
        (tmp / "col").mkdir()
        col = tmp / "col" / "rule.json"
        col.write_text(json.dumps({"axioms": doc["axioms"], "p": doc["p"]}))
        for argv in (["validate"], ["perf", cap], ["incompat"],
                     ["incompat", "--method", "banzhaf"]):
            outputs = []
            for path in (est, str(col)):
                assert main([*argv, path, "--format", "json"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    def test_bad_estimate_still_exits_two(self, files, capsys):
        write, _ = files
        _, doc, cap = self.estimate(files)
        doc["N"] = 0
        assert main(["perf", cap, write("bad.json", doc)]) == 2
        assert '"N" must be >= 1' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [("seed", -1, '"seed" must be >= 0'),
         ("stderr", -0.5, '"stderr" value at subset'),
         ("stderr", 7.0, '"stderr" value at subset')],
        ids=["seed_-1", "stderr_-0.5", "stderr_7"],
    )
    def test_estimate_with_negative_seed_or_stderr_out_of_range_exits_two(
        self, files, capsys, field, value, message
    ):
        write, _ = files
        _, doc, cap = self.estimate(files)
        doc[field] = {key: value for key in doc["stderr"]} if field == "stderr" else value
        bad = write("bad.json", doc)
        for argv in (["validate", bad], ["perf", cap, bad], ["incompat", bad]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")


class TestCompare:
    def test_identical_families_equivalent_everywhere(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        fam = family_doc([STEADY_P], ["ic"])
        f = write("f.json", fam)
        g = write("g.json", fam)
        for criterion in ("alpha_maxmin", "max_and_min", "pointwise", "min_vs_max"):
            assert main(["compare", cap, f, g, "--criterion", criterion, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"

    def test_identical_heterogeneous_families(self, files, capsys):
        # min-vs-max calls a family incomparable with itself unless all its
        # values coincide; the weaker criteria call it equivalent
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        fam = family_doc([STEADY_P, SPIKY_P], ["ic", "mallows"])
        f = write("f.json", fam)
        g = write("g.json", fam)
        expected = {
            "alpha_maxmin": "equivalent",
            "max_and_min": "equivalent",
            "pointwise": "equivalent",
            "min_vs_max": "incomparable",
        }
        for criterion, verdict in expected.items():
            assert main(["compare", cap, f, g, "--criterion", criterion, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict

    def test_alpha_zero_is_worst_case_comparison(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        f = write("f.json", family_doc([STEADY_P, SPIKY_P], ["ic", "mallows"]))
        g = write("g.json", family_doc([STEADY_P], ["ic"]))
        assert main([
            "compare", cap, f, g, "--criterion", "alpha_maxmin", "--alpha", "0", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # contribution-weighted values of the two members are 9.3 and 9.5,
        # so the worst case of F equals the single value of G
        assert payload["score_f"] == pytest.approx(9.3)
        assert payload["score_g"] == pytest.approx(9.3)
        assert payload["verdict"] == "equivalent"

    def test_nesting_between_criteria_on_same_files(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        strong = family_doc([[1.0] * 7, [1.0] * 7], ["ic", "mallows"])
        weak = family_doc([STEADY_P, STEADY_P], ["ic", "mallows"])
        f, g = write("f.json", strong), write("g.json", weak)
        verdicts = {}
        for criterion in ("min_vs_max", "pointwise", "max_and_min"):
            assert main(["compare", cap, f, g, "--criterion", criterion, "--format", "json"]) == 0
            verdicts[criterion] = json.loads(capsys.readouterr().out)["verdict"]
        assert verdicts["min_vs_max"] == "better"
        assert verdicts["pointwise"] == "better"
        assert verdicts["max_and_min"] == "better"

    def test_repeated_model_name_exits_two(self, files, capsys):
        # the JSON output keys values by model name, so a repeat would drop one
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        f = write("f.json", family_doc([STEADY_P, SPIKY_P], ["ic", "ic"]))
        g = write("g.json", family_doc([STEADY_P, SPIKY_P], ["ic", "mallows"]))
        assert main(["compare", cap, f, g, "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("change", ["no_models", "embedded_other_axioms"])
    def test_family_rejected_by_the_type_exits_two(self, files, capsys, change):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        doc = family_doc([STEADY_P], ["ic"])
        if change == "no_models":
            doc["models"] = []
        else:
            doc["collections"] = [{"axioms": ["x"], "p": {"x": 0.5}}]
        f, g = write("f.json", doc), write("g.json", family_doc([STEADY_P], ["ic"]))
        assert main(["compare", cap, f, g, "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_misaligned_pointwise_exits_two(self, files):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        f = write("f.json", family_doc([STEADY_P, SPIKY_P], ["ic", "mallows"]))
        g = write("g.json", family_doc([STEADY_P, SPIKY_P], ["mallows", "ic"]))
        assert main(["compare", cap, f, g, "--criterion", "pointwise"]) == 2

    def test_infeasible_member_prints_the_report_that_perf_prints(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        bad = write("bad.json", collection_doc(FLAT_P))
        fam = write("f.json", family_doc([FLAT_P], ["m"]))
        assert main(["perf", cap, bad]) == 1
        perf_err = capsys.readouterr().err
        assert "feasible: no\n" in perf_err and "negative contributions:\n" in perf_err
        for criterion in ("alpha_maxmin", "max_and_min", "pointwise", "min_vs_max"):
            assert main(["compare", cap, fam, fam, "--criterion", criterion]) == 1
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", perf_err)

    def test_tol_reaches_the_family_feasibility_check(self, files, capsys):
        # contribution at the empty set is 1 - 0.6 - 0.400001 + 0 = -1e-6
        write, _ = files
        p = {"a1": 0.6, "a2": 0.400001, "a1+a2": 0.0}
        cap = write("u.json", {"axioms": ["a1", "a2"], "u": {"a1": 1.0, "a2": 1.0, "a1+a2": 2.0}})
        col = write("c.json", {"axioms": ["a1", "a2"], "p": p})
        fam = write("f.json", {"axioms": ["a1", "a2"], "models": ["m"], "collections": [p]})
        assert main(["perf", cap, col]) == 1
        assert main(["compare", cap, fam, fam]) == 1
        assert main(["perf", cap, col, "--tol", "1e-3"]) == 0
        capsys.readouterr()
        for criterion in ("alpha_maxmin", "max_and_min", "pointwise", "min_vs_max"):
            assert main(["compare", cap, fam, fam, "--tol", "1e-3", "--criterion", criterion,
                         "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"


def test_table_output_renders_six_decimals(files, capsys):
    write, _ = files
    path = write("c.json", collection_doc(BASELINE_P))
    assert main(["incompat", path]) == 0
    out = capsys.readouterr().out
    assert "0.525000" in out


class TestPerfWorksOnce:
    def test_each_collection_is_evaluated_once(self, files, monkeypatch):
        import axiometer.cli as cli

        calls = []
        evaluate = cli.evaluate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate", counting)
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        paths = [write("steady.json", collection_doc(STEADY_P)),
                 write("spiky.json", collection_doc(SPIKY_P))]
        for fmt in ("json", "table"):
            calls.clear()
            assert main(["perf", cap, *paths, "--format", fmt]) == 0
            assert len(calls) == 2

    def test_json_output_builds_no_table(self, files, monkeypatch, capsys):
        import axiometer.cli as cli

        def refuse(*args):
            raise AssertionError("table built for JSON output")

        monkeypatch.setattr(cli, "_presentation_masks", refuse)
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        path = write("steady.json", collection_doc(STEADY_P))
        assert main(["perf", cap, path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ranking"][0]["name"] == "steady"

    def test_axiom_sets_are_checked_before_any_evaluation(self, files, capsys):
        write, _ = files
        cap = write("u.json", capacity_to_json(capacity3(SYNERGY_U)))
        bad = write("bad.json", collection_doc(FLAT_P))
        other = write("other.json", {"axioms": ["b1", "b2"],
                                     "p": {"b1": 1.0, "b2": 1.0, "b1+b2": 1.0}})
        assert main(["perf", cap, bad, other]) == 2
        assert "'other' uses a different axiom set" in capsys.readouterr().err


def exit_code(argv) -> int:
    """Exit code of ``main(argv)``, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBadInputExitsTwo:
    """Input and usage errors exit 2 with an ``error:`` line, never a traceback."""

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"axioms": ["a\xff"], "p": {}}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nesting_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["incompat", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_into_a_missing_directory(self, files, capsys):
        write, tmp_path = files
        path = write("c.json", collection_doc(BASELINE_P))
        out = tmp_path / "missing" / "report.txt"
        assert main(["validate", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_negative_seed(self, files, capsys):
        write, _ = files
        assert exit_code(["simulate", write("exp.json", experiment_doc()), "--seed", "-1"]) == 2
        assert "error: argument --seed" in capsys.readouterr().err

    def test_phi_beyond_float_range(self, files, capsys):
        write, _ = files
        sampler = {"kind": "mallows", "phi": 10**400, "sigma": [0, 1, 2]}
        assert exit_code(["simulate", write("exp.json", experiment_doc(sampler=sampler))]) == 2
        assert capsys.readouterr().err.startswith('error: "phi" must be in (0, 1]')

    def test_boolean_in_sigma(self, files, capsys):
        write, _ = files
        sampler = {"kind": "mallows", "phi": 0.5, "sigma": [True, False, 2]}
        assert exit_code(["simulate", write("exp.json", experiment_doc(sampler=sampler))]) == 2
        assert capsys.readouterr().err.startswith('error: "sigma" must be a list')

    @pytest.mark.parametrize("n_samples", [10**400, 10**20, 2**53 + 1],
                             ids=["10**400", "10**20", "2**53+1"])
    def test_estimate_count_beyond_exact_float_counts(self, files, capsys, n_samples):
        # an experiment asking for that many samples is refused before it runs
        write, _ = files
        _, doc, cap = TestEstimateInput.estimate(files)
        path = write("big.json", {**doc, "N": n_samples})
        experiment = write("big_exp.json", experiment_doc(N=n_samples))
        for argv in (["validate", path], ["perf", cap, path], ["incompat", path],
                     ["simulate", experiment], ["simulate", experiment, "--exact"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith('error: "N" must be >= 1 and <= 2**53')

    def test_estimate_count_of_two_to_the_53_is_read(self, files, capsys):
        write, _ = files
        _, doc, _ = TestEstimateInput.estimate(files)
        assert main(["validate", write("top.json", {**doc, "N": 2**53})]) == 0

    def test_seed_is_a_simulate_flag_only(self, files, capsys):
        write, _ = files
        path = write("c.json", collection_doc(BASELINE_P))
        assert exit_code(["validate", path, "--seed", "7"]) == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
