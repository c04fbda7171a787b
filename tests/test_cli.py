import argparse
import contextlib
import csv
import dataclasses
import io
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import cli, derivations
from commlab.cli import REPORT_CSV_FIELDS, SWEEP_CSV_FIELDS, main
from commlab.catalog import CATALOG, get_entry
from commlab.instances import (
    RECIPE_FAMILIES,
    Recipe,
    derive_seed,
    instance_from_json,
    instance_to_json,
    make_instance,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestList:
    def test_text_lists_all_entries(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert out.startswith("18 catalog entries")
        for eid in ("THM_MAIN", "FALSE_TEST", "SCHWARZ_REVERSE"):
            assert eid in out

    def test_json_format(self, capsys):
        assert run_cli("list", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 18
        assert {"id", "status", "description"} <= set(payload[0])

    def test_csv_documents_report_columns(self, capsys):
        assert run_cli("list", "--format", "csv") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("id,status,direction")
        assert "# check report columns:" in out
        assert "# sweep report columns:" in out


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        path = tmp_path / "inst.json"
        assert run_cli("gen", "--recipe", "normal", "--dims", "3", "--seed", "5", "--out", str(path)) == 0
        inst = instance_from_json(read_json(path))
        assert inst.dim == 3 and inst.seed == 5 and inst.recipe == "normal"

    def test_entry_flags_add_components(self, tmp_path):
        path = tmp_path / "inst.json"
        assert run_cli(
            "gen", "--recipe", "normal", "--entry", "SJ_MAX", "--dims", "3", "--out", str(path)
        ) == 0
        inst = instance_from_json(read_json(path))
        assert inst.X is not None and inst.Y is not None

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--recipe", "hermitian", "--dims", "4", "--seed", "9", "--out", str(p1))
        run_cli("gen", "--recipe", "hermitian", "--dims", "4", "--seed", "9", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestCheck:
    def test_equality_example_values(self, tmp_path):
        path = tmp_path / "report.json"
        code = run_cli(
            "check", "--entry", "THM_MAIN", "--recipe", "equality-example",
            "--dims", "2", "--out", str(path),
        )
        assert code == 0
        report = read_json(path)
        assert report["verdict"] == "satisfied"
        assert report["lhs"] == pytest.approx(2.0, abs=1e-12)
        assert report["rhs"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_from_instance_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run_cli("gen", "--recipe", "positive-normal", "--dims", "4", "--seed", "3", "--out", str(inst_path))
        code = run_cli("check", "--entry", "THM_MAIN", "--instance", str(inst_path))
        assert code == 0

    def test_csv_format(self, capsys):
        code = run_cli(
            "check", "--entry", "THM_MAIN", "--recipe", "equality-example",
            "--dims", "2", "--format", "csv",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("entry,verdict,satisfied")
        assert lines[1].startswith("THM_MAIN,satisfied,true")

    def test_violation_exit_code(self):
        assert run_cli("check", "--entry", "FALSE_TEST", "--recipe", "normal", "--dims", "3") == 1

    def test_not_applicable_is_exit_zero(self, tmp_path):
        # hermitian instance fed to a PSD-only entry: reported, not an error
        inst_path = tmp_path / "inst.json"
        run_cli("gen", "--recipe", "hermitian", "--dims", "3", "--seed", "1", "--out", str(inst_path))
        out_path = tmp_path / "rep.json"
        code = run_cli(
            "check", "--entry", "REMARK_POSITIVE", "--instance", str(inst_path), "--out", str(out_path)
        )
        assert code == 0
        report = read_json(out_path)
        assert report["verdict"] in ("not-applicable", "satisfied")

    def test_unknown_entry_is_usage_error(self):
        assert run_cli("check", "--entry", "NOPE", "--recipe", "normal") == 2

    def test_missing_entry_flag(self):
        assert run_cli("check", "--recipe", "normal") == 2

    def test_tol_bounds(self):
        assert run_cli(
            "check", "--entry", "THM_MAIN", "--recipe", "equality-example",
            "--dims", "2", "--tol", "0.5",
        ) == 2

    def test_malformed_instance_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"S": [1, 2,')
        assert run_cli("check", "--entry", "THM_MAIN", "--instance", str(path)) == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "column" in err

    def test_missing_file(self):
        assert run_cli("check", "--entry", "THM_MAIN", "--instance", "/no/such/file.json") == 2

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'\xff\xfe{"S": 1}', "'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf-8", "nested-too-deep"],
    )
    def test_unreadable_instance_bytes(self, data, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert run_cli("check", "--entry", "THM_MAIN", "--instance", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed JSON: ") and message in captured.err
        assert captured.out == ""


class TestSweep:
    def test_false_test_exits_one_and_replays(self, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        code = run_cli(
            "sweep", "--entry", "FALSE_TEST", "--dims", "4", "--trials", "10",
            "--seed", "3", "--out", str(sweep_path),
        )
        assert code == 1
        sweep_report = read_json(sweep_path)
        assert sweep_report["failures"] == 10
        fp = sweep_report["worst_fingerprint"]
        check_path = tmp_path / "check.json"
        replay_code = run_cli(
            "check", "--entry", "FALSE_TEST", "--recipe", fp["recipe"],
            "--dims", str(fp["dim"]), "--seed", str(fp["seed"]), "--out", str(check_path),
        )
        assert replay_code == 1
        assert read_json(check_path)["margin"] == sweep_report["worst_margin"]

    def test_byte_identical_reports(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ("sweep", "--entry", "THM_MAIN", "--dims", "2,4", "--trials", "20", "--seed", "11")
        assert run_cli(*args, "--out", str(p1)) == 0
        assert run_cli(*args, "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_row(self, capsys):
        code = run_cli(
            "sweep", "--entry", "THM_MAIN", "--dims", "3", "--trials", "5", "--format", "csv"
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("entry,trials,passes")
        assert lines[1].startswith("THM_MAIN,5,5")

    def test_bad_dims(self):
        assert run_cli("sweep", "--entry", "THM_MAIN", "--dims", "x,y", "--trials", "1") == 2

    def test_repeated_dim_is_an_input_error(self, capsys):
        # a repeated dim would count the same seeded trials twice
        assert run_cli("sweep", "--entry", "THM_MAIN", "--dims", "2,3,2", "--trials", "3") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: dims must not repeat")

    def test_wall_time_goes_to_stderr(self, capsys):
        assert run_cli("sweep", "--entry", "THM_MAIN", "--trials", "1") == 0
        assert re.fullmatch(
            r"# sweep wall time: \d+\.\d{3}s\n"
            r"# sweep not applicable: 0 hypotheses failed, 0 unsafe to evaluate\n",
            capsys.readouterr().err,
        )

    @pytest.mark.parametrize(
        "entry, recipe, failed, unsafe",
        [
            ("SCHWARZ_REVERSE", "inner-normal", 0, 100),  # draws n = 0, so the bound cannot be formed
            ("THM_MAIN", "cartesian-psd", 100, 0),  # draws non-normal S
        ],
    )
    def test_not_applicable_kinds_go_to_stderr(self, capsys, entry, recipe, failed, unsafe):
        args = ("sweep", "--entry", entry, "--recipe", recipe, "--dims", "2,4", "--trials", "50")
        assert run_cli(*args) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["not_applicable"] == 100
        assert captured.err.splitlines()[1] == (
            f"# sweep not applicable: {failed} hypotheses failed, {unsafe} unsafe to evaluate"
        )

    def test_unwritable_out_prints_only_the_error(self, tmp_path, capsys):
        # the wall time follows the artifact, so a failed write leaves it out
        assert run_cli("sweep", "--entry", "THM_MAIN", "--trials", "1", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_worst_trial_has_lowest_normalized_score(self, capsys):
        # SJ_SINGLE's trials here rank differently by raw margin and by margin / max(1, |rhs|)
        assert run_cli("sweep", "--entry", "SJ_SINGLE", "--dims", "2,4", "--trials", "5") == 1
        report = json.loads(capsys.readouterr().out)
        replays = []
        for dim in (2, 4):
            for trial in range(5):
                seed = derive_seed(0, dim, trial)
                run_cli("check", "--entry", "SJ_SINGLE", "--dims", str(dim), "--seed", str(seed))
                check = json.loads(capsys.readouterr().out)
                replays.append((check["margin"] / max(1.0, abs(check["rhs"])), dim, seed, check["margin"]))
        _, dim, seed, margin = min(replays)
        assert (report["worst_fingerprint"]["dim"], report["worst_fingerprint"]["seed"]) == (dim, seed)
        assert report["worst_margin"] == margin


class TestSearchCommand:
    def test_smoke_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = (
            "search", "--entry", "THM_MAIN", "--dims", "2", "--iterations", "40",
            "--restarts", "2", "--seed", "6",
        )
        assert run_cli(*args, "--out", str(p1)) == 0
        assert run_cli(*args, "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = read_json(p1)
        assert payload["entry"] == "THM_MAIN"
        assert payload["best_objective"] <= 1.0 + 1e-9
        assert payload["best_instance"]["S"]["rows"]

    def test_work_counts_go_to_stderr(self, capsys):
        args = ("search", "--entry", "THM_MAIN", "--dims", "2", "--iterations", "40", "--restarts", "2")
        assert run_cli(*args) == 0
        captured = capsys.readouterr()
        counts = re.fullmatch(
            r"# search: 80 candidates, (\d+) screened, (\d+) accepted, (\d+) validated\n", captured.err
        )
        assert counts and int(counts[1]) == 0  # THM_MAIN has no bracket to screen by
        assert 0 < int(counts[2]) == int(counts[3])  # every improving move was kept
        assert "candidates" not in captured.out

    def test_screened_candidates_skip_the_formula(self, monkeypatch, capsys):
        entry = get_entry("NUMRAD_CLAIM")
        calls = []

        def counting(inst):
            calls.append(1)
            return entry.formula(inst)

        monkeypatch.setitem(CATALOG, entry.id, dataclasses.replace(entry, formula=counting))
        args = ("search", "--entry", entry.id, "--dims", "4", "--iterations", "100", "--restarts", "2")
        assert run_cli(*args) == 1
        counts = re.fullmatch(
            r"# search: 200 candidates, (\d+) screened, \d+ accepted, \d+ validated\n", capsys.readouterr().err
        )
        screened = int(counts[1])
        assert screened > 0
        # every candidate not screened, each restart's start and the final report
        assert len(calls) == 200 - screened + 2 + 1

    def test_start_instance_missing_a_required_field_is_an_input_error(self, capsys):
        # the recipe refuses to build a start instance without the X the entry requires
        args = ("search", "--entry", "SJ_GENERAL", "--recipe", "equality-example", "--dims", "2")
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: equality-example has no X or Y\n"

    def test_best_instance_replays_the_best_report(self, tmp_path):
        # a searched instance's fingerprint names its recipe and last move's
        # seed, which do not regenerate it; its best_instance replays it
        search_path, inst_path, check_path = (tmp_path / f"{n}.json" for n in ("search", "best", "check"))
        args = ("--dims", "2", "--iterations", "200", "--restarts", "3", "--seed", "1")
        assert run_cli("search", "--entry", "SJ_GENERAL", *args, "--out", str(search_path)) == 1
        search = read_json(search_path)
        inst_path.write_text(json.dumps(search["best_instance"]))
        check = ("check", "--entry", "SJ_GENERAL", "--instance", str(inst_path), "--out", str(check_path))
        assert run_cli(*check) == 1
        report = read_json(check_path)
        assert report["margin"] == search["best_report"]["margin"] == -2.0949373511722857
        assert report == search["best_report"]


class TestFpCommand:
    def test_inner_pair_holds(self, tmp_path):
        out = tmp_path / "fp.json"
        code = run_cli("fp", "--recipe", "inner-normal", "--dims", "3", "--seed", "2", "--out", str(out))
        assert code == 0
        payload = read_json(out)
        assert payload["holds"] is True
        assert payload["kernel_dimension"] >= 3
        assert len(payload["reductions"]) == payload["kernel_dimension"]
        assert payload["lift"] == "spectral"

    def test_failing_pair(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "seed": 0,
                    "recipe": "external",
                    "bounds": {k: 0.0 for k in ("a1", "b1", "c1", "d1")}
                    | {k: 1.0 for k in ("a2", "b2", "c2", "d2")},
                    "S": {"rows": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
                    "T": {"rows": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
                }
            )
        )
        out = tmp_path / "fp.json"
        code = run_cli("fp", "--instance", str(inst_path), "--out", str(out))
        assert code == 1
        assert read_json(out)["lift"] == "kronecker"  # S is nilpotent, not normal


class TestOrthoCommand:
    def test_inner_pair_consistent(self, tmp_path):
        out = tmp_path / "ortho.json"
        code = run_cli(
            "ortho", "--recipe", "inner-normal", "--dims", "3", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        payload = read_json(out)
        assert payload["hs_consistent"] is True
        assert payload["probe_verdict"] == "consistent"
        assert payload["min_distance_hs"] == pytest.approx(payload["c_hs_norm"], rel=1e-8)
        assert payload["lift"] == "spectral"
        inst = make_instance(Recipe("inner-normal", 3), 4)
        op = derivations.lift_derivation(inst.S, inst.T)
        probe = derivations.orthogonality_probe_opnorm(op, derivations.kernel_basis(op)[0])
        assert payload["probe_evaluations"] == probe["probe_evaluations"]

    def test_trivial_kernel_is_vacuous(self, tmp_path):
        out = tmp_path / "ortho.json"
        code = run_cli("ortho", "--recipe", "normal", "--dims", "3", "--seed", "1", "--out", str(out))
        assert code == 0
        payload = read_json(out)
        assert payload["verdict"] == "vacuous"
        assert payload["lift"] == "spectral"

    @staticmethod
    def _count_lifts_and_svds(monkeypatch, *argv):
        """Run ``ortho`` and count lifts and SVDs of a 16 x 16 (n^2 x n^2 at n = 4) matrix."""
        counts = {"lift": 0, "svd": 0}
        lift, svd = derivations.lift_derivation, np.linalg.svd

        def counting_lift(s, t):
            counts["lift"] += 1
            return lift(s, t)

        def counting_svd(a, *args, **kwargs):
            counts["svd"] += np.shape(a) == (16, 16)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(derivations, "lift_derivation", counting_lift)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert run_cli("ortho", "--dims", "4", *argv) == 0
        return counts

    def test_lifts_and_factors_once(self, monkeypatch, capsys):
        # a normal pair takes the spectral lift: no n^2 x n^2 SVD at all
        assert self._count_lifts_and_svds(monkeypatch, "--recipe", "inner-normal") == {"lift": 1, "svd": 0}

    def test_non_normal_pair_lifts_and_factors_once(self, monkeypatch, capsys):
        counts = self._count_lifts_and_svds(monkeypatch, "--recipe", "cartesian-psd")
        assert counts == {"lift": 1, "svd": 1}
        assert json.loads(capsys.readouterr().out)["lift"] == "kronecker"

    def test_jordan_block_reaches_an_exact_zero(self, tmp_path, capsys):
        # S = T = C = J_2: X = -diag(0, 1) gives SX - XT + C = 0 exactly
        inst_path = tmp_path / "inst.json"
        assert run_cli("gen", "--recipe", "inner-normal", "--dims", "2", "--out", str(inst_path)) == 0
        jordan = {"rows": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        inst_path.write_text(json.dumps(read_json(inst_path) | {"S": jordan, "T": jordan, "C": jordan}))
        assert run_cli("ortho", "--instance", str(inst_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["probe_min_found"] == 0.0
        assert payload["probe_verdict"] == "violation-candidate"
        assert payload["min_distance_hs"] == 0.0

    def test_kernel_elements_it_does_not_probe_are_not_evaluated(self, tmp_path, capsys):
        # S = diag(0, -1, 1e250), T = diag(3, 1e300, 1e250): the cutoff 1e-8 * 1e300 puts six
        # gaps in the kernel, and |SC - CT|_2 of the element for the gap 1e250 overflows. ortho
        # probes only element 0, whose gap 4 lies far below the cutoff, so SX - XT + C reaches 0,
        # as on the same pair at half the exponents; fp takes every element and overflows.
        def diag(*d):
            return {"rows": [[[d[i] if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]}

        inst_path = tmp_path / "inst.json"
        inst_path.write_text(
            json.dumps(
                {"bounds": _SCHWARZ_BOUNDS, "S": diag(0.0, -1.0, 1e250), "T": diag(3.0, 1e300, 1e250)}
            )
        )
        assert run_cli("ortho", "--instance", str(inst_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["c_source"], payload["hs_consistent"]) == ("kernel-basis[0]", True)
        assert (payload["probe_min_found"], payload["probe_verdict"]) == (0.0, "violation-candidate")
        assert run_cli("fp", "--instance", str(inst_path)) == 0
        assert capsys.readouterr().err == (
            "hypothesis violation: entries too large for float arithmetic (overflow encountered in dot)\n"
        )


_J3 = np.diag([1.0, 1.0], 1)  # the nilpotent Jordan block J_3


def _matrix_json(m):
    return {"rows": np.stack([np.real(m), np.imag(m)], axis=-1).tolist()}


def _scaled_json(obj: dict, lam: float) -> dict:
    """Instance JSON ``obj`` with S, T and the bounds scaled by ``lam``."""
    inst = instance_from_json(obj)
    scaled = {name: _matrix_json(lam * getattr(inst, name)) for name in ("S", "T")}
    return obj | scaled | {"bounds": {k: lam * v for k, v in obj["bounds"].items()}}


class TestScaleFreeVerdicts:
    """``fp`` and ``ortho`` judge a pair and its C by tolerances relative to their
    size, so scaling them changes no verdict and no exit code."""

    def _run(self, tmp_path, capsys, obj, *argv):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(obj))
        code = run_cli(*argv, "--instance", str(inst_path))
        return code, json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("lam", [1e-6, 1e-9])
    def test_jordan_block_is_a_violation_at_any_scale_of_c(self, lam, tmp_path, capsys):
        # S = T = J_3 and C = lam J_3: delta(-diag(0, 1, 2)) = -J_3, so |delta X + C| reaches 0
        obj = {"bounds": _SCHWARZ_BOUNDS, "S": _matrix_json(_J3), "T": _matrix_json(_J3)}
        code, payload = self._run(tmp_path, capsys, obj | {"C": _matrix_json(lam * _J3)}, "ortho")
        assert code == 1
        assert payload["hs_consistent"] is False
        assert payload["probe_verdict"] == "violation-candidate"
        assert payload["probe_min_found"] <= 1e-8 * payload["c_op_norm"]

    def test_scaled_kernel_element_is_in_the_kernel(self, tmp_path, capsys):
        inst = make_instance(Recipe("inner-normal", 4), 3)
        op = derivations.lift_derivation(inst.S, inst.T)
        obj = instance_to_json(inst) | {"C": _matrix_json(1e8 * derivations.kernel_basis(op)[0])}
        code, payload = self._run(tmp_path, capsys, obj, "ortho")
        assert code == 0
        assert "verdict" not in payload  # neither vacuous nor not-applicable
        assert (payload["hs_consistent"], payload["probe_verdict"]) == (True, "consistent")

    def test_small_normal_pair_keeps_its_trivial_kernel(self, tmp_path, capsys):
        obj = _scaled_json(instance_to_json(make_instance(Recipe("normal", 4), 3)), 1e-12)
        code, payload = self._run(tmp_path, capsys, obj, "fp")
        assert (code, payload["lift"], payload["kernel_dimension"]) == (0, "spectral", 0)
        code, payload = self._run(tmp_path, capsys, obj, "ortho")
        assert (code, payload["verdict"]) == (0, "vacuous")

    def test_small_non_normal_pair_takes_the_kronecker_lift(self, tmp_path, capsys):
        obj = _scaled_json(instance_to_json(make_instance(Recipe("cartesian-psd", 4), 3)), 1e-12)
        code, payload = self._run(tmp_path, capsys, obj, "fp")
        assert (code, payload["lift"], payload["kernel_dimension"]) == (0, "kronecker", 0)

    def test_jordan_pair_fails_fp_at_any_scale(self, tmp_path, capsys):
        reports = []
        for lam in (1.0, 1e-6, 1e-8):
            obj = {"bounds": _SCHWARZ_BOUNDS, "S": _matrix_json(lam * _J3), "T": _matrix_json(lam * _J3)}
            code, payload = self._run(tmp_path, capsys, obj, "fp")
            assert (code, payload["holds"], payload["lift"]) == (1, False, "kronecker")
            reports.append([(r["range_reduces"], r["restriction_normal"]) for r in payload["reductions"]])
        assert reports[0] == reports[1] == reports[2]
        assert (False, False) in reports[0]


_SCHWARZ_BOUNDS = {k: 0.0 for k in ("a1", "b1", "c1", "d1", "c2", "d2")} | {"a2": 2.0, "b2": 4.0}
_HUGE = 10**400  # a JSON integer literal too large for a float
_BIG_DIAG = {"rows": [[[1e50, 0], [0, 0]], [[0, 0], [2, 0]]]}  # with x = e1, |STx|^4 overflows
_HUGE_DIAG = {"rows": [[[1e100, 0], [0, 0]], [[0, 0], [2, 0]]]}  # here |STx|^2 already overflows
_OVERFLOW_DIAG = {"rows": [[[1e160, 0], [0, 0]], [[0, 0], [2, 0]]]}  # here S S* overflows
_TOO_LARGE = "entries too large for float arithmetic"
_OUT_OF_RANGE = f"{_TOO_LARGE} ((34, 'Numerical result out of range'))"  # a Python float overflow
_NAN_DIAG = {"rows": [[[float("nan"), 0], [0, 0]], [[0, 0], [2, 0]]]}
_ZERO_2X2 = {"rows": [[[0, 0]] * 2] * 2}
_ZERO_3X3 = {"rows": [[[0, 0]] * 3] * 3}
_TRIPLE_DIAG = {"rows": [[[1, 0, 7], [0, 0]], [[0, 0], [2, 0]]]}  # a "pair" of three numbers
_DICT_DIAG = {"rows": [[{"re": 1}, [0, 0]], [[0, 0], [2, 0]]]}
_BOOL_DIAG = {"rows": [[[True, 0], [0, 0]], [[0, 0], [2, 0]]]}  # true is not the number 1
# S with the superdiagonal (1e300, 3, 1e100) against T = I: the eigensolver of the spectral
# lift's first step gives up on it (LinAlgError: Eigenvalues did not converge)
_UNCONVERGED = {
    "dim": 4,
    "S": {"rows": [[[v * (j == i + 1), 0] for j in range(4)] for i, v in enumerate((1e300, 3, 1e100, 0))]},
    "T": {"rows": [[[float(i == j), 0] for j in range(4)] for i in range(4)]},
    "x": [[1, 0], [0, 0], [0, 0], [0, 0]],
}


def _diag(*d):
    return {"rows": [[[d[i] if i == j else 0.0, 0.0] for j in range(len(d))] for i in range(len(d))]}


# b, c and d pinned at 0 and a as wide as floats reach, so that a2 - a1 overflows to inf
_WIDE_A_BOUNDS = {"a1": -1e308, "a2": 1e308} | {k: 0.0 for k in ("b1", "b2", "c1", "c2", "d1", "d2")}
_NOT_FINITE = "hypothesis violation: entries too large for float arithmetic (the bound is not finite)\n"


@pytest.mark.parametrize(
    "instance, entry, code, report, err",
    [
        # S = diag(0, 1) and T = 0 meet the bands, but 1/2 sqrt(inf^2 + 0^2) * 0 is NaN (THM_MAIN)
        # and 1/2 sqrt(inf^2 + 0^2) is inf (STEP_HALF_BAND): neither is a verdict
        *[
            ({"bounds": _WIDE_A_BOUNDS, "S": _diag(0, 1), "T": _diag(0, 0)}, entry, 0, None, _NOT_FINITE)
            for entry in ("THM_MAIN", "STEP_HALF_BAND")
        ],
        # scaling alone refutes the squared bound: |S|_2^2 = 1/4 > (|S|_2 |S|_2)^2 = 1/16
        # for S = diag(1/2, 0), T = 0 and X = I, and every value is exact in floating point
        (
            {"bounds": _SCHWARZ_BOUNDS, "S": _diag(0.5, 0), "T": _diag(0, 0), "X": _diag(1, 1)},
            "THREE_TERM_STATED",
            1,
            {"lhs": 0.25, "rhs": 0.0625, "margin": -0.1875, "verdict": "violated"},
            "",
        ),
    ],
    ids=["thm-main-wide-band", "step-half-band-wide-band", "three-term-stated-scaling"],
)
def test_hand_written_instance(instance, entry, code, report, err, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"dim": 2} | instance))
    assert run_cli("check", "--entry", entry, "--instance", str(inst_path)) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if report is None:
        assert captured.out == ""
    else:
        assert report.items() <= json.loads(captured.out).items()


def _schwarz_instance(tmp_path, **fields):
    """A commuting diagonal pair with unit x, as instance JSON; ``fields`` override keys."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(
        json.dumps(
            {
                "dim": 2,
                "bounds": _SCHWARZ_BOUNDS,
                "S": {"rows": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
                "T": {"rows": [[[3, 0], [0, 0]], [[0, 0], [4, 0]]]},
                "x": [[1, 0], [0, 0]],
                "n": 1.0,
            }
            | fields
        )
    )
    return inst_path


class TestCommutingSchwarz:
    """SCHWARZ_REVERSE divides by n^2, and a commuting pair has n = 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--entry", "SCHWARZ_REVERSE", "--recipe", "inner-normal", "--dims", "3"),
            (
                "search", "--entry", "SCHWARZ_REVERSE", "--recipe", "inner-normal", "--dims", "3",
                "--iterations", "2", "--restarts", "1",
            ),
        ],
    )
    def test_reported_as_hypothesis_violation(self, argv, capsys):
        assert run_cli(*argv) == 0
        assert "hypothesis violation:" in capsys.readouterr().err

    def test_instance_with_n_zero(self, tmp_path, capsys):
        inst_path = _schwarz_instance(tmp_path, n=0.0)
        assert run_cli("check", "--entry", "SCHWARZ_REVERSE", "--instance", str(inst_path)) == 0
        assert "hypothesis violation:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, code, message",
        [
            # n^2, |STx|^4 or the bound overflows through the shared overflow rule
            ({"n": 1e200}, 0, f"hypothesis violation: {_OUT_OF_RANGE}"),
            ({"n": float("nan")}, 2, "error: n must be finite"),
            ({"n": float("inf")}, 2, "error: n must be finite"),
            ({"x": [[float("nan"), 0], [0, 0]]}, 2, "error: x must be finite"),
            ({"n": _HUGE}, 2, "error: n must be a number"),
            ({"S": {"rows": [[[_HUGE, 0], [0, 0]], [[0, 0], [2, 0]]]}}, 2, "error: matrix rows"),
            ({"bounds": _SCHWARZ_BOUNDS | {"a1": "abc"}}, 2, "error: bounds a1 must be a number"),
            ({"bounds": {k: v for k, v in _SCHWARZ_BOUNDS.items() if k != "d2"}}, 2, "error: bounds"),
            ({"bounds": [1, 2]}, 2, "error: bounds must be an object"),
            ({"n": "abc"}, 2, "error: n must be a number"),
            ({"n": [1]}, 2, "error: n must be a number"),
            ({"dim": "two"}, 2, "error: dim must be a number"),
            ({"seed": 1e400}, 2, "error: seed must be a number"),
            ({"S": _BIG_DIAG, "T": _BIG_DIAG}, 0, f"hypothesis violation: {_OUT_OF_RANGE}"),
            (
                {"S": _HUGE_DIAG, "T": _HUGE_DIAG}, 0,
                f"hypothesis violation: {_TOO_LARGE} (overflow encountered in dot)",
            ),
            ({"x": [[1, 0], [0, 0], [0, 0]]}, 2, "error: x must have length dim"),
            ({"bounds": _SCHWARZ_BOUNDS | {"a1": float("nan")}}, 2, "error: bounds a1, a2 must be finite"),
            # Instance checks every matrix field, whichever entry reads it
            *[({m: _NAN_DIAG}, 2, "error: matrix contains non-finite entries") for m in "STXYC"],
            ({"C": _ZERO_3X3}, 2, "error: C must be square of size dim"),
            # a pair is exactly two numbers
            ({"S": _TRIPLE_DIAG}, 2, "error: matrix rows must be [re, im] pairs"),
            ({"S": _DICT_DIAG}, 2, "error: matrix rows must be [re, im] pairs"),
            ({"x": [[1, 0, 5], [0, 0]]}, 2, "error: vector entries must be [re, im] pairs"),
            # only a JSON number is a number: not true or false, not a string, and
            # dim and seed not a fraction either
            ({"dim": 2.7}, 2, "error: dim must be an integer, not 2.7"),
            ({"seed": 12.5}, 2, "error: seed must be an integer, not 12.5"),
            ({"seed": "12"}, 2, "error: seed must be a number, not str"),
            ({"seed": True}, 2, "error: seed must be a number, not bool"),
            ({"dim": False}, 2, "error: dim must be a number, not bool"),
            # a recipe is a JSON string, never the text of some other value
            ({"recipe": None}, 2, "error: recipe must be a string, not NoneType"),
            ({"recipe": {"x": 1}}, 2, "error: recipe must be a string, not dict"),
            ({"recipe": 3}, 2, "error: recipe must be a string, not int"),
            ({"n": True}, 2, "error: n must be a number, not bool"),
            ({"bounds": _SCHWARZ_BOUNDS | {"a1": "-1.5"}}, 2, "error: bounds a1 must be a number, not str"),
            ({"bounds": _SCHWARZ_BOUNDS | {"b2": True}}, 2, "error: bounds b2 must be a number, not bool"),
            ({"S": _BOOL_DIAG}, 2, "error: matrix rows must be [re, im] pairs: a pair entry must be a number"),
            ({"x": [[1, 0], ["0", 0]]}, 2, "error: vector entries must be [re, im] pairs"),
            # an unknown key is refused by name, as is a lower-case c meant for C
            ({"Sx": 1}, 2, "error: instance JSON has unknown key 'Sx'"),
            ({"c": _ZERO_3X3}, 2, "error: instance JSON has unknown key 'c'"),
            # an empty row list is no matrix
            ({"S": {"rows": []}}, 2, "error: expected a 2-d matrix, got ndim=1"),
        ],
    )
    def test_instance_with_extreme_n_or_x(self, fields, code, message, tmp_path, capsys):
        inst_path = _schwarz_instance(tmp_path, **fields)
        assert run_cli("check", "--entry", "SCHWARZ_REVERSE", "--instance", str(inst_path)) == code
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "fields, argv",
        [
            ({"S": _OVERFLOW_DIAG, "T": _OVERFLOW_DIAG}, ("check", "--entry", "THM_MAIN")),
            ({"S": _OVERFLOW_DIAG, "T": _OVERFLOW_DIAG}, ("check", "--entry", "SCHWARZ_REVERSE")),
            ({"S": _OVERFLOW_DIAG, "T": _OVERFLOW_DIAG}, ("fp",)),
            (_UNCONVERGED, ("fp",)),
            (_UNCONVERGED, ("ortho",)),
            # here a formula's own Python float `** 2` overflows
            ({"S": _OVERFLOW_DIAG}, ("check", "--entry", "REMARK_POSITIVE")),
            ({"bounds": _SCHWARZ_BOUNDS | {"a2": 1e160}}, ("check", "--entry", "STEP_CARTESIAN")),
        ],
    )
    def test_overflow_from_finite_input_is_a_hypothesis_violation(self, fields, argv, tmp_path, capsys):
        inst_path = _schwarz_instance(tmp_path, **fields)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--instance", str(inst_path)) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("hypothesis violation: entries too large") and captured.out == ""
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_ortho_kernel_element_that_overflows(self, tmp_path, capsys):
        # every entry of C = 1e160 I is finite, but |C|_2^2 overflows
        inst_path = tmp_path / "inst.json"
        gen = ("gen", "--recipe", "inner-normal", "--dims", "3", "--seed", "5", "--out", str(inst_path))
        assert run_cli(*gen) == 0
        c = {"rows": [[[1e160 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]}
        inst_path.write_text(json.dumps(read_json(inst_path) | {"C": c}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("ortho", "--instance", str(inst_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "hypothesis violation: entries too large for float arithmetic (overflow encountered in dot)\n"
        )
        assert captured.out == ""
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_sweep_counts_not_applicable(self, capsys):
        code = run_cli(
            "sweep", "--entry", "SCHWARZ_REVERSE", "--recipe", "inner-normal", "--dims", "3",
            "--trials", "2",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["not_applicable"] == 2


# the equality example's S, T and x: their commutator has norm 2
_EQUALITY_PAIR = {
    "S": {"rows": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]},
    "T": {"rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
    "x": [[0, 0], [1, 0]],
    "bounds": {"a1": -1.5, "a2": 1.5, "b1": -1.0, "b2": 1.0}
    | {k: 0.0 for k in ("c1", "c2", "d1", "d2")},
}


class TestInstanceHypotheses:
    """A non-unit x or a small n breaks a hypothesis of SCHWARZ_REVERSE; the file still loads."""

    def _check_reported(self, inst_path, message, capsys):
        assert run_cli("check", "--entry", "SCHWARZ_REVERSE", "--instance", str(inst_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not-applicable"
        assert report["hypothesis_violations"] == [message]
        # commands that never read x or n run as usual
        assert run_cli("check", "--entry", "THM_MAIN", "--instance", str(inst_path)) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "satisfied"
        assert run_cli("fp", "--instance", str(inst_path)) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_non_unit_x_is_reported(self, tmp_path, capsys):
        self._check_reported(_schwarz_instance(tmp_path, x=[[1, 0], [1, 0]]), "x not unit", capsys)

    def test_small_n_is_reported(self, tmp_path, capsys):
        inst_path = _schwarz_instance(tmp_path, n=0.5, **_EQUALITY_PAIR)
        self._check_reported(inst_path, "n below commutator norm", capsys)

    def test_sj_general_with_zero_x_and_y_has_no_index_to_bound(self, tmp_path, capsys):
        # every singular value of X (+) Y is 0, so no index j is compared and both sides read 0
        inst_path = _schwarz_instance(tmp_path, X=_ZERO_2X2, Y=_ZERO_2X2)
        assert run_cli("check", "--entry", "SJ_GENERAL", "--instance", str(inst_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "satisfied" and report["lhs"] == report["rhs"] == 0.0
        assert report["detail"] == {"per_j": []}


def _no_lift(*args):
    raise AssertionError("the n^2 x n^2 lift was built")


@pytest.mark.parametrize(
    "argv",
    [
        ("fp", "--recipe", "normal", "--dims", "65"),
        ("ortho", "--recipe", "normal", "--dims", "65"),
        ("sweep", "--entry", "THM_MAIN", "--dims", "1000000", "--trials", "1"),
    ],
)
def test_oversized_dims_refused_before_allocating(argv, monkeypatch):
    monkeypatch.setattr(np, "kron", _no_lift)
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 16 * 2**20


def test_usage_error_exit_code():
    assert run_cli("unknown-command") == 2


_GENERATING_COMMANDS = (
    "gen",
    "gen --entry SJ_GENERAL",
    "check --entry THM_MAIN",
    "check --entry THREE_TERM",
    "sweep --entry THM_MAIN --trials 2",
    "search --entry SCHWARZ_REVERSE --iterations 3 --restarts 1",
    "fp",
    "ortho",
)


@pytest.mark.parametrize("command", _GENERATING_COMMANDS)
@pytest.mark.parametrize("family", RECIPE_FAMILIES)
def test_every_recipe_and_dim_exits_with_a_documented_code(command, family, capsys):
    """An unbuildable recipe is an input error in every command, never a
    traceback or a finding; equality-example runs at its fixed dim 2 by default,
    and has no X or Y for an entry that requires one."""
    words = command.split()
    entry = get_entry(words[words.index("--entry") + 1]) if "--entry" in words else None
    needs_matrix = entry is not None and bool({"X", "Y"} & entry.requires)
    for dims in (None, "1", "2", "3"):
        argv = [*command.split(), "--recipe", family] + (["--dims", dims] if dims else [])
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if family == "commuting-normal" and dims == "1":
            assert code == 2 and "banded generation requires dim >= 2" in err, argv
        if family == "equality-example" and dims in ("1", "3"):
            assert code == 2 and "equality-example is a fixed 2x2 instance" in err, argv
        if family == "equality-example" and dims is None and command.split()[0] in ("sweep", "search"):
            assert code == 0 and err.startswith("#"), argv
        if family == "equality-example" and dims in (None, "2") and needs_matrix:
            assert code == 2 and "equality-example has no X or Y" in err, argv


@pytest.mark.parametrize("command", ["check --entry THM_MAIN", "fp", "ortho"])
@pytest.mark.parametrize(
    "flags, named",
    [
        (("--recipe", "unitary"), "--recipe"),
        (("--dims", "7"), "--dims"),
        (("--seed", "0"), "--seed"),  # even the default seed, given, conflicts
        (("--dims", "7", "--seed", "99", "--recipe", "unitary"), "--recipe, --dims, --seed"),
    ],
)
def test_instance_with_generation_flags_is_an_input_error(command, flags, named, tmp_path, capsys):
    """--instance and the generation flags exclude each other, instead of the
    flags being dropped without a word."""
    inst_path = tmp_path / "g.json"
    assert run_cli("gen", "--recipe", "normal", "--dims", "3", "--out", str(inst_path)) == 0
    assert run_cli(*command.split(), "--instance", str(inst_path)) in (0, 1)
    capsys.readouterr()
    assert run_cli(*command.split(), "--instance", str(inst_path), *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --instance conflicts with {named}\n"


def _flat_cells(blob: dict, sep: str) -> dict:
    """``blob`` as CSV cells: each fingerprint spliced in under its key's prefix
    (``worst_fingerprint`` gives ``worst_seed``, ...), lists joined by ``sep``,
    booleans lower case and null empty."""
    flat = {}
    for key, value in blob.items():
        if key in ("fingerprint", "worst_fingerprint"):
            prefix = key.removesuffix("fingerprint")
            flat.update({prefix + k: v for k, v in (value or {}).items()})
        else:
            flat[key] = value
    cells = {}
    for key, value in flat.items():
        if value is None:
            cells[key] = ""
        elif isinstance(value, bool):
            cells[key] = "true" if value else "false"
        elif isinstance(value, list):
            cells[key] = sep.join(map(str, value))
        else:
            cells[key] = str(value)
    return cells


# (argv, CSV columns, list separator)
_CSV_CASES = (
    (("check", "--entry", "THM_MAIN"), REPORT_CSV_FIELDS, "; "),
    # "S not normal; T not normal": two violations, so the join shows
    (("check", "--entry", "THM_MAIN", "--recipe", "cartesian-psd"), REPORT_CSV_FIELDS, "; "),
    (("check", "--entry", "FALSE_TEST", "--dims", "3"), REPORT_CSV_FIELDS, "; "),
    (("sweep", "--entry", "THM_MAIN", "--dims", "2,3", "--trials", "3"), SWEEP_CSV_FIELDS, " "),
    (("sweep", "--entry", "THM_MAIN", "--trials", "0"), SWEEP_CSV_FIELDS, " "),  # null worst fingerprint
)


@pytest.mark.parametrize("argv,fields,sep", _CSV_CASES)
def test_csv_row_is_the_flattened_json(argv, fields, sep, capsys):
    code = run_cli(*argv, "--format", "json")
    blob = json.loads(capsys.readouterr().out)
    assert run_cli(*argv, "--format", "csv") == code
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert tuple(header) == fields
    want = _flat_cells(blob, sep)
    if all(v is not None for k, v in blob.items() if k.endswith("fingerprint")):
        assert set(fields) <= set(want)  # every column is read off the JSON
    assert dict(zip(header, row)) == {f: want.get(f, "") for f in fields}


def test_catalog_csv_rows_are_the_flattened_json(capsys):
    assert run_cli("list", "--format", "json") == 0
    entries = json.loads(capsys.readouterr().out)
    assert run_cli("list", "--format", "csv") == 0
    table = capsys.readouterr().out.split("\n\n")[0]
    header, *rows = csv.reader(io.StringIO(table))
    assert len(rows) == len(entries)
    for row, entry in zip(rows, entries):
        want = _flat_cells(entry, " ")
        assert dict(zip(header, row)) == {f: want[f] for f in header}


def _readme_flags() -> dict:
    """Command -> flags, from the README's "Flags, per command" table."""
    text = README.read_text(encoding="utf-8").split("Flags, per command", 1)[1]
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", text, flags=re.MULTILINE)
    return {cmd: set(re.findall(r"`(--[a-z-]+)", flags)) for cmd, flags in rows}


def test_readme_flag_table_matches_the_parser():
    (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    want = {
        cmd: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for cmd, p in subparsers.choices.items()
    }
    assert _readme_flags() == want


_FUZZ_ARGVS = (
    ("check", "--entry", "SCHWARZ_REVERSE"),
    ("check", "--entry", "THM_MAIN"),
    ("check", "--entry", "REMARK_POSITIVE"),
    ("check", "--entry", "STEP_CARTESIAN"),
    ("fp",),
    ("ortho",),
)
_MATRICES = ("S", "T", "X", "Y")
_BIG_LITERAL = "__1e400__"  # written into the JSON text as the literal 1e400


@st.composite
def _mutated_instance_text(draw):
    """A valid dim-2 or dim-3 instance JSON with one malformed or extreme part."""
    dim = draw(st.sampled_from((2, 3)))
    family = draw(st.sampled_from(("hermitian", "inner-normal")))
    recipe = Recipe(family, dim, x_kind="ginibre", with_y=True, with_vector=True)
    obj = instance_to_json(make_instance(recipe, draw(st.integers(0, 3))))
    kind = draw(st.sampled_from(("drop", "scalar", "x-length", "matrix-shape")))
    if kind == "drop":
        parent = draw(st.sampled_from((obj, obj["bounds"], obj["S"])))
        del parent[draw(st.sampled_from(sorted(parent)))]
    elif kind == "scalar":
        paths = [(obj, k) for k in ("dim", "seed", "n")] + [(obj["bounds"], k) for k in obj["bounds"]]
        paths += [(obj["x"][i], p) for i in range(dim) for p in (0, 1)]
        for m in _MATRICES:
            paths += [(row[j], p) for row in obj[m]["rows"] for j in range(dim) for p in (0, 1)]
        parent, key = draw(st.sampled_from(paths))
        bad = (str(parent[key]), "abc", [parent[key]], float("nan"), float("inf"), _BIG_LITERAL, 10**400)
        # 1e160 is finite, but its square overflows a float
        parent[key] = draw(st.sampled_from((*bad, 1e160)))
    elif kind == "x-length":
        obj["x"] = draw(st.sampled_from((obj["x"][:-1], obj["x"] + [[0.0, 0.0]], [])))
    else:
        rows = obj[draw(st.sampled_from(_MATRICES))]["rows"]
        change = draw(st.sampled_from(("drop-row", "add-row", "drop-column", "ragged")))
        if change == "drop-row":
            rows.pop()
        elif change == "add-row":
            rows.append(rows[0])
        elif change == "drop-column":
            for row in rows:
                row.pop()
        else:
            rows[0].pop()
    return json.dumps(obj).replace(f'"{_BIG_LITERAL}"', "1e400")


@settings(max_examples=150, deadline=None)
@given(_mutated_instance_text())
def test_mutated_instance_exits_with_a_documented_code(tmp_path_factory, text):
    inst_path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    inst_path.write_text(text)
    for argv in _FUZZ_ARGVS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_cli(*argv, "--instance", str(inst_path)) in (0, 1, 2)


# (command, whether it takes --tol); THM_MAIN holds, so an accepted run exits 0 or 1
_FLAG_FUZZ_COMMANDS = (
    ("check --entry THM_MAIN", True),
    ("sweep --entry THM_MAIN --trials 2", True),
    ("search --entry THM_MAIN --iterations 3 --restarts 1", True),
    ("gen --recipe normal", False),
    ("fp", False),
    ("ortho", False),
)
_TOLS = ("nan", "inf", "-1", "0", "1e-15", "1e-14", "1e-3", "2e-3")
_GOOD_TOLS = ("1e-14", "1e-3")  # the bounds of [1e-14, 1e-3]
# every value is refused before anything is allocated, but "2,,3" in sweep,
# which runs dims 2 and 3
_DIMS = ("0", "-2", "1e3", ",", "2,,3", "1025", str(10**30), "2,2")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_FLAG_FUZZ_COMMANDS),
    st.none() | st.sampled_from(_TOLS),
    st.none() | st.sampled_from(_DIMS),
)
def test_tol_and_dims_exit_with_a_documented_code(command_case, tol, dims):
    command, takes_tol = command_case
    argv = command.split() + ([f"--tol={tol}"] if tol else []) + ([f"--dims={dims}"] if dims else [])
    refused = (tol is not None and not (takes_tol and tol in _GOOD_TOLS)) or (
        dims is not None and not (dims == "2,,3" and argv[0] == "sweep")
    )
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 if refused else code in (0, 1), argv
    assert "Traceback" not in err.getvalue()
