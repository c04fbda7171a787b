import json
import tracemalloc

import numpy as np
import pytest

from commlab.cli import main
from commlab.instances import instance_from_json


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestList:
    def test_text_lists_all_entries(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert out.startswith("17 catalog entries")
        for eid in ("THM_MAIN", "FALSE_TEST", "SCHWARZ_REVERSE"):
            assert eid in out

    def test_json_format(self, capsys):
        assert run_cli("list", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 17
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


class TestFpCommand:
    def test_inner_pair_holds(self, tmp_path):
        out = tmp_path / "fp.json"
        code = run_cli("fp", "--recipe", "inner-normal", "--dims", "3", "--seed", "2", "--out", str(out))
        assert code == 0
        payload = read_json(out)
        assert payload["holds"] is True
        assert payload["kernel_dimension"] >= 3
        assert len(payload["reductions"]) == payload["kernel_dimension"]

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
        code = run_cli("fp", "--instance", str(inst_path))
        assert code == 1


class TestOrthoCommand:
    def test_inner_pair_consistent(self, tmp_path):
        out = tmp_path / "ortho.json"
        code = run_cli(
            "ortho", "--recipe", "inner-normal", "--dims", "3", "--seed", "4",
            "--trials", "6", "--out", str(out),
        )
        assert code == 0
        payload = read_json(out)
        assert payload["hs_consistent"] is True
        assert payload["probe_verdict"] == "consistent"
        assert payload["min_distance_hs"] == pytest.approx(payload["c_hs_norm"], rel=1e-8)

    def test_trivial_kernel_is_vacuous(self, tmp_path):
        out = tmp_path / "ortho.json"
        code = run_cli("ortho", "--recipe", "normal", "--dims", "3", "--seed", "1", "--out", str(out))
        assert code == 0
        assert read_json(out)["verdict"] == "vacuous"


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
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "bounds": {k: 0.0 for k in ("a1", "b1", "c1", "d1", "c2", "d2")}
                    | {"a2": 2.0, "b2": 4.0},
                    "S": {"rows": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
                    "T": {"rows": [[[3, 0], [0, 0]], [[0, 0], [4, 0]]]},
                    "x": [[1, 0], [0, 0]],
                    "n": 0.0,
                }
            )
        )
        assert run_cli("check", "--entry", "SCHWARZ_REVERSE", "--instance", str(inst_path)) == 0
        assert "hypothesis violation:" in capsys.readouterr().err

    def test_sweep_counts_not_applicable(self, capsys):
        code = run_cli(
            "sweep", "--entry", "SCHWARZ_REVERSE", "--recipe", "inner-normal", "--dims", "3",
            "--trials", "2",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["not_applicable"] == 2


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
