"""Pinned CLI artifacts and verdicts.

Pinned here: the catalog listing byte for byte; the verdict of every entry
on its default instances at seeds 0-2 and on two recipes that break most
hypotheses; the exact violation messages, in order, of every entry on
hand-built instances that break every hypothesis code; per recipe family,
the instances ``gen`` draws and the best instance ``search`` finds, so any
change to the order of random draws shows; and the report artifacts: every
entry's ``check --format csv``, ``sweep`` in JSON and CSV, and ``fp`` and
``ortho`` per generated family and on an instance file that carries ``C``,
and ``ortho`` on a Jordan block, where the probe finds a violation.

The files under tests/golden/ are the program's own output. After an
intended change, regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` and list the change in
CHANGES.md; a record that still passes its test keeps its pinned text, so
the diff shows only the records that changed.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from commlab.catalog import CATALOG, validate_hypotheses
from commlab.cli import main
from commlab.instances import (
    RECIPE_FAMILIES,
    Instance,
    Recipe,
    SpectralBounds,
    instance_to_json,
    make_instance,
    matrix_to_json,
)

GOLDEN = Path(__file__).parent / "golden"
ENTRY_IDS = tuple(CATALOG)
# (seed, recipe override); None keeps the entry's default recipe
CHECK_CASES = ((0, None), (1, None), (2, None), (0, "cartesian-psd"), (0, "unitary"))
REL = 1e-12
# gen --entry E covers X, Y, a positive definite X, x with n, and a tied T
GEN_ENTRIES = ("SJ_GENERAL", "THREE_TERM", "SCHWARZ_REVERSE", "SJ_SINGLE")
SEARCH_ENTRIES = ("SJ_GENERAL", "SJ_SINGLE", "SCHWARZ_REVERSE", "THREE_TERM_STATED")
GENERATED = tuple(f for f in RECIPE_FAMILIES if f != "equality-example")
SEARCH_CASES = tuple(
    (e, f, "3", "5") for f in GENERATED for e in SEARCH_ENTRIES
) + (("SCHWARZ_REVERSE", "equality-example", "2", "0"),)
INSTANCE_KEYS = ("bounds", "S", "T", "X", "Y", "x", "n")
WITH_C = "INSTANCE_WITH_C"  # stands for the path of _write_instance_with_c's file
JORDAN = "INSTANCE_JORDAN"  # stands for the path of _write_jordan_instance's file
SWEEP_CASES = (
    ("THM_MAIN", "--dims", "2,3", "--trials", "4"),
    ("FALSE_TEST", "--dims", "2,3", "--trials", "4"),
    ("THM_MAIN", "--trials", "0"),  # no trial, so a null worst fingerprint
)
ARTIFACT_CASES = (
    {f"check:csv:{e}": ("check", "--entry", e, "--format", "csv") for e in ENTRY_IDS}
    | {
        ":".join(("sweep", fmt, *case)): ("sweep", "--entry", *case, "--format", fmt)
        for case in SWEEP_CASES
        for fmt in ("json", "csv")
    }
    | {f"fp:{f}": ("fp", "--recipe", f, "--dims", "3", "--seed", "1") for f in GENERATED}
    | {
        f"ortho:{f}": ("ortho", "--recipe", f, "--dims", "3", "--seed", "1") for f in GENERATED
    }
    | {
        "fp:instance-with-c": ("fp", "--instance", WITH_C),
        "ortho:instance-with-c": ("ortho", "--instance", WITH_C),
        "ortho:jordan": ("ortho", "--instance", JORDAN),
        "check:csv:instance-with-c": (
            "check", "--entry", "THM_MAIN", "--instance", WITH_C, "--format", "csv"
        ),
    }
)


def _run(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _check_key(entry_id: str, seed: int, recipe: str | None) -> str:
    return f"{entry_id}:{seed}" + (f":{recipe}" if recipe else "")


def _check_record(entry_id: str, seed: int, recipe: str | None) -> dict:
    argv = ["check", "--entry", entry_id, "--seed", str(seed)]
    if recipe:
        argv += ["--recipe", recipe]
    rc, out = _run(*argv)
    report = json.loads(out)
    return {
        "exit": rc,
        "verdict": report["verdict"],
        "hypothesis_violations": report["hypothesis_violations"],
        "lhs": report["lhs"],
        "rhs": report["rhs"],
        "margin": report["margin"],
    }


def _instance_record(inst: dict) -> dict:
    return {k: inst[k] for k in INSTANCE_KEYS if k in inst}


def _gen_record(family: str, entry_id: str) -> dict:
    rc, out = _run("gen", "--recipe", family, "--entry", entry_id, "--dims", "3", "--seed", "1")
    return {"exit": rc, "instance": _instance_record(json.loads(out)) if rc == 0 else None}


def _search_record(entry_id: str, family: str, dims: str, seed: str) -> dict:
    rc, out = _run(
        "search", "--entry", entry_id, "--recipe", family, "--dims", dims,
        "--iterations", "60", "--restarts", "2", "--seed", seed,
    )
    if not out:  # a search that stops on a hypothesis violation prints no state
        return {"exit": rc, "state": None}
    state = json.loads(out)
    return {
        "exit": rc,
        "verdict": state["best_report"]["verdict"],
        "best_objective": state["best_objective"],
        "margin": state["best_report"]["margin"],
        "instance": _instance_record(state["best_instance"]),
    }


def _csv_cell(text: str):
    """A CSV cell as the number it spells, else as the text."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _csv_cells(text: str) -> dict:
    """The one data row of a CSV artifact, keyed by the header."""
    header, row = csv.reader(io.StringIO(text))
    return dict(zip(header, map(_csv_cell, row)))


def _write_instance_with_c(path: str) -> None:
    """An inner-normal pair with a C outside the kernel, as instance JSON."""
    blob = instance_to_json(make_instance(Recipe("inner-normal", 3), 5))
    blob["C"] = matrix_to_json(0.5 * np.eye(3) + 0.1j * np.ones((3, 3)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def _write_jordan_instance(path: str) -> None:
    """S = T = C = J_3, the 3 x 3 Jordan block, as instance JSON: C lies in
    the kernel and in the range of the derivation, so the probe finds a
    violation."""
    blob = instance_to_json(make_instance(Recipe("inner-normal", 3), 0))
    jordan = matrix_to_json(np.eye(3, k=1))
    blob |= {"S": jordan, "T": jordan, "C": jordan}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


_WRITERS = {WITH_C: _write_instance_with_c, JORDAN: _write_jordan_instance}


def _artifact_record(argv: tuple) -> dict:
    """Exit code and artifact; a CSV artifact is read into its cells."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/instance.json"
        for placeholder in set(argv) & set(_WRITERS):
            _WRITERS[placeholder](path)
        rc, out = _run(*(path if a in _WRITERS else a for a in argv))
    csv_out = "--format" in argv and argv[argv.index("--format") + 1] == "csv"
    return {"exit": rc, "artifact": _csv_cells(out) if csv_out else json.loads(out)}


def _assert_close(got, want, where: str) -> None:
    """Equal structure, floats equal at rel REL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL, abs_tol=REL), where
    else:
        assert got == want, where


def _kept(name: str, fresh: dict) -> dict:
    """The fresh records, except that one which passes ``_assert_close``
    against its pinned record keeps the pinned one, so that a regeneration
    rewrites only the records that changed."""
    path = GOLDEN / name
    pinned = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def close(got, want) -> bool:
        try:
            _assert_close(got, want, name)
        except (AssertionError, TypeError):
            return False
        return True

    return {k: pinned[k] if k in pinned and close(v, pinned[k]) else v for k, v in fresh.items()}


def _records_text(records: dict) -> str:
    """One record per line, so a changed record reads as one changed line."""
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in records.items())
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _broken_instances() -> dict[str, Instance]:
    """Instances that break every hypothesis code between them."""
    rng = np.random.default_rng(7)

    def ginibre():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    tight = SpectralBounds(0, 0, 0, 0, 0, 0, 0, 0)
    wide = SpectralBounds(-9, 9, -9, 9, -9, 9, -9, 9)
    general = Instance(
        S=ginibre(), T=ginibre(), bounds=tight, seed=0, dim=3, X=ginibre(), x=2.0 * np.eye(3)[0], n=0.0
    )
    h = ginibre()
    indefinite = Instance(
        S=np.diag([1.0, -1.0, 0.5]), T=h + h.conj().T, bounds=wide, seed=0, dim=3,
        X=np.diag([1.0, -1.0, 2.0]),
    )
    return {"general": general, "indefinite": indefinite}


def _violation_records() -> dict:
    insts = _broken_instances()
    return {e: {name: validate_hypotheses(e, inst) for name, inst in insts.items()} for e in ENTRY_IDS}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_list_bytes(fmt):
    rc, out = _run("list", "--format", fmt)
    assert rc == 0
    assert out == (GOLDEN / f"list.{fmt}").read_text(encoding="utf-8")


def test_golden_covers_every_entry():
    want = sorted(_check_key(e, s, r) for e in ENTRY_IDS for s, r in CHECK_CASES)
    assert sorted(_golden("checks.json")) == want
    assert sorted(_golden("violations.json")) == sorted(ENTRY_IDS)


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
@pytest.mark.parametrize("seed,recipe", CHECK_CASES)
def test_check_matches_golden(entry_id, seed, recipe):
    want = _golden("checks.json")[_check_key(entry_id, seed, recipe)]
    got = _check_record(entry_id, seed, recipe)
    for key in ("exit", "verdict", "hypothesis_violations"):
        assert got[key] == want[key], key
    for key in ("lhs", "rhs", "margin"):
        assert math.isclose(got[key], want[key], rel_tol=REL, abs_tol=REL), key


def test_violation_messages_match_golden():
    assert _violation_records() == _golden("violations.json")


@pytest.mark.parametrize("entry_id", GEN_ENTRIES)
@pytest.mark.parametrize("family", RECIPE_FAMILIES)
def test_gen_matches_golden(family, entry_id):
    want = _golden("gen.json")[f"{family}:{entry_id}"]
    _assert_close(_gen_record(family, entry_id), want, f"{family}:{entry_id}")


@pytest.mark.parametrize("key", ARTIFACT_CASES)
def test_artifact_matches_golden(key):
    """Floats at rel REL; verdicts, exit codes, lifts and counts exactly."""
    _assert_close(_artifact_record(ARTIFACT_CASES[key]), _golden("artifacts.json")[key], key)


@pytest.mark.parametrize("entry_id,family,dims,seed", SEARCH_CASES)
def test_search_matches_golden(entry_id, family, dims, seed):
    want = _golden("search.json")[f"{entry_id}:{family}"]
    _assert_close(_search_record(entry_id, family, dims, seed), want, f"{entry_id}:{family}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fmt in ("json", "csv"):
        (GOLDEN / f"list.{fmt}").write_text(_run("list", "--format", fmt)[1], encoding="utf-8")
    checks = {
        _check_key(e, s, r): _check_record(e, s, r) for e in ENTRY_IDS for s, r in CHECK_CASES
    }
    for name, records in (("checks.json", checks), ("violations.json", _violation_records())):
        text = json.dumps(_kept(name, records), indent=2) + "\n"
        (GOLDEN / name).write_text(text, encoding="utf-8")
    gens = {f"{f}:{e}": _gen_record(f, e) for f in RECIPE_FAMILIES for e in GEN_ENTRIES}
    searches = {f"{c[0]}:{c[1]}": _search_record(*c) for c in SEARCH_CASES}
    artifacts = {k: _artifact_record(argv) for k, argv in ARTIFACT_CASES.items()}
    for name, records in (("gen.json", gens), ("search.json", searches), ("artifacts.json", artifacts)):
        (GOLDEN / name).write_text(_records_text(_kept(name, records)), encoding="utf-8")
    sys.exit(0)
