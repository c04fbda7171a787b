"""Pinned CLI artifacts and verdicts.

Pinned here: the catalog listing byte for byte; the verdict of every entry
on its default instances at seeds 0-2 and on two recipes that break most
hypotheses; and the exact violation messages, in order, of every entry on
hand-built instances that break every hypothesis code.

The files under tests/golden/ are the program's own output. After an
intended change, regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` and list the change in
CHANGES.md.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from commlab.catalog import CATALOG, EXPLORATORY, validate_hypotheses
from commlab.cli import main
from commlab.instances import Instance, SpectralBounds

GOLDEN = Path(__file__).parent / "golden"
ENTRY_IDS = tuple(CATALOG) + tuple(EXPLORATORY)
# (seed, recipe override); None keeps the entry's default recipe
CHECK_CASES = ((0, None), (1, None), (2, None), (0, "cartesian-psd"), (0, "unitary"))
REL = 1e-12


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


def _broken_instances() -> dict[str, Instance]:
    """Instances that break every hypothesis code between them."""
    rng = np.random.default_rng(7)

    def ginibre():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    tight = SpectralBounds(0, 0, 0, 0, 0, 0, 0, 0)
    wide = SpectralBounds(-9, 9, -9, 9, -9, 9, -9, 9)
    general = Instance(
        S=ginibre(), T=ginibre(), bounds=tight, seed=0, dim=3, X=ginibre(), x=np.eye(3)[0], n=99.0
    )
    # the constructor refuses a non-unit x and a small n, so break them afterwards
    object.__setattr__(general, "x", 2.0 * general.x)
    object.__setattr__(general, "n", 0.0)
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fmt in ("json", "csv"):
        (GOLDEN / f"list.{fmt}").write_text(_run("list", "--format", fmt)[1], encoding="utf-8")
    checks = {
        _check_key(e, s, r): _check_record(e, s, r) for e in ENTRY_IDS for s, r in CHECK_CASES
    }
    for name, records in (("checks.json", checks), ("violations.json", _violation_records())):
        (GOLDEN / name).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
