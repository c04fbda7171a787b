"""Output checks, run after the timed loop.

An op fails when it raised, when its exit code or pinned verdict fields
differ from ``expected.json``, or when ``search``'s best instance, re-evaluated
independently, does not give the reported verdict and margin.
Byte identity with the pinned artifact digest is counted apart and is not a
failure, since the last digits of a float may differ between BLAS builds.
"""

from __future__ import annotations

import hashlib
import json

from workloads import key, verdict_fields


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_search(out: dict) -> str | None:
    from commlab.catalog import evaluate
    from commlab.instances import instance_from_json

    best = out["best_report"]
    replay = evaluate(out["entry"], instance_from_json(out["best_instance"]), tol=best["tol"])
    if replay.verdict != best["verdict"]:
        return f"best instance re-evaluates to {replay.verdict}, reported {best['verdict']}"
    if best["margin"] is None or abs(replay.margin - best["margin"]) > 1e-9 * max(1.0, abs(replay.rhs)):
        return f"best instance re-evaluates to margin {replay.margin!r}, reported {best['margin']!r}"
    return None


def check_op(argv: list[str], rc, text: str, error: str | None, expected: dict) -> str | None:
    """None when the op is correct, else the reason it failed."""
    if error is not None:
        return f"raised {error}"
    pinned = expected.get(key(argv))
    if pinned is None:
        return "no pinned expectation"
    if rc != pinned["exit"]:
        return f"exit code {rc}, pinned {pinned['exit']}"
    try:
        out = json.loads(text)
        fields = verdict_fields(argv, text)
    except (ValueError, KeyError) as exc:
        return f"unreadable artifact: {exc!r}"
    if fields != pinned["fields"]:
        return f"verdict fields {fields}, pinned {pinned['fields']}"
    if argv[0] == "search":
        return _check_search(out)
    return None


class Checker:
    """Checks each distinct (argv, artifact) once; counts per op."""

    def __init__(self, expected: dict):
        self.expected = expected
        self._memo: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.reasons: list[str] = []

    def add(self, argv: list[str], rc, text: str, error: str | None) -> None:
        self.attempted += 1
        d = digest(text)
        memo_key = (key(argv), rc, d, error)
        if memo_key not in self._memo:
            self._memo[memo_key] = check_op(argv, rc, text, error, self.expected)
        reason = self._memo[memo_key]
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{key(argv)}: {reason}")
        pinned = self.expected.get(key(argv))
        if pinned is not None and pinned["sha256"] == d:
            self.identical += 1
