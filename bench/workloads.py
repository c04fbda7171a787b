"""The benchmark workloads: argv pools, seeded op plans, verdict fields.

Every op is one ``commlab.cli.main(argv)`` call. A workload is a list of
groups; one round runs one op of each group, so every group gets the same
number of ops. Each group draws its argv from a fixed pool whose exit codes
and verdict fields are pinned in ``expected.json`` (see ``pin.py``); the
workload seed only chooses the order in which a run walks each pool, so the
same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SUSPECT_ENTRIES = ("SJ_GENERAL", "SJ_MAX", "SQRT_PRODUCT", "NUMRAD_CLAIM", "COMMUTATOR_HS")
# normal twice per inner-normal; see the fp-lift workload
FP_RECIPES = ("normal", "inner-normal", "normal")
FP_DIMS = (8, 12, 16, 20, 24)


@dataclass(frozen=True)
class Group:
    """Argv templates and the pool of ``--seed`` values each is run with.

    A group with several templates takes them in turn, one per round; a
    template listed twice runs twice as often.
    """

    name: str
    templates: tuple[str, ...]  # str.format templates with a {k} field for the op seed
    pool: int  # op seeds are 0 .. pool-1

    def argv(self, t: int, k: int) -> list[str]:
        return self.templates[t].format(k=k).split()


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    # Fixed per workload so that it names the same group on every run: each
    # value sits inside one group of the sorted op times and leaves at least
    # ten ops beyond it at a 55 s run on a 2-core machine.
    tail_percentile: float


def _workloads() -> dict[str, Workload]:
    search = Workload(
        "search-suspect",
        tuple(
            Group(e, (f"search --entry {e} --dims 4 --iterations 100 --restarts 2 --seed {{k}}",), 24)
            for e in SUSPECT_ENTRIES
        ),
        # the middle of the NUMRAD_CLAIM group, the slowest fifth of the ops
        tail_percentile=90.0,
    )
    fp = Workload(
        "fp-lift",
        # One group per n: with an odd number of groups the median falls
        # inside the n=16 group. Within a group the two recipes' op times do
        # not overlap (inner-normal also checks each kernel element), so a
        # group runs normal twice per inner-normal: the median and the p85
        # tail then fall inside the normal ops of n=16 and n=24, not on the
        # border between the recipes.
        tuple(
            Group(f"n-{n}", tuple(f"fp --recipe {r} --dims {n} --seed {{k}}" for r in FP_RECIPES), 24)
            for n in FP_DIMS
        ),
        tail_percentile=85.0,
    )
    return {w.name: w for w in (search, fp)}


WORKLOADS = _workloads()


def plan(workload: Workload, seed: int):
    """Endless list of rounds; round r is one argv per group, seeded order.

    Round r takes each group's template r mod (number of templates), and
    walks a seeded shuffle of the pool per template.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    orders = []
    for g in workload.groups:
        per_template = []
        for _ in g.templates:
            order = list(range(g.pool))
            rng.shuffle(order)
            per_template.append(order)
        orders.append(per_template)
    r = 0
    while True:
        round_ = []
        for g, per_template in zip(workload.groups, orders):
            t, i = r % len(g.templates), r // len(g.templates)
            round_.append(g.argv(t, per_template[t][i % g.pool]))
        yield round_
        r += 1


def all_argvs():
    for w in WORKLOADS.values():
        for g in w.groups:
            for template in dict.fromkeys(g.templates):  # a template may be listed twice
                for k in range(g.pool):
                    yield template.format(k=k).split()


def key(argv: list[str]) -> str:
    return " ".join(argv)


def verdict_fields(argv: list[str], text: str) -> dict:
    """The fields of one artifact that are pinned: counts and verdicts only."""
    out = json.loads(text)
    command = argv[0]
    if command == "search":
        return {"best_report.verdict": out["best_report"]["verdict"]}
    if command == "fp":
        return {"holds": out["holds"], "kernel_dimension": out["kernel_dimension"]}
    raise ValueError(f"no pinned fields for command {command!r}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
