"""A slice of the benchmark's pinned argvs, replayed in-process: pool seed 0 of
every group, and the seeds of SJ_GENERAL's pins nearest its bound. Each must
keep the exit code and verdict fields pinned in ``bench/expected.json``, so a
verdict flip shows here before a benchmark run would count it as a failed op."""

import importlib.util
import sys
from pathlib import Path

import pytest

from commlab.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


bench = _workloads_module()
EXPECTED = bench.load_expected()
ARGVS = [
    template.format(k=0).split()
    for workload in bench.WORKLOADS.values()
    for group in workload.groups
    for template in dict.fromkeys(group.templates)  # a template may be listed twice
]
# SJ_GENERAL is the only group whose pins mix verdicts: these 4 of its 24 read
# violated, and seed 22 is the satisfied one nearest the bound (best objective
# 0.9653), so a drifting move flips one of them first, from either side
(SJ_GENERAL,) = (g for g in bench.WORKLOADS["search-suspect"].groups if g.name == "SJ_GENERAL")
CANARIES = [SJ_GENERAL.argv(0, k) for k in (4, 9, 19, 22, 23)]
ARGVS += CANARIES


def test_slice_covers_every_group_and_template():
    assert sum(argv[0] == "search" for argv in ARGVS) == 10  # a pool seed per group and 5 canaries
    verdicts = {EXPECTED[bench.key(argv)]["fields"]["best_report.verdict"] for argv in CANARIES}
    assert verdicts == {"violated", "satisfied"}
    assert sum(argv[0] == "fp" for argv in ARGVS) == 10


@pytest.mark.parametrize("argv", ARGVS, ids=bench.key)
def test_pinned_exit_code_and_verdict(argv, capsys):
    pin = EXPECTED[bench.key(argv)]
    assert main(argv) == pin["exit"]
    assert bench.verdict_fields(argv, capsys.readouterr().out) == pin["fields"]
