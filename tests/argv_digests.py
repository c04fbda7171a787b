"""Print the exit code and output digests of a fixed grid of CLI argvs.

Run from the repository root, at two commits, and compare with ``diff``:

    python tests/argv_digests.py > before.txt
    ...
    python tests/argv_digests.py > after.txt
    diff before.txt after.txt

Each line reads ``exit sha256(stdout) sha256(stderr) argv...``, from one
in-process ``commlab.cli.main(argv)`` call. The argvs are every argv of the
benchmark's workloads (``bench/workloads.py``), then, for each catalog entry
and recipe, ``check --seed 3`` and ``search --iterations 60 --restarts 2
--seed 4`` at dim 3, then ``gen --seed 2``, ``fp`` and ``ortho`` per recipe at
dim 4 (dim 2 for equality-example), then, for each catalog entry at its default
recipe, ``sweep --dims 2,3 --trials 20 --seed 3`` as JSON and as CSV and ``check
--dims 3 --seed 3 --format csv``, then ``list`` in each format, and last four
``fp``/``ortho`` argvs at dims 24 and 32 whose normal or unitary S or T needs
the spectral lift's refinement step (the first eigenbasis fails its residual
check): should the refinement break, the pair falls to the Kronecker lift and
the digest changes. Last come argvs that read an instance file: ``check
--entry E``, ``fp`` and ``ortho`` on each pinned witness of
``tests/golden/witnesses.json``, then ``fp`` and ``ortho`` on S = T = C = J_3
(the nilpotent Jordan block) and again with C = 2^-30 J_3. Those files are
written to a temporary directory, and each line names its file by a stable
label, such as ``witness:SJ_GENERAL``, in place of the path. The ``# sweep
wall time:`` line is left out of the stderr digest, as it differs between
runs. Not collected by pytest.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from commlab.catalog import CATALOG  # noqa: E402
from commlab.cli import main  # noqa: E402
from commlab.instances import RECIPE_FAMILIES  # noqa: E402


def _workload_argvs() -> list[list[str]]:
    """Every argv of every pool in ``bench/workloads.py``, each once."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # its dataclasses look their module up by name
    spec.loader.exec_module(bench)
    return [
        template.format(k=k).split()
        for workload in bench.WORKLOADS.values()
        for group in workload.groups
        for template in dict.fromkeys(group.templates)  # a template may be listed twice
        for k in range(group.pool)
    ]


def _grid_argvs() -> list[list[str]]:
    def dims(recipe: str, dim: int) -> list[str]:
        return ["--recipe", recipe, "--dims", str(2 if recipe == "equality-example" else dim)]

    search = ["--iterations", "60", "--restarts", "2", "--seed", "4"]
    argvs = []
    for entry in CATALOG:
        for recipe in RECIPE_FAMILIES:
            argvs.append(["check", "--entry", entry, *dims(recipe, 3), "--seed", "3"])
            argvs.append(["search", "--entry", entry, *dims(recipe, 3), *search])
    for recipe in RECIPE_FAMILIES:
        argvs.append(["gen", *dims(recipe, 4), "--seed", "2"])
        argvs += [[command, *dims(recipe, 4)] for command in ("fp", "ortho")]
    return argvs


def _report_argvs() -> list[list[str]]:
    sweep = ["--dims", "2,3", "--trials", "20", "--seed", "3"]
    argvs = []
    for entry in CATALOG:
        argvs += [["sweep", "--entry", entry, *sweep, "--format", fmt] for fmt in ("json", "csv")]
        argvs.append(["check", "--entry", entry, "--dims", "3", "--seed", "3", "--format", "csv"])
    return argvs + [["list", "--format", fmt] for fmt in ("text", "json", "csv")]


def _refinement_argvs() -> list[list[str]]:
    """Pairs whose first eigenbasis of T (normal, unitary at dim 24) or S
    (unitary at dim 32) fails the residual check and is refined."""
    return [
        ["fp", "--recipe", "normal", "--dims", "32", "--seed", "8"],
        ["ortho", "--recipe", "normal", "--dims", "32", "--seed", "8"],
        ["fp", "--recipe", "unitary", "--dims", "24", "--seed", "38"],
        ["ortho", "--recipe", "unitary", "--dims", "32", "--seed", "10"],
    ]


def _jordan_instance(c_scale: float) -> dict:
    """S = T = J_3 and C = c_scale J_3, with every band [0, 0]."""
    def matrix(scale: float) -> dict:
        return {"rows": [[[scale if j == i + 1 else 0.0, 0.0] for j in range(3)] for i in range(3)]}

    bounds = {k: 0.0 for k in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")}
    return {"bounds": bounds, "S": matrix(1.0), "T": matrix(1.0), "C": matrix(c_scale)}


def _instance_argvs(directory: Path) -> list[tuple[list[str], list[str]]]:
    """(argv, argv as printed) for each argv that reads an instance file written
    to ``directory``; the printed argv names the file by its label."""
    witnesses = json.loads((ROOT / "tests" / "golden" / "witnesses.json").read_text())
    files = {f"witness:{entry}": obj for entry, obj in witnesses.items()}
    files |= {"jordan": _jordan_instance(1.0), "jordan-2^-30": _jordan_instance(2.0**-30)}
    argvs = []
    for k, (label, obj) in enumerate(files.items()):
        path = directory / f"instance-{k}.json"
        path.write_text(json.dumps(obj))
        commands = [["fp"], ["ortho"]]
        if label.startswith("witness:"):
            commands.insert(0, ["check", "--entry", label.removeprefix("witness:")])
        argvs += [([*c, "--instance", str(path)], [*c, "--instance", label]) for c in commands]
    return argvs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str], shown: list[str] | None = None) -> str:
    """One digest line for ``argv``, printed as ``shown`` (by default argv itself)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err_lines = err.getvalue().splitlines(keepends=True)
    err_text = "".join(line for line in err_lines if not line.startswith("# sweep wall time:"))
    return f"{code} {_digest(out.getvalue())} {_digest(err_text)} {' '.join(shown or argv)}"


if __name__ == "__main__":
    for argv in _workload_argvs() + _grid_argvs() + _report_argvs() + _refinement_argvs():
        print(run(argv), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for argv, shown in _instance_argvs(Path(tmp)):
            print(run(argv, shown), flush=True)
