"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Runs every workload for one round, traced and untraced, and checks that every
metric named in BENCHMARK.json prints with its unit and that every op passes.
Then checks that one deliberately wrong pinned expectation is counted as a
failed op, that the tracer puts back every attribute it wraps, and that a
directory holding only the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TINY_SECONDS = "0.01"  # shorter than any op, so each run makes exactly one round

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, key, load_expected, plan  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_workload(name: str, spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run("--workload", name, "--seed", "3", "--seconds", TINY_SECONDS, "--trace", str(trace))
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= len(WORKLOADS[name].groups)
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == wanted, (name, trace, set(got) ^ set(wanted))
        for metric, unit in wanted.items():
            value = result["metrics"][metric]["value"]
            assert isinstance(value, (int, float)), (metric, value)
            assert f"  {metric} = " in proc.stdout and any(
                line.startswith(f"  {metric} = ") and line.endswith(f" {unit}")
                for line in proc.stdout.splitlines()
            ), (metric, unit)
        assert "machine: " in proc.stdout
        print(f"ok  {name} trace {trace}: {result['attempted']} ops, {len(wanted)} metrics")


def copy_benchmark(dest: Path, with_src: bool) -> None:
    """A checkout's benchmark files (and optionally its sources) under dest."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def check_wrong_expectation() -> None:
    name, seed = "fp-lift", 5
    tree = OUT / "wrong"
    copy_benchmark(tree, with_src=True)
    expected = load_expected()
    first = next(plan(WORKLOADS[name], seed))[0]
    expected[key(first)]["exit"] += 1
    (tree / "bench" / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    proc = run("--workload", name, "--seed", str(seed), "--seconds", TINY_SECONDS, "--trace", "0", cwd=tree)
    shutil.rmtree(tree)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1, proc.stdout
    ratio = f"failed_ops_ratio = {result['failed']}/{result['attempted']}"
    assert ratio in proc.stdout, proc.stdout
    print(f"ok  wrong expectation counted: {ratio}")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer  # imports every commlab layer

    before = {
        name: dict(vars(module)) for name, module in sys.modules.items() if name.startswith("commlab")
    }
    tracer = Tracer()
    tracer.install()
    assert any(
        getattr(m, "__wrapped__", None) for m in vars(sys.modules["commlab.core"]).values()
    ), "nothing was wrapped"
    tracer.restore()
    for name, attrs in before.items():
        now = vars(sys.modules[name])
        changed = [a for a, v in attrs.items() if now.get(a) is not v]
        assert not changed, (name, changed)
    print("ok  tracer restores every wrapped attribute")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    copy_benchmark(bare, with_src=False)
    proc = run("--workload", "fp-lift", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory exits {proc.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        check_workload(name, spec)
    check_wrong_expectation()
    check_tracer_restores()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
