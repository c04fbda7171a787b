"""commlab benchmark: CLI workloads timed end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (or anywhere: paths are taken from this file).
It compiles ``src`` to bytecode and runs the workload in one fresh Python
process as a closed loop with a single client (``worker.py``), with BLAS
limited to one thread; before and after, it times fresh interpreter starts up
to ``commlab.cli`` imported (``setup_s``). Every output is checked after the
timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop once
untraced and once traced and prints the per-layer metrics. Human-readable
lines come first (the machine, each metric with its unit, the tail's
percentile and op count, failures, byte identity); the last stdout line is
the JSON result. The exit code is 0 whenever a result is printed, and 2 when
the checkout cannot be benchmarked.

End-to-end metrics:
  setup_s       median of 12 fresh starts, half before the workload and half
                after it: interpreter to commlab.cli imported
  ops_per_s     ops over the closed loop's wall time
  op_s_p50      median op time
  op_s_tail     op time at the workload's fixed tail percentile
  peak_rss_mb   peak resident memory of the workload process
Failed ops are the result's ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
# per side of the workload: the machine's speed drifts over seconds, so
# sampling set-up at both ends of the run steadies the median
SETUP_STARTS = 6
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def build(started: float) -> None:
    if not (SRC / "commlab" / "cli.py").is_file():
        raise BenchError(f"no commlab sources under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "commlab"), str(BENCH)],
        capture_output=True, text=True, timeout=remaining(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def time_setup(started: float, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import commlab.cli"],
            env=env, capture_output=True, text=True, timeout=remaining(started),
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import commlab.cli failed:\n{proc.stderr}")
    return times


def run_worker(args, started: float, env: dict) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans_path(args.workload))]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining(started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if Path(result["commlab_file"]).resolve().parent != (SRC / "commlab").resolve():
        raise BenchError(f"imported commlab from {result['commlab_file']}, not from {SRC}")
    return result


def spans_path(workload: str) -> Path:
    return OUT_DIR / f"spans-{workload}.jsonl"


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine(worker: dict) -> dict:
    def read(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (read(str(index / "level")) or "").strip() == "3":
            l3 = (read(str(index / "size")) or "").strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": l3,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "blas": worker["blas"]["name"],
        "blas_version": worker["blas"]["version"],
        "blas_threads": worker["blas"]["threads"],
    }


def end_to_end(w, res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    op_s, loop_s = res["op_s"], res["loop_s"]
    n = len(op_s)
    tail = percentile(op_s, w.tail_percentile)
    beyond = sum(1 for x in op_s if x > tail)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / loop_s, "ops/s"),
        "op_s_p50": (statistics.median(op_s), "s"),
        "op_s_tail": (tail, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh starts {[round(t, 4) for t in setup]}",
        f"op_s_tail: p{w.tail_percentile:g} of {n} ops, {beyond} ops beyond it"
        + ("" if beyond >= 10 else "  (WARNING: fewer than 10 beyond; tail unresolved)"),
        f"loop: {n} ops in {n // len(w.groups)} rounds of {len(w.groups)} groups, {loop_s:.3f} s",
        "group median op s: " + ", ".join(
            f"{g.name} {statistics.median(s for s, i in zip(op_s, res['op_group']) if i == k):.4g}"
            for k, g in enumerate(w.groups)
        ),
    ]
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, list[str]]:
    units = res["per_layer_units"]
    metrics = {name: (res["per_layer"][name], units[name]) for name in units}
    hot, hot_s, leaf, leaf_s = res["hot"]
    traced_s = sum(res["op_s"])
    notes = [f"hot layer: {hot} (self {hot_s / traced_s:.1%} of traced op time)"]
    if leaf is not None:
        notes.append(f"hottest core call under it: {leaf} ({leaf_s / traced_s:.1%})")
    notes += [f"base of {name}: {base}" for name, base in res["bases"].items()]
    notes.append(f"spans recorded: {res['spans']}, written to {Path(res['spans_path']).relative_to(ROOT)}")
    return metrics, notes


def main(argv=None) -> int:
    started = perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        build(started)
        env = child_env()
        setup = time_setup(started, env)
        res = run_worker(args, started, env)
        setup += time_setup(started, env)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(w, res, setup)
    print("machine: " + json.dumps(machine(res), sort_keys=True))
    print(f"workload: {w.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ops_ratio = {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}")
    for reason in res["fail_reasons"]:
        print(f"    failed: {reason}")
    print(f"  artifacts byte-identical to pinned: {res['identical']}/{res['attempted']}")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
