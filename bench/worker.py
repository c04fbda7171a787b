"""One workload as a closed loop with a single client, in a fresh process.

Started by ``run.py`` with BLAS limited to one thread and ``src`` on the
path. Each op is one ``commlab.cli.main(argv)`` call; the next starts only
when the previous one returns. Rounds keep starting until ``--seconds`` have
passed. With ``--trace 1`` the loop runs untraced for half the time, then the
same rounds again with the layers wrapped (see ``tracer.py``). Outputs are
checked after all timing. The last stdout line is one JSON document.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

import commlab
import commlab.cli

from checks import Checker
from tracer import Tracer, metric_units
from workloads import WORKLOADS, load_expected, plan


def closed_loop(rounds, seconds=None, max_rounds=None, tracer=None):
    """Run whole rounds; returns [(group index, argv, rc, stdout, error, s)], loop s."""
    records = []
    start = perf_counter()
    for r, argvs in enumerate(rounds):
        if max_rounds is not None and r >= max_rounds:
            break
        if seconds is not None and r > 0 and perf_counter() - start >= seconds:
            break
        for g, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op_id = len(records)
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = commlab.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a failed run
                rc, error = None, repr(exc)
            records.append((g, argv, rc, out.getvalue(), error, perf_counter() - t0))
    return records, perf_counter() - start


def blas_info() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": cfg.get("name"), "version": cfg.get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    threads = None
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    info["threads"] = threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    expected = load_expected()

    warm = next(plan(workload, args.seed))[0]
    closed_loop([[warm]])

    result = {}
    if args.trace == 0:
        records, loop_s = closed_loop(plan(workload, args.seed), seconds=args.seconds)
        timed = records
    else:
        plain, plain_s = closed_loop(plan(workload, args.seed), seconds=args.seconds / 2)
        n_rounds = len(plain) // len(workload.groups)
        tracer = Tracer()
        tracer.install()
        try:
            traced, loop_s = closed_loop(plan(workload, args.seed), max_rounds=n_rounds, tracer=tracer)
        finally:
            tracer.restore()
        records = plain + traced
        timed = traced
        overhead = plain_s / loop_s
        result["per_layer"] = tracer.metrics(len(traced), overhead)
        result["per_layer_units"] = metric_units()
        result["bases"] = tracer.bases()
        result["hot"] = tracer.hot_layer()
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
            result["spans_path"] = args.spans_out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker(expected)
    for _, argv, rc, text, error, _ in records:
        checker.add(argv, rc, text, error)

    result.update(
        {
            "op_s": [r[5] for r in timed],
            "op_group": [r[0] for r in timed],
            "loop_s": loop_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "identical": checker.identical,
            "fail_reasons": checker.reasons,
            "commlab_file": commlab.__file__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
        }
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
