"""Regenerate ``expected.json``: exit code, verdict fields and artifact digest
of every argv in every workload pool.

Run from the repository root; BLAS is limited to one thread as in the
benchmark:

    PYTHONPATH=src python3 bench/pin.py

Only regenerate on purpose: a change that moves a pinned verdict is exactly
what the benchmark is there to catch.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

# before numpy is imported
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from checks import digest  # noqa: E402
from workloads import EXPECTED_PATH, all_argvs, key, verdict_fields  # noqa: E402

import commlab.cli  # noqa: E402


def pin_one(argv: list[str]) -> tuple[str, dict]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = commlab.cli.main(argv)
    text = out.getvalue()
    return key(argv), {"exit": rc, "fields": verdict_fields(argv, text), "sha256": digest(text)}


def main() -> int:
    pinned = [pin_one(a) for a in all_argvs()]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(pinned), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pinned)} argvs to {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
