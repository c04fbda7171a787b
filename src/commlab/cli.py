"""Command-line front end: checks, sweeps, searches, and derivation analyses.

Everything is driven by explicit flags (no environment configuration) and all
randomness flows from --seed, so identical invocations produce byte-identical
report artifacts. Exit codes: 0 all applicable checks satisfied/consistent,
1 at least one violation found, 2 usage or input error.

Each command handler returns ``(artifact, exit code)``, plus any lines for
stderr: the artifact is a JSON-ready object, or text already formatted, and
``main`` alone writes it to --out or stdout, then the stderr lines. A CSV row
holds the fields of the command's JSON artifact, flattened by ``_csv_text``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from commlab.catalog import (
    CATALOG,
    DEFAULT_TOL,
    evaluate,
    get_entry,
    sweep,
)
from commlab.core import (
    HypothesisError,
    InputError,
    hs_norm,
    op_norm,
    overflow_is_hypothesis_error,
)
from commlab.derivations import (
    check_fp_pair,
    kernel_basis,
    lift_derivation,
    min_distance_hs,
    orthogonality_probe_opnorm,
)
from commlab.instances import (
    RECIPE_FAMILIES,
    Recipe,
    instance_from_json,
    instance_to_json,
    make_instance,
)
from commlab.search import maximize_ratio

_TOL_MIN, _TOL_MAX = 1e-14, 1e-3
_DIM_MAX = 1024  # a dense complex matrix at this size is 16 MiB


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# column orders of the check and sweep CSV artifacts, read off their JSON
REPORT_CSV_FIELDS = (
    "entry", "verdict", "satisfied", "lhs", "rhs", "margin", "tol", "seed", "dim", "recipe",
    "recipe_hash", "hypothesis_violations",
)
SWEEP_CSV_FIELDS = (
    "entry", "trials", "passes", "failures", "not_applicable", "worst_margin", "worst_seed",
    "worst_dim", "worst_recipe", "worst_recipe_hash", "dims", "trials_per_dim", "master_seed",
    "recipe", "tol",
)


def _csv_cell(value, sep: str):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return sep.join(str(v) for v in value)
    return value


def _csv_text(fields, rows, sep: str) -> str:
    """CSV of JSON artifacts ``rows``, one column per name in ``fields``.

    A nested ``fingerprint`` is spliced in (``worst_fingerprint`` gives
    ``worst_seed``, ``worst_dim``, ...; a null one gives empty cells), a list
    is joined by ``sep``, booleans are lower case as in JSON and null is an
    empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        flat = {}
        for key, value in row.items():
            if key.endswith("fingerprint"):
                prefix = key[: -len("fingerprint")]
                flat.update((prefix + k, v) for k, v in (value or {}).items())
            else:
                flat[key] = value
        writer.writerow([_csv_cell(flat.get(f), sep) for f in fields])
    return buf.getvalue()


def _dims(args) -> tuple[int, ...]:
    """--dims as integers; by default 2 for the fixed equality-example, else 4."""
    if not args.dims:
        return (2,) if args.recipe == "equality-example" else (4,)
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"--dims expects integers, got {args.dims!r}") from exc
    if not dims:
        raise InputError("--dims expects at least one dimension")
    if max(dims) > _DIM_MAX:
        raise InputError(f"--dims must not exceed {_DIM_MAX}")
    return dims


def _dim(args) -> int:
    dims = _dims(args)
    if len(dims) != 1:
        raise InputError("this command takes a single dimension")
    return dims[0]


def _check_tol(tol: float) -> float:
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InputError(f"--tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}]")
    return tol


def _generate_instance(args, entry):
    """Instance generated from --recipe/--dims/--seed, with the pieces ``entry`` needs."""
    if entry is not None:
        recipe = entry.recipe_for(args.recipe, _dim(args))
    else:
        recipe = Recipe(family=args.recipe or "normal", dim=_dim(args))
    return make_instance(recipe, args.seed or 0)


def _resolve_instance(args, entry=None):
    """Instance from --instance, else generated from --recipe/--dims/--seed;
    giving both is an input error."""
    if args.instance:
        given = [f"--{f}" for f in ("recipe", "dims", "seed") if getattr(args, f) is not None]
        if given:
            raise InputError(f"--instance conflicts with {', '.join(given)}")
        try:
            with open(args.instance, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deep
            raise InputError(f"malformed JSON: {exc}") from None
        return instance_from_json(obj)
    return _generate_instance(args, entry)


def _cmd_list(args) -> tuple:
    rows = [
        {
            "id": e.id,
            "status": e.status,
            "direction": e.direction,
            "requires": sorted(e.requires),
            "hypotheses": list(e.hypotheses),
            "default_recipe": e.default_family,
            "description": e.description,
        }
        for e in CATALOG.values()
    ]
    if args.format == "json":
        return rows, 0
    if args.format == "csv":
        fields = ("id", "status", "direction", "requires", "default_recipe", "description")
        text = _csv_text(fields, rows, " ")
        text += "\n# check report columns: " + ",".join(REPORT_CSV_FIELDS) + "\n"
        text += "# sweep report columns: " + ",".join(SWEEP_CSV_FIELDS) + "\n"
        return text, 0
    lines = [f"{len(CATALOG)} catalog entries\n"]
    for e in CATALOG.values():
        lines.append(f"  {e.id:20s} [{e.status}] {e.description}")
    lines.append("")
    lines.append("recipes: " + ", ".join(RECIPE_FAMILIES))
    lines.append("check report CSV columns: " + ",".join(REPORT_CSV_FIELDS))
    lines.append("sweep report CSV columns: " + ",".join(SWEEP_CSV_FIELDS))
    return "\n".join(lines) + "\n", 0


def _cmd_gen(args) -> tuple:
    entry = get_entry(args.entry) if args.entry else None
    return instance_to_json(_generate_instance(args, entry)), 0


def _cmd_check(args) -> tuple:
    entry = get_entry(args.entry)
    tol = _check_tol(args.tol)
    inst = _resolve_instance(args, entry)
    report = evaluate(entry, inst, tol=tol)
    blob = report.to_json()
    artifact = _csv_text(REPORT_CSV_FIELDS, [blob], "; ") if args.format == "csv" else blob
    return artifact, 1 if report.verdict == "violated" else 0


def _cmd_sweep(args) -> tuple:
    """Also returns the wall time and why trials did not apply, for ``main``'s stderr."""
    entry = get_entry(args.entry)
    tol = _check_tol(args.tol)
    dims = _dims(args)
    start = time.perf_counter()
    blob, unsafe = sweep(entry, dims, args.trials, master_seed=args.seed, recipe=args.recipe, tol=tol)
    wall_time_s = time.perf_counter() - start
    artifact = _csv_text(SWEEP_CSV_FIELDS, [blob], " ") if args.format == "csv" else blob
    code = 1 if blob["failures"] > 0 else 0
    return artifact, code, f"# sweep wall time: {wall_time_s:.3f}s", (
        f"# sweep not applicable: {blob['not_applicable'] - unsafe} hypotheses failed, "
        f"{unsafe} unsafe to evaluate"
    )


def _cmd_search(args) -> tuple:
    """Also returns a count of the work done, for ``main`` to print on stderr."""
    tol = _check_tol(args.tol)
    artifact, counts = maximize_ratio(
        args.entry,
        dim=_dim(args),
        iterations=args.iterations,
        restarts=args.restarts,
        master_seed=args.seed,
        recipe=args.recipe,
        tol=tol,
    )
    code = 1 if artifact["best_report"]["verdict"] == "violated" else 0
    return artifact, code, "# search: " + ", ".join(f"{n} {name}" for name, n in counts.items())


def _cmd_fp(args) -> tuple:
    inst = _resolve_instance(args)
    report = check_fp_pair(inst.S, inst.T)
    return report | {"fingerprint": inst.fingerprint()}, 0 if report["holds"] else 1


def _cmd_ortho(args) -> tuple:
    inst = _resolve_instance(args)
    op = lift_derivation(inst.S, inst.T)
    base = {"lift": op.lift, "fingerprint": inst.fingerprint()}
    if inst.C is not None:
        c, c_source = inst.C, "instance"
    else:
        kernel = kernel_basis(op)
        if not len(kernel):
            return {**base, "verdict": "vacuous", "kernel_dimension": 0}, 0
        c, c_source = kernel[0], "kernel-basis[0]"
    c_hs = hs_norm(c)
    c_op = op_norm(c)
    try:
        hs_min = min_distance_hs(op, c)
        probe = orthogonality_probe_opnorm(op, c)
    except HypothesisError as exc:
        return {**base, "verdict": "not-applicable", "hypothesis_violations": [str(exc)]}, 0
    hs_consistent = hs_min >= c_hs - 1e-8 * max(1.0, c_hs)
    payload = {
        **base,
        "c_source": c_source,
        "c_hs_norm": c_hs,
        "c_op_norm": c_op,
        "min_distance_hs": hs_min,
        "hs_consistent": hs_consistent,
        **probe,
    }
    return payload, 0 if hs_consistent and probe["probe_verdict"] == "consistent" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Evaluate, sweep, and stress-test commutator norm inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--entry": dict(required=True, help="catalog entry id (see `commlab list`)"),
        "--instance": dict(help="path to an instance JSON file"),
        "--tol": dict(type=float, default=DEFAULT_TOL, help="margin tolerance"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }

    def add_common(p, *extra):
        """The generation flags and --out, then each flag of ``extra`` from ``flags``."""
        for flag in extra:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--recipe", choices=RECIPE_FAMILIES, help="generation recipe family")
        p.add_argument(
            "--dims",
            help="dimension, or comma list for sweep (default 2 for equality-example, else 4)",
        )
        # no default where --instance can stand in, so that a given --seed shows
        seed_default = None if "--instance" in extra else 0
        p.add_argument("--seed", type=int, default=seed_default, help="master seed (default 0)")
        p.add_argument("--out", help="write the report here instead of stdout")

    p_list = sub.add_parser("list", help="print the catalog with statuses")
    p_list.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_list.add_argument("--out")
    p_list.set_defaults(func=_cmd_list)

    p_gen = sub.add_parser("gen", help="generate an instance JSON from a recipe")
    p_gen.add_argument("--recipe", choices=RECIPE_FAMILIES, required=True)
    p_gen.add_argument("--entry", help="include the pieces this entry needs")
    p_gen.add_argument("--dims")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check", help="evaluate one entry on one instance")
    add_common(p_check, "--entry", "--instance", "--tol", "--format")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="randomized trials of one entry")
    add_common(p_sweep, "--entry", "--tol", "--format")
    p_sweep.add_argument("--trials", type=int, default=100, help="trials per dimension")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_search = sub.add_parser("search", help="maximize tightness / hunt counterexamples")
    add_common(p_search, "--entry", "--tol")
    p_search.add_argument("--iterations", type=int, default=500)
    p_search.add_argument("--restarts", type=int, default=8)
    p_search.set_defaults(func=_cmd_search)

    p_fp = sub.add_parser("fp", help="adjoint-intertwining check plus reduction diagnostics")
    add_common(p_fp, "--instance")
    p_fp.set_defaults(func=_cmd_fp)

    p_ortho = sub.add_parser("ortho", help="range-kernel orthogonality: exact HS + probe")
    add_common(p_ortho, "--instance")
    p_ortho.set_defaults(func=_cmd_ortho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with overflow_is_hypothesis_error():
            artifact, code, *notes = args.func(args)
        text = artifact if isinstance(artifact, str) else _json_text(artifact)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        for note in notes:
            print(note, file=sys.stderr)
        return code
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        # hypothesis problems are reported, never treated as usage errors
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
