"""Command-line front end: checks, sweeps, searches, and derivation analyses.

Everything is driven by explicit flags (no environment configuration) and all
randomness flows from --seed, so identical invocations produce byte-identical
report artifacts. Exit codes: 0 all applicable checks satisfied/consistent,
1 at least one violation found, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from commlab.catalog import (
    CATALOG,
    DEFAULT_TOL,
    REPORT_CSV_FIELDS,
    SWEEP_CSV_FIELDS,
    SweepConfig,
    evaluate,
    get_entry,
    sweep,
)
from commlab.core import HypothesisError, InputError, ShapeError, hs_norm, op_norm
from commlab.derivations import (
    check_fp_pair,
    check_reduction,
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
from commlab.search import maximize_ratio, search_state_to_json

_TOL_MIN, _TOL_MAX = 1e-14, 1e-3
_DIM_MAX = 1024  # a dense complex matrix at this size is 16 MiB


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(fields, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return instance_from_json(data)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InputError(f"--dims expects integers, got {text!r}") from exc
    if not dims:
        raise InputError("--dims expects at least one dimension")
    if max(dims) > _DIM_MAX:
        raise InputError(f"--dims must not exceed {_DIM_MAX}")
    return dims


def _check_tol(tol: float) -> float:
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise InputError(f"--tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}]")
    return tol


def _generate_instance(args, entry):
    """Instance generated from --recipe/--dims/--seed, with the pieces ``entry`` needs."""
    default_dim = 2 if args.recipe == "equality-example" else 4
    dims = _parse_dims(args.dims) if args.dims else (default_dim,)
    if len(dims) != 1:
        raise InputError("this command takes a single dimension")
    try:
        if entry is not None:
            recipe = entry.recipe_for(args.recipe, dims[0])
        else:
            recipe = Recipe(family=args.recipe or "normal", dim=dims[0])
        return make_instance(recipe, args.seed)
    except HypothesisError as exc:
        # an unbuildable generation request is a config problem, not a finding
        raise InputError(str(exc)) from exc


def _resolve_instance(args, entry=None):
    """Instance from --instance, else generated from --recipe/--dims/--seed."""
    if args.instance:
        return _load_instance(args.instance)
    return _generate_instance(args, entry)


def _cmd_list(args) -> int:
    if args.format == "json":
        payload = [
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
        _emit(_json_text(payload), args.out)
        return 0
    if args.format == "csv":
        rows = [
            [e.id, e.status, e.direction, " ".join(sorted(e.requires)), e.default_family, e.description]
            for e in CATALOG.values()
        ]
        text = _csv_text(("id", "status", "direction", "requires", "default_recipe", "description"), rows)
        text += "\n# check report columns: " + ",".join(REPORT_CSV_FIELDS) + "\n"
        text += "# sweep report columns: " + ",".join(SWEEP_CSV_FIELDS) + "\n"
        _emit(text, args.out)
        return 0
    lines = [f"{len(CATALOG)} catalog entries\n"]
    for e in CATALOG.values():
        lines.append(f"  {e.id:20s} [{e.status}] {e.description}")
    lines.append("")
    lines.append("recipes: " + ", ".join(RECIPE_FAMILIES))
    lines.append("check report CSV columns: " + ",".join(REPORT_CSV_FIELDS))
    lines.append("sweep report CSV columns: " + ",".join(SWEEP_CSV_FIELDS))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    entry = get_entry(args.entry) if args.entry else None
    inst = _generate_instance(args, entry)
    _emit(_json_text(instance_to_json(inst)), args.out)
    return 0


def _cmd_check(args) -> int:
    entry = get_entry(args.entry)
    tol = _check_tol(args.tol)
    inst = _resolve_instance(args, entry)
    report = evaluate(entry, inst, tol=tol)
    if args.format == "csv":
        _emit(_csv_text(REPORT_CSV_FIELDS, [report.to_csv_row()]), args.out)
    else:
        _emit(_json_text(report.to_json()), args.out)
    return 1 if report.verdict == "violated" else 0


def _cmd_sweep(args) -> int:
    entry = get_entry(args.entry)
    tol = _check_tol(args.tol)
    dims = _parse_dims(args.dims) if args.dims else (4,)
    config = SweepConfig(
        dims=dims, trials=args.trials, master_seed=args.seed, recipe=args.recipe, tol=tol
    )
    report = sweep(entry, config)
    if args.format == "csv":
        _emit(_csv_text(SWEEP_CSV_FIELDS, [report.to_csv_row()]), args.out)
    else:
        _emit(_json_text(report.to_json()), args.out)
    print(f"# sweep wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    return 1 if report.failures > 0 else 0


def _cmd_search(args) -> int:
    tol = _check_tol(args.tol)
    dims = _parse_dims(args.dims) if args.dims else (4,)
    if len(dims) != 1:
        raise InputError("search takes a single dimension")
    state = maximize_ratio(
        args.entry,
        dim=dims[0],
        iterations=args.iterations,
        restarts=args.restarts,
        master_seed=args.seed,
        recipe=args.recipe,
        tol=tol,
    )
    _emit(_json_text(search_state_to_json(state)), args.out)
    return 1 if state.best_report.verdict == "violated" else 0


def _cmd_fp(args) -> int:
    inst = _resolve_instance(args)
    report = check_fp_pair(inst.S, inst.T)
    reductions = []
    for element in report.kernel:
        red = check_reduction(inst.S, element.C)
        reductions.append(
            {
                "kernel_residual": element.residual,
                "range_reduces": red.range_reduces,
                "restriction_normal": red.restriction_normal,
                "residuals": red.residuals,
            }
        )
    payload = {
        "holds": report.holds,
        "kernel_dimension": report.kernel_dimension,
        "worst_adjoint_residual": report.worst_residual,
        "adjoint_residuals": list(report.adjoint_residuals),
        "reductions": reductions,
        "fingerprint": inst.fingerprint().to_json(),
    }
    _emit(_json_text(payload), args.out)
    return 0 if report.holds else 1


def _cmd_ortho(args) -> int:
    inst = _resolve_instance(args)
    if inst.C is not None:
        c = inst.C
        c_source = "instance"
    else:
        basis = kernel_basis(lift_derivation(inst.S, inst.T))
        if not basis:
            payload = {
                "verdict": "vacuous",
                "kernel_dimension": 0,
                "fingerprint": inst.fingerprint().to_json(),
            }
            _emit(_json_text(payload), args.out)
            return 0
        c = basis[0].C
        c_source = "kernel-basis[0]"
    c_hs = hs_norm(c)
    c_op = op_norm(c)
    try:
        hs_min = min_distance_hs(inst.S, inst.T, c)
        probe = orthogonality_probe_opnorm(inst.S, inst.T, c, trials=args.trials, seed=args.seed)
    except HypothesisError as exc:
        payload = {
            "verdict": "not-applicable",
            "hypothesis_violations": [str(exc)],
            "fingerprint": inst.fingerprint().to_json(),
        }
        _emit(_json_text(payload), args.out)
        return 0
    hs_consistent = hs_min >= c_hs - 1e-8 * max(1.0, c_hs)
    payload = {
        "c_source": c_source,
        "c_hs_norm": c_hs,
        "c_op_norm": c_op,
        "min_distance_hs": hs_min,
        "hs_consistent": hs_consistent,
        "probe_min_found": probe.min_found,
        "probe_verdict": probe.verdict,
        "probe_trials": args.trials,
        "seed": args.seed,
        "fingerprint": inst.fingerprint().to_json(),
    }
    _emit(_json_text(payload), args.out)
    return 0 if hs_consistent and probe.verdict == "consistent" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commlab",
        description="Evaluate, sweep, and stress-test commutator norm inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, entry_flag=True, instance_flag=True):
        if entry_flag:
            p.add_argument("--entry", help="catalog entry id (see `commlab list`)")
        if instance_flag:
            p.add_argument("--instance", help="path to an instance JSON file")
        p.add_argument("--recipe", choices=RECIPE_FAMILIES, help="generation recipe family")
        p.add_argument("--dims", help="dimension, or comma list for sweep (default 4)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="margin tolerance")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

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
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check, require_entry=True)

    p_sweep = sub.add_parser("sweep", help="randomized trials of one entry")
    add_common(p_sweep, instance_flag=False)
    p_sweep.add_argument("--trials", type=int, default=100, help="trials per dimension")
    p_sweep.set_defaults(func=_cmd_sweep, require_entry=True)

    p_search = sub.add_parser("search", help="maximize tightness / hunt counterexamples")
    add_common(p_search, instance_flag=False)
    p_search.add_argument("--iterations", type=int, default=500)
    p_search.add_argument("--restarts", type=int, default=8)
    p_search.set_defaults(func=_cmd_search, require_entry=True)

    p_fp = sub.add_parser("fp", help="adjoint-intertwining check plus reduction diagnostics")
    add_common(p_fp, entry_flag=False)
    p_fp.set_defaults(func=_cmd_fp)

    p_ortho = sub.add_parser("ortho", help="range-kernel orthogonality: exact HS + probe")
    add_common(p_ortho, entry_flag=False)
    p_ortho.add_argument("--trials", type=int, default=32, help="probe sample count")
    p_ortho.set_defaults(func=_cmd_ortho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "require_entry", False) and not args.entry:
        print("error: --entry is required for this command", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (InputError, ShapeError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        # hypothesis problems are reported, never treated as usage errors
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
