"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json

import numpy as np

from commlab.catalog import evaluate, get_entry, sweep
from commlab.cli import main as cli_main
from commlab.core import commutator, hs_norm, numerical_radius, op_norm
from commlab.derivations import check_fp_pair, kernel_basis, lift_derivation, min_distance_hs, orthogonality_probe_opnorm
from commlab.instances import Recipe, derive_seed, equality_example, make_instance
from commlab.search import maximize_ratio, search_state_to_json
from oracles import random_matrix, random_normal_matrix, sampling_radius


def _verdict(num: int, label: str, ok: bool):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_main_bound_sweep():
    rep = sweep("THM_MAIN", dims=(2, 4, 8, 16), trials=1000, master_seed=20260811)
    worst_rhs = 0.0
    if rep.worst_fingerprint is not None:
        fp = rep.worst_fingerprint
        inst = make_instance(get_entry("THM_MAIN").recipe_for(fp.recipe, fp.dim), fp.seed)
        worst_rhs = evaluate("THM_MAIN", inst).rhs
    ok = (
        rep.trials == 4000
        and rep.failures == 0
        and rep.not_applicable == 0
        and rep.worst_margin >= -1e-9 * max(1.0, worst_rhs)
        and rep.wall_time_s < 60.0
    )
    _verdict(
        1,
        f"main bound: 4000 trials, {rep.failures} failures, worst margin "
        f"{rep.worst_margin:.3e}, {rep.wall_time_s:.1f}s",
        ok,
    )


def test_criterion_02_proof_chain_sweeps():
    results = {}
    for entry_id in ("STEP_CENTERED", "STEP_CARTESIAN", "STEP_HALF_BAND"):
        rep = sweep(entry_id, dims=(8,), trials=1000, master_seed=777)
        results[entry_id] = (rep.failures, rep.not_applicable)
    ok = all(f == 0 and na == 0 for f, na in results.values())
    _verdict(2, f"proof chain at dim 8: failures/NA per step {results}", ok)


def test_criterion_03_equality_example_reproduction():
    inst = equality_example()
    comm_norm = op_norm(commutator(inst.S, inst.T))
    g = inst.S @ inst.T
    gx = g @ inst.x
    stx_sq = float(np.linalg.norm(gx) ** 2)
    inner = complex(inst.x.conj() @ (g @ gx))
    report = evaluate("SCHWARZ_REVERSE", inst)
    half_rhs = 0.5 * (stx_sq**2 - abs(inner) ** 2)
    checks = (
        abs(comm_norm - 2.0) <= 1e-12,
        abs(stx_sq - 2.0) <= 1e-12,
        abs(inner) <= 1e-12,
        report.verdict == "satisfied",
        abs(report.lhs - half_rhs) <= 1e-12,
    )
    ok = all(checks)
    _verdict(
        3,
        f"equality example: |ST-TS|={comm_norm}, |STx|^2={stx_sq}, "
        f"<(ST)^2 x,x>={inner:.1e}, half-constant equality gap "
        f"{abs(report.lhs - half_rhs):.2e}",
        ok,
    )


def test_criterion_04_hs_product_equality():
    worst = 0.0
    for k in range(1000):
        inst = make_instance(Recipe("normal", 8), derive_seed(4040, k))
        lhs, rhs = hs_norm(inst.S @ inst.T), hs_norm(inst.T @ inst.S)
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    ok = worst <= 1e-9
    _verdict(4, f"HS product equality on 1000 normal pairs at dim 8: worst rel gap {worst:.2e}", ok)


def test_criterion_05_fp_theorem():
    failures = 0
    for k in range(200):
        dim = 2 + k % 7
        if k % 2 == 0:
            s = random_normal_matrix(dim, derive_seed(505, k))
            t = random_normal_matrix(dim, derive_seed(505, k, 1))
        else:  # same operator twice: a pair with a large kernel
            s = random_normal_matrix(dim, derive_seed(505, k))
            t = s
        if not check_fp_pair(s, t).holds:
            failures += 1
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = check_fp_pair(nil, np.zeros((2, 2), dtype=complex))
    basis = kernel_basis(lift_derivation(nil, np.zeros((2, 2), dtype=complex)))
    unit_norms = all(abs(hs_norm(e.C) - 1.0) <= 1e-12 for e in basis)
    ok = (
        failures == 0
        and rep.holds is False
        and unit_norms
        and abs(rep.worst_residual - 1.0) <= 1e-10
    )
    _verdict(
        5,
        f"FP: 200 normal pairs all hold ({failures} failures); shift-vs-zero pair fails "
        f"with worst residual {rep.worst_residual:.12f} = kernel element HS norm",
        ok,
    )


def _random_kernel_element(op, seed):
    basis = kernel_basis(op)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    coeffs /= np.linalg.norm(coeffs)
    return sum(w * e.C for w, e in zip(coeffs, basis))


def test_criterion_06_hs_orthogonality():
    worst = 0.0
    for k in range(100):
        dim = 2 + k % 5
        inst = make_instance(Recipe("inner-normal", dim), derive_seed(606, k))
        op = lift_derivation(inst.S, inst.T)
        c = _random_kernel_element(op, derive_seed(606, k, 1))
        dist = min_distance_hs(op, c)
        worst = max(worst, abs(dist - hs_norm(c)) / max(hs_norm(c), 1e-300))
    ok = worst <= 1e-8
    _verdict(6, f"HS range-kernel orthogonality on 100 inner pairs: worst rel error {worst:.2e}", ok)


def test_criterion_07_opnorm_probe():
    worst_deficit = 0.0
    most_evaluations = 0
    for k in range(100):
        dim = 2 + k % 3
        inst = make_instance(Recipe("inner-normal", dim), derive_seed(707, k))
        op = lift_derivation(inst.S, inst.T)
        c = _random_kernel_element(op, derive_seed(707, k, 1))
        probe = orthogonality_probe_opnorm(op, c)
        worst_deficit = max(worst_deficit, op_norm(c) - probe.min_found)
        most_evaluations = max(most_evaluations, probe.evaluations)
    # each probe takes 199 (one line search per exponent); a per-entry search took thousands
    ok = worst_deficit <= 1e-6 and most_evaluations <= 400
    _verdict(
        7,
        f"operator-norm orthogonality probe on 100 kernel elements: worst deficit {worst_deficit:.2e}, "
        f"at most {most_evaluations} evaluations",
        ok,
    )


def test_criterion_08_numerical_radius_oracle():
    worst = 0.0
    for k in range(50):
        dim = 2 + k % 7
        m = random_matrix(dim, derive_seed(808, k))
        worst = max(worst, abs(numerical_radius(m) - sampling_radius(m, seed=k)))
    nil = numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]]))
    ok = worst <= 1e-3 and abs(nil - 0.5) <= 1e-6
    _verdict(
        8,
        f"numerical radius: worst oracle gap {worst:.2e} over 50 matrices; "
        f"w(shift) = {nil:.8f}",
        ok,
    )


def test_criterion_09_violation_pipeline(tmp_path):
    sweep_path = tmp_path / "sweep.json"
    code = cli_main(
        ["sweep", "--entry", "FALSE_TEST", "--dims", "4", "--trials", "10",
         "--seed", "42", "--out", str(sweep_path)]
    )
    sweep_report = json.loads(sweep_path.read_text())
    fp = sweep_report["worst_fingerprint"]
    check_path = tmp_path / "check.json"
    cli_main(
        ["check", "--entry", "FALSE_TEST", "--recipe", fp["recipe"], "--dims", str(fp["dim"]),
         "--seed", str(fp["seed"]), "--out", str(check_path)]
    )
    replay_margin = json.loads(check_path.read_text())["margin"]
    replay_ok = code == 1 and replay_margin == sweep_report["worst_margin"]

    suspects_ok = True
    detail = {}
    for entry_id in ("SJ_MAX", "NUMRAD_CLAIM", "SQRT_PRODUCT", "COMMUTATOR_HS"):
        rep = sweep(entry_id, dims=(4,), trials=1000, master_seed=909)
        detail[entry_id] = rep.failures
        if rep.passes + rep.failures + rep.not_applicable != rep.trials:
            suspects_ok = False
        if rep.worst_fingerprint is not None:
            wfp = rep.worst_fingerprint
            inst = make_instance(get_entry(entry_id).recipe_for(wfp.recipe, wfp.dim), wfp.seed)
            if evaluate(entry_id, inst).margin != rep.worst_margin:
                suspects_ok = False
    ok = replay_ok and suspects_ok
    _verdict(
        9,
        f"violation pipeline: FALSE_TEST exit 1 with exact replay ({replay_ok}); "
        f"suspect sweeps completed, failures {detail}",
        ok,
    )


def test_criterion_10_search_determinism_and_soundness():
    run1 = maximize_ratio("THM_MAIN", dim=2, iterations=500, restarts=8, master_seed=1001)
    run2 = maximize_ratio("THM_MAIN", dim=2, iterations=500, restarts=8, master_seed=1001)
    blob1 = json.dumps(search_state_to_json(run1), sort_keys=True)
    blob2 = json.dumps(search_state_to_json(run2), sort_keys=True)
    re_report = evaluate("THM_MAIN", run1.best_instance)
    re_objective = re_report.lhs / re_report.rhs
    ok = blob1 == blob2 and abs(re_objective - run1.best_objective) <= 1e-12
    _verdict(
        10,
        f"search: byte-identical runs ({blob1 == blob2}), best ratio {run1.best_objective:.9f} "
        f"re-evaluates within {abs(re_objective - run1.best_objective):.1e}",
        ok,
    )
