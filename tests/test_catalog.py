import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.catalog import (
    CATALOG,
    HYPOTHESES,
    evaluate,
    get_entry,
    sweep,
    validate_hypotheses,
)
from commlab.cli import main
from commlab.core import HypothesisError, InputError, commutator, hs_norm, op_norm
from commlab.instances import (
    Instance,
    Recipe,
    SpectralBounds,
    derive_seed,
    equality_example,
    make_instance,
)
from oracles import direct_sum

seeds = st.integers(0, 2**31 - 1)


def _bare_instance(s, t, bounds=None, **kw):
    s = np.asarray(s, dtype=complex)
    bounds = bounds or SpectralBounds(-9, 9, -9, 9, -9, 9, -9, 9)
    return Instance(S=s, T=np.asarray(t, dtype=complex), bounds=bounds, seed=0, dim=s.shape[0], **kw)


class TestCatalogShape:
    def test_eighteen_entries(self):
        assert len(CATALOG) == 18

    def test_ids_unique_and_three_term_stated_listed(self):
        # each row is keyed by its own id, and the last row keeps every other id in place
        assert [e.id for e in CATALOG.values()] == list(CATALOG)
        assert list(CATALOG)[-1] == "THREE_TERM_STATED"

    def test_every_hypothesis_code_has_a_predicate(self):
        used = {code for e in CATALOG.values() for code in e.hypotheses}
        assert used <= set(HYPOTHESES)

    def test_statuses(self):
        assert {e.status for e in CATALOG.values()} == {"proven", "suspect-step", "refuted"}
        suspect = {i for i, e in CATALOG.items() if e.status == "suspect-step"}
        assert suspect == {"SQRT_PRODUCT", "COMMUTATOR_HS"}

    def test_unknown_entry(self):
        with pytest.raises(InputError):
            get_entry("NOPE")


@pytest.mark.parametrize("entry_id", CATALOG)
def test_status_follows_the_search_gate(entry_id, capsys):
    """An entry is refuted exactly when one deterministic search violates it,
    at dims 2 and 3, so each refuted entry's counterexample replays from its
    argv alone."""
    refuted = CATALOG[entry_id].status == "refuted"
    for dim in ("2", "3"):
        argv = ["search", "--entry", entry_id, "--dims", dim, "--iterations", "200"]
        code = main([*argv, "--restarts", "3", "--seed", "1"])
        verdict = json.loads(capsys.readouterr().out)["best_report"]["verdict"]
        assert (verdict == "violated") == refuted, (dim, verdict)
        assert code == (1 if refuted else 0)


class TestEntryRecipe:
    """An entry's recipe draws exactly the pieces it requires."""

    @pytest.mark.parametrize("entry_id", CATALOG)
    def test_pieces_follow_requires(self, entry_id):
        entry = get_entry(entry_id)
        inst = make_instance(entry.recipe_for(None, 3), 0)
        for name in ("X", "Y", "x", "n"):
            assert (getattr(inst, name) is not None) == (name in entry.requires), name
        x = inst.X
        x_pd = x is not None and np.allclose(x, x.conj().T) and np.linalg.eigvalsh(x).min() > 0
        assert x_pd == ("pd:X" in entry.hypotheses)


class TestValidateHypotheses:
    def test_identity_pair_clean(self):
        inst = _bare_instance(np.eye(2), np.eye(2), SpectralBounds(1, 1, 1, 1, 0, 0, 0, 0))
        assert validate_hypotheses("THM_MAIN", inst) == []

    def test_non_normal_flagged(self):
        inst = _bare_instance([[0, 1], [0, 0]], np.eye(2))
        assert "S not normal" in validate_hypotheses("THM_MAIN", inst)

    def test_negative_imaginary_part_flagged(self):
        # S = iC with C = diag(-1, 1): the real part is 0 (PSD), C is not
        inst = _bare_instance(1j * np.diag([-1.0, 1.0]), np.eye(2))
        assert "C not PSD" in validate_hypotheses("COR_SELF_COMMUTATOR", inst)

    def test_band_containment(self):
        inst = _bare_instance(
            np.diag([5.0, 0.0]), np.eye(2), SpectralBounds(0, 1, -9, 9, -9, 9, -9, 9)
        )
        violations = validate_hypotheses("STEP_HALF_BAND", inst)
        assert any("A spectrum outside" in v for v in violations)

    def test_x_unit_and_n(self):
        inst = equality_example()
        assert validate_hypotheses("SCHWARZ_REVERSE", inst) == []

    @pytest.mark.parametrize("entry_id, field", [("THREE_TERM", "X"), ("SCHWARZ_REVERSE", "n")])
    def test_missing_required_field_is_an_input_error(self, entry_id, field):
        inst = dataclasses.replace(equality_example(), **{field: None})
        with pytest.raises(InputError, match=f"entry {entry_id} requires instance field '{field}'"):
            validate_hypotheses(entry_id, inst)

    def test_thm_main_cost(self, linalg_calls):
        """Two SVDs per normality test (op_norm, then the residual), one eigvalsh per cartesian part."""
        inst = make_instance(get_entry("THM_MAIN").recipe_for(None, 4), 0)
        linalg_calls.update(svd=0, eigvalsh=0)
        assert validate_hypotheses("THM_MAIN", inst) == []
        assert linalg_calls == {"svd": 4, "eigvalsh": 4}


class TestEvaluate:
    def test_thm_main_on_equality_example(self):
        report = evaluate("THM_MAIN", equality_example())
        assert report.verdict == "satisfied"
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_commuting_pair_zero_lhs(self):
        inst = make_instance(Recipe("inner-normal", 4), 1)
        report = evaluate("THM_MAIN", inst)
        assert report.lhs == 0.0 and report.satisfied

    def test_schwarz_reverse_on_equality_example(self):
        inst = equality_example()
        report = evaluate("SCHWARZ_REVERSE", inst)
        assert report.verdict == "satisfied"
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert report.rhs == pytest.approx(1.0, abs=1e-12)
        assert report.margin == pytest.approx(report.lhs - report.rhs)
        # with the constant 1/2 in place of 1/n^2 the two sides coincide
        half_rhs = 0.5 * (report.lhs**2 - report.detail["inner_abs"] ** 2)
        assert abs(report.lhs - half_rhs) <= 1e-12

    def test_false_test_violated(self):
        inst = make_instance(Recipe("normal", 4), 0)
        report = evaluate("FALSE_TEST", inst)
        assert report.verdict == "violated" and report.rhs == 0.0 and report.satisfied is False

    def test_hypothesis_violation_never_satisfied(self):
        inst = _bare_instance([[0, 1], [0, 0]], np.eye(2))
        report = evaluate("THM_MAIN", inst)
        assert report.verdict == "not-applicable" and report.satisfied is None
        assert report.hypothesis_violations

    def test_missing_required_matrix(self):
        inst = make_instance(Recipe("normal", 3), 5)
        with pytest.raises(InputError):
            evaluate("SJ_GENERAL", inst)

    def test_singular_x_raises(self):
        inst = make_instance(Recipe("hermitian", 3, x_kind="pd"), 5)
        inst = dataclasses.replace(inst, X=np.diag([1.0, 1.0, 1e-14]))
        with pytest.raises(HypothesisError):
            evaluate("THREE_TERM", inst)

    def test_hs_product_equality_detail(self):
        inst = make_instance(Recipe("unitary", 5), 9)
        report = evaluate("HS_PRODUCT", inst)
        assert report.verdict == "satisfied"
        assert report.detail["hs_gap"] <= 1e-9 * max(1.0, report.lhs)

    def test_numrad_eq_direction(self):
        inst = make_instance(Recipe("unitary", 4), 3)
        report = evaluate("NUMRAD_CLAIM", inst, tol=1e-5)
        assert report.margin <= 0.0
        assert report.verdict == "satisfied"

    def test_sj_detail(self):
        inst = make_instance(Recipe("normal", 3, x_kind="ginibre", with_y=True), 4)
        report = evaluate("SJ_SINGLE", inst)
        per_j = report.detail["per_j"]
        assert len(per_j) == 6  # X (+) Y has 2n singular values, generically all positive
        assert {p["j"] for p in per_j} == set(range(1, 7))
        worst = min(p["margin"] / max(1.0, abs(p["rhs"])) for p in per_j)
        assert report.margin / max(1.0, abs(report.rhs)) == pytest.approx(worst)

    @pytest.mark.parametrize("direction,margin", [("le", 1.0), ("ge", -1.0), ("eq", -1.0)])
    def test_margin_by_direction(self, direction, margin):
        entry = dataclasses.replace(get_entry("THM_MAIN"), direction=direction)
        assert entry.margin(2.0, 3.0) == margin

    def test_sj_single_reads_neither_t_nor_its_bands(self):
        """SJ_SINGLE's report is the same whatever T and the bands b, d are,
        so whether a recipe ties T to S cannot move its verdict."""
        recipe = get_entry("SJ_SINGLE").recipe_for("normal", 3)
        for seed in range(20):
            inst, other = make_instance(recipe, seed), make_instance(recipe, seed + 100)
            bd = {k: getattr(other.bounds, k) for k in ("b1", "b2", "d1", "d2")}
            moved = dataclasses.replace(inst, T=other.T, bounds=dataclasses.replace(inst.bounds, **bd))
            assert not np.array_equal(moved.T, inst.T) and moved.bounds.w != inst.bounds.w
            assert evaluate("SJ_SINGLE", moved).to_json() == evaluate("SJ_SINGLE", inst).to_json()

    @pytest.mark.parametrize("zero_y", [False, True])
    @pytest.mark.parametrize("entry_id", ["SJ_GENERAL", "SJ_MAX", "SJ_SINGLE"])
    def test_sj_rhs_is_factor_times_direct_sum_singular_values(self, entry_id, zero_y):
        inst = make_instance(get_entry(entry_id).recipe_for(None, 3), 11)
        if zero_y:  # half the singular values of X (+) Y fall below the cutoff
            inst = dataclasses.replace(inst, Y=np.zeros_like(inst.Y))
        b = inst.bounds
        factor = {
            "SJ_GENERAL": max(b.b2 - b.a1, b.a2 - b.b1) + max(b.d2 - b.c1, b.c2 - b.d1),
            "SJ_MAX": max(op_norm((m + m.conj().T) / 2.0) for m in (inst.S, inst.T)),
            "SJ_SINGLE": np.hypot(b.a2 - b.a1, b.c2 - b.c1),
        }[entry_id]
        base = np.linalg.svd(direct_sum(inst.X, inst.Y), compute_uv=False)
        per_j = evaluate(entry_id, inst).detail["per_j"]
        assert [p["j"] for p in per_j] == [j for j, bj in enumerate(base, start=1) if bj > 1e-12]
        assert len(per_j) == (3 if zero_y else 6)
        for p in per_j:
            assert p["rhs"] == pytest.approx(factor * base[p["j"] - 1], rel=1e-12, abs=1e-12)

    def test_three_term_stated_evaluable(self):
        inst = make_instance(Recipe("normal", 4, x_kind="pd"), 8)
        report = evaluate("THREE_TERM_STATED", inst)
        assert report.entry == "THREE_TERM_STATED"
        assert np.isfinite(report.margin)

    def test_report_json_and_csv_row(self, capsys):
        report = evaluate("THM_MAIN", equality_example())
        blob = report.to_json()
        assert blob["entry"] == "THM_MAIN" and blob["fingerprint"]["recipe"] == "equality-example"
        argv = ["check", "--entry", "THM_MAIN", "--recipe", "equality-example", "--dims", "2"]
        assert main([*argv, "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "THM_MAIN" and row[1] == "satisfied"
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == blob


PROVEN_DEFAULTS_HOLD = tuple(i for i, e in CATALOG.items() if e.status != "refuted")


class TestSweep:
    def test_zero_trials(self):
        rep = sweep("THM_MAIN", dims=(4,), trials=0)
        assert rep.trials == rep.passes == rep.failures == rep.not_applicable == 0
        assert rep.worst_margin is None and rep.worst_fingerprint is None

    def test_deterministic(self):
        cfg = dict(dims=(2, 4), trials=25, master_seed=17)
        a = sweep("THM_MAIN", **cfg)
        b = sweep("THM_MAIN", **cfg)
        assert a.to_json() == b.to_json()

    def test_false_test_counts(self):
        rep = sweep("FALSE_TEST", dims=(4,), trials=10, master_seed=0)
        assert rep.failures == 10 and rep.passes == 0 and rep.not_applicable == 0
        assert rep.trials == 10

    def test_counts_add_up(self):
        rep = sweep("SCHWARZ_REVERSE", dims=(3,), trials=40, master_seed=2)
        assert rep.passes + rep.failures + rep.not_applicable == rep.trials

    def test_worst_fingerprint_replays(self):
        rep = sweep("FALSE_TEST", dims=(4,), trials=10, master_seed=0)
        fp = rep.worst_fingerprint
        entry = get_entry("FALSE_TEST")
        inst = make_instance(entry.recipe_for(fp.recipe, fp.dim), fp.seed)
        replay = evaluate(entry, inst)
        assert replay.margin == rep.worst_margin

    @pytest.mark.parametrize("entry_id", PROVEN_DEFAULTS_HOLD)
    def test_proven_entries_hold_on_default_recipes(self, entry_id):
        rep = sweep(entry_id, dims=(2, 5), trials=60, master_seed=23)
        assert rep.failures == 0, f"{entry_id} violated: worst {rep.worst_margin}"

    def test_recipe_override(self):
        rep = sweep("HS_PRODUCT", dims=(4,), trials=20, master_seed=1, recipe="commuting-normal")
        assert rep.not_applicable == 0 and rep.failures == 0

    def test_bad_config(self):
        with pytest.raises(InputError, match="trials must be >= 0"):
            sweep("THM_MAIN", dims=(4,), trials=-1)
        with pytest.raises(InputError, match="at least one dim is required"):
            sweep("THM_MAIN", dims=(), trials=1)


class TestChainConsistency:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.sampled_from([2, 4, 8]))
    def test_proof_chain_links(self, seed, dim):
        inst = make_instance(Recipe("positive-normal", dim), seed)
        b = inst.bounds
        assert evaluate("STEP_CENTERED", inst).satisfied
        assert evaluate("STEP_HALF_BAND", inst).satisfied
        # the T-side link is the same bound on the mirrored instance
        mirrored = Instance(
            S=inst.T,
            T=inst.S,
            bounds=SpectralBounds(
                a1=b.b1, a2=b.b2, b1=b.a1, b2=b.a2, c1=b.d1, c2=b.d2, d1=b.c1, d2=b.c2
            ),
            seed=inst.seed,
            dim=inst.dim,
            recipe=inst.recipe,
        )
        assert evaluate("STEP_HALF_BAND", mirrored).satisfied
        assert evaluate("STEP_CARTESIAN", inst).satisfied
        assert evaluate("THM_MAIN", inst).satisfied
