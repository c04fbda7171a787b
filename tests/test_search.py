import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commlab.catalog
import commlab.search
from commlab.catalog import HYPOTHESES, evaluate, get_entry, validate_hypotheses
from commlab.core import HypothesisError, InputError, hermitian_eig, op_norm
from commlab.instances import Recipe, instance_from_json, instance_to_json, make_instance
from commlab.instances import _complex_gaussian, _unitary_step
from commlab.search import maximize_ratio, perturb, search_state_to_json
from oracles import eager_maximize_ratio

seeds = st.integers(0, 2**31 - 1)


class TestPerturb:
    def test_deterministic(self):
        inst = make_instance(Recipe("positive-normal", 4), 3)
        a = perturb(inst, 0.1, 7)
        b = perturb(inst, 0.1, 7)
        assert np.array_equal(a.S, b.S) and np.array_equal(a.T, b.T)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.floats(1e-4, 0.5))
    def test_hypotheses_preserved(self, seed, scale):
        inst = make_instance(Recipe("positive-normal", 4), seed)
        moved = perturb(inst, scale, seed + 1)
        assert validate_hypotheses("THM_MAIN", moved) == []
        assert moved.bounds == inst.bounds

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_small_scale_moves_spectra_little(self, seed):
        inst = make_instance(Recipe("hermitian", 4), seed)
        scale = 1e-3
        moved = perturb(inst, scale, seed + 1)
        before = hermitian_eig((inst.S + inst.S.conj().T) / 2)
        after = hermitian_eig((moved.S + moved.S.conj().T) / 2)
        assert np.max(np.abs(before - after)) <= scale + 1e-9

    def test_vector_stays_unit(self):
        inst = make_instance(Recipe("hermitian", 3, with_vector=True), 5)
        moved = perturb(inst, 0.2, 9)
        assert abs(np.linalg.norm(moved.x) - 1.0) <= 1e-12
        assert moved.n is not None

    def test_requires_internals(self):
        inst = make_instance(Recipe("normal", 3), 1)
        stripped = instance_from_json(instance_to_json(inst))
        with pytest.raises(HypothesisError):
            perturb(stripped, 0.1, 0)

    def test_scale_guard(self):
        inst = make_instance(Recipe("normal", 3), 1)
        with pytest.raises(HypothesisError):
            perturb(inst, 0.0, 0)

    def test_tied_pair_stays_tied(self):
        inst = make_instance(Recipe("inner-normal", 3), 2)
        moved = perturb(inst, 0.3, 4)
        assert np.array_equal(moved.S, moved.T)

    @pytest.mark.parametrize("scale_over_norm", [0.1, 0.9, 1.5])
    def test_unitary_step_is_exp_of_a_bounded_k(self, scale_over_norm):
        # the K that _unitary_step draws from this generator; |K| < pi, so
        # the eigenphases of exp(K) are the eigenvalues of -iK
        g = _complex_gaussian(np.random.default_rng(1), 4)
        nk = op_norm((g - g.conj().T) / 2)
        scale = scale_over_norm * nk
        u = _unitary_step(4, scale, np.random.default_rng(1))
        assert op_norm(u.conj().T @ u - np.eye(4)) <= 1e-12
        phases = np.abs(np.angle(np.linalg.eigvals(u)))
        assert phases.max() <= scale + 1e-12
        # K is scaled down to |K| = scale only when it is larger
        assert phases.max() == pytest.approx(min(scale, nk), abs=1e-12)

    def test_move_takes_no_svd(self, linalg_calls):
        inst = make_instance(get_entry("SJ_GENERAL").recipe_for("normal", 4), 3)
        linalg_calls.update(svd=0, eigvalsh=0)
        perturb(inst, 0.2, 5)
        assert linalg_calls["svd"] == 0


class TestMaximizeRatio:
    def test_false_test_signals_violation_immediately(self):
        state = maximize_ratio("FALSE_TEST", dim=4, iterations=1, restarts=1, master_seed=0)
        assert state.objective_kind == "margin"
        assert state.best_objective > 0

    def test_thm_main_never_beats_the_bound(self):
        state = maximize_ratio("THM_MAIN", dim=2, iterations=500, restarts=4, master_seed=1)
        assert state.objective_kind == "ratio"
        assert state.best_objective <= 1.0 + 1e-9

    def test_single_draw(self):
        state = maximize_ratio("THM_MAIN", dim=3, iterations=1, restarts=1, master_seed=5)
        inst = make_instance(Recipe("positive-normal", 3), state.best_instance.seed)
        # one iteration, one restart: the result is one evaluated draw or its
        # single perturbation, both from the same recipe
        assert state.best_instance.recipe == "positive-normal"
        assert state.best_report.entry == "THM_MAIN"

    def test_deterministic_and_sound(self):
        a = maximize_ratio("THM_MAIN", dim=2, iterations=120, restarts=3, master_seed=9)
        b = maximize_ratio("THM_MAIN", dim=2, iterations=120, restarts=3, master_seed=9)
        ja = json.dumps(search_state_to_json(a), sort_keys=True)
        jb = json.dumps(search_state_to_json(b), sort_keys=True)
        assert ja == jb
        re_report = evaluate("THM_MAIN", a.best_instance)
        assert abs(re_report.lhs / re_report.rhs - a.best_objective) <= 1e-12

    def test_trace_monotone(self):
        state = maximize_ratio("THM_MAIN", dim=2, iterations=200, restarts=2, master_seed=4)
        values = [v for _, v in state.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_best_instance_satisfies_hypotheses(self):
        state = maximize_ratio("THM_MAIN", dim=3, iterations=60, restarts=2, master_seed=8)
        assert validate_hypotheses("THM_MAIN", state.best_instance) == []

    def test_ratio_close_to_sharp_in_two_dims(self):
        state = maximize_ratio("THM_MAIN", dim=2, iterations=400, restarts=6, master_seed=2)
        assert state.best_objective > 0.9  # the bound is attainable up to noise

    def test_schwarz_direction(self):
        state = maximize_ratio("SCHWARZ_REVERSE", dim=2, iterations=50, restarts=2, master_seed=3)
        assert state.objective_kind in ("ratio", "margin")

    @pytest.mark.parametrize("entry", ["SQRT_PRODUCT", "STEP_CARTESIAN"])
    def test_rounding_noise_is_no_gain(self, entry):
        # both sides agree up to rounding on these entries' default recipes
        for seed in (0, 1, 2):
            state = maximize_ratio(entry, dim=4, iterations=100, restarts=2, master_seed=seed)
            assert state.accepted == 0, seed

    def test_input_guards(self):
        with pytest.raises(InputError):
            maximize_ratio("NOPE", dim=2, iterations=1, restarts=1)
        with pytest.raises(InputError):
            maximize_ratio("THM_MAIN", dim=2, iterations=0, restarts=1)
        with pytest.raises(InputError):
            maximize_ratio("THM_MAIN", dim=2, iterations=1, restarts=0)


# the entries that the benchmark's search-suspect workload searches
BENCH_SEARCH_ENTRIES = ("SJ_GENERAL", "SJ_MAX", "SQRT_PRODUCT", "NUMRAD_CLAIM", "COMMUTATOR_HS")


def _artifact(state) -> str:
    return json.dumps(search_state_to_json(state), sort_keys=True)


class TestHypothesesOnImprovingMovesOnly:
    """The search checks hypotheses only on the candidates that improve the
    objective; it must find what a full evaluation of every candidate finds."""

    @pytest.mark.parametrize("entry", (*BENCH_SEARCH_ENTRIES, "THM_MAIN", "SCHWARZ_REVERSE"))
    @pytest.mark.parametrize("seed, dim", [(0, 3), (1, 4), (7, 2)])
    def test_matches_eager_search(self, entry, seed, dim):
        lazy = maximize_ratio(entry, dim=dim, iterations=60, restarts=2, master_seed=seed)
        eager = eager_maximize_ratio(entry, dim, 60, 2, seed)
        assert _artifact(lazy) == _artifact(eager)
        assert lazy.candidates == eager.candidates == 120
        assert lazy.accepted == eager.accepted

    def test_rejected_improving_moves_stay_put(self, monkeypatch):
        # a predicate that rejects about half of all instances, by a digest of S
        def odd_digest(inst):
            return ["S digest odd"] if hashlib.sha256(inst.S.tobytes()).digest()[0] % 2 else []

        monkeypatch.setitem(HYPOTHESES, "normal:S", odd_digest)
        for seed in (0, 1):
            lazy = maximize_ratio("NUMRAD_CLAIM", dim=3, iterations=80, restarts=2, master_seed=seed)
            eager = eager_maximize_ratio("NUMRAD_CLAIM", 3, 80, 2, seed)
            assert _artifact(lazy) == _artifact(eager)
            assert lazy.accepted == eager.accepted
            assert lazy.validated > lazy.accepted > 0  # some improving moves were turned down

    @pytest.mark.parametrize("entry", BENCH_SEARCH_ENTRIES)
    def test_validates_each_start_and_each_improving_candidate_once(self, entry, monkeypatch):
        calls = []
        original = commlab.catalog.validate_hypotheses

        def counting(*args):
            calls.append(1)
            return original(*args)

        # evaluate validates through catalog's name, the search loop through its own
        monkeypatch.setattr(commlab.catalog, "validate_hypotheses", counting)
        monkeypatch.setattr(commlab.search, "validate_hypotheses", counting)
        state = maximize_ratio(entry, dim=4, iterations=100, restarts=2, master_seed=3)
        assert len(calls) == 2 + state.validated + 1  # the final evaluate of the best instance
        assert state.validated == state.accepted  # no candidate failed its hypotheses
        assert state.candidates == 200
