import contextlib
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commlab.catalog
import commlab.search
from commlab.catalog import HYPOTHESES, evaluate, get_entry, validate_hypotheses
from commlab.core import HypothesisError, InputError, commutator, hermitian_eig, op_norm
from commlab.cli import main
from commlab.instances import (
    RECIPE_FAMILIES,
    Block,
    Instance,
    Moves,
    Recipe,
    derive_seed,
    draw_moves,
    instance_from_json,
    instance_to_json,
    make_instance,
)
from commlab.instances import CartesianFactor, _BandedBasis, _complex_gaussians, _unitary_steps
from commlab.search import _block_cap, maximize_ratio, perturb
from oracles import eager_maximize_ratio, sequential_perturb

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
        # the K that _unitary_steps draws from this generator; |K| < pi, so
        # the eigenphases of exp(K) are the eigenvalues of -iK
        g = _complex_gaussians([np.random.default_rng(1)], 4)[0]
        nk = op_norm((g - g.conj().T) / 2)
        scale = scale_over_norm * nk
        u = _unitary_steps([np.random.default_rng(1)], 4, scale)[0]
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


# one recipe per generator path: a tied pair, cartesian parts, a commuting
# pair, a unitary pair, the fixed example with its vector, a positive definite
# X, and Ginibre X and Y with a vector; then the other recipe families, so
# that every family is here; each with the number of factors in it that carry
# a basis, so each move takes that many unitary steps
BLOCK_RECIPES = (
    ("inner-normal", {}, 1),
    ("cartesian-psd", {}, 4),
    ("commuting-normal", {}, 1),
    ("unitary", {}, 2),
    ("equality-example", {}, 0),
    ("normal", {"x_kind": "pd"}, 3),
    ("hermitian", {"x_kind": "ginibre", "with_y": True, "with_vector": True}, 2),
    *((family, {}, 2) for family in ("normal", "positive-normal", "normal-psd-imag")),
    *((family, {}, 2) for family in ("hermitian", "hermitian-psd")),
)
# dims 2 to 5, then 8 (a fixed example is 2 x 2)
BLOCK_CASES = [
    (family, extras, dim)
    for dims in ((2, 3, 4, 5), (8,))
    for family, extras, _ in BLOCK_RECIPES
    for dim in dims
    if family != "equality-example" or dim == 2
]
FIELDS = ("S", "T", "X", "Y", "x")


def _assert_same_fields(a, b):
    """a and b (instances or block rows) hold the same bounds, n and arrays, bit for bit."""
    assert a.n == b.n and a.bounds == b.bounds
    for name in FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


def _assert_same_instance(a, b):
    _assert_same_fields(a, b)
    assert a.seed == b.seed and a.dim == b.dim and a.recipe == b.recipe
    assert a.internals.keys() == b.internals.keys()
    for name in a.internals:
        _assert_same_factor(a.internals[name], b.internals[name])


def _assert_same_factor(f, g):
    assert type(f) is type(g)
    for (name, x), y in zip(vars(f).items(), vars(g).values()):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y) and x.dtype == y.dtype, name
        else:
            _assert_same_factor(x, y)


def _assert_matches_oracle(row, arrays):
    assert {name for name in FIELDS if getattr(row, name) is not None} == set(arrays)
    for name, want in arrays.items():
        assert np.array_equal(getattr(row, name), want), name


class TestBlockMoves:
    """Each row of a block of moves holds, bit for bit, what one ``perturb``
    makes, of the block's start instance and of a move kept mid-block."""

    @pytest.mark.parametrize("family, extras, dim", BLOCK_CASES)
    def test_block_matches_one_move_at_a_time(self, family, extras, dim):
        inst = make_instance(Recipe(family, dim, **extras), dim)
        scale = 0.3
        seeds = [derive_seed(dim, i) for i in range(6)]
        moves = draw_moves(inst, scale, seeds)
        block = moves.apply(inst, 0)
        for k, seed in enumerate(seeds):
            one = perturb(inst, scale, seed)
            _assert_same_fields(block.row(k), one)
            _assert_matches_oracle(block.row(k), sequential_perturb(inst, scale, seed))
            _assert_same_instance(block.instance(k), one)
        kept = block.instance(2)
        rest = moves.apply(kept, 3)  # the rest of the block, applied to the kept move
        for k in range(3, len(seeds)):
            one = perturb(kept, scale, seeds[k])
            _assert_same_fields(rest.row(k), one)
            _assert_matches_oracle(rest.row(k), sequential_perturb(kept, scale, seeds[k]))
            _assert_same_instance(rest.instance(k), one)
        again = perturb(perturb(inst, scale, seeds[2]), scale, 5)
        _assert_same_instance(perturb(kept, scale, 5), again)

    @pytest.mark.parametrize("family, extras, bases", BLOCK_RECIPES)
    def test_rows_are_read_only(self, family, extras, bases):
        inst = make_instance(Recipe(family, 2, **extras), 1)
        row = draw_moves(inst, 0.2, [1, 2]).apply(inst, 0).row(1)
        assert not any(getattr(row, name).flags.writeable for name in FIELDS if getattr(row, name) is not None)

    @pytest.mark.parametrize("family, extras, bases", BLOCK_RECIPES)
    def test_a_block_takes_one_eigh_per_basis_and_a_move_none(self, family, extras, bases, count_linalg):
        inst = make_instance(Recipe(family, 2 if family == "equality-example" else 3, **extras), 1)
        counts = count_linalg("eigh", "svd")
        for length in (1, 7, 50):
            counts.update(eigh=0, svd=0)
            moves = draw_moves(inst, 0.2, [derive_seed(length, i) for i in range(length)])
            assert counts == {"eigh": bases, "svd": 0}, length
            block = moves.apply(inst, 0)
            for k in range(length):
                block.row(k)
            # a vector's move brings n = |ST - TS| with it: one SVD, in op_norm
            assert counts == {"eigh": bases, "svd": length * (inst.x is not None)}, length


# every generator path to a banded-basis factor: normal and Hermitian pairs,
# a positive definite X, both parts of each cartesian factor, a commuting pair
BANDED_RECIPES = (
    ("normal", {}),
    ("hermitian", {}),
    ("hermitian", {"x_kind": "pd"}),
    ("cartesian-psd", {}),
    ("commuting-normal", {}),
)


def _banded_factors(factors):
    for f in factors:
        if isinstance(f, CartesianFactor):
            yield from (f.re, f.im)
        elif isinstance(f, _BandedBasis):
            yield f


class TestBandedMoves:
    """A move keeps each row of a banded factor's parts in its band, with
    both endpoints still attained at the pins, whether it is applied alone or
    stacked with the rest of its block; the top scale is wider than every
    band, so the clamp engages."""

    @pytest.mark.parametrize("scale", [0.05, 0.5, 1.5])
    @pytest.mark.parametrize("family, extras", BANDED_RECIPES)
    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, dim=st.integers(2, 6))
    def test_moves_stay_in_band_and_pinned(self, family, extras, scale, seed, dim):
        inst = make_instance(Recipe(family, dim, **extras), seed)
        moves = draw_moves(inst, scale, [derive_seed(seed, i) for i in range(4)])
        stacked = [f.apply(moves.noise[name], slice(0, None)) for name, f in inst.internals.items()]
        for f in _banded_factors(stacked):
            lo, hi = f.bands[:, :1], f.bands[:, 1:]
            assert np.all((lo <= f.parts) & (f.parts <= hi))
            assert np.array_equal(f.parts.reshape(4, -1)[:, f.pins], np.tile(f.bands.ravel(), (4, 1)))
        block = moves.apply(inst, 0)
        for k in range(4):
            moved = block.instance(k)
            factors = list(_banded_factors(moved.internals.values()))
            assert len(factors) == len(list(_banded_factors(inst.internals.values())))
            for f in factors:
                lo, hi = f.bands[:, :1], f.bands[:, 1:]
                assert np.all((lo <= f.parts) & (f.parts <= hi))
                # each row's two pins lie in that row and hold its endpoints exactly
                assert np.array_equal(f.pins // dim, np.arange(len(f.parts)).repeat(2))
                assert np.array_equal(f.parts.ravel()[f.pins], f.bands.ravel())
                assert not (f.bands.flags.writeable or f.pins.flags.writeable or f.parts.flags.writeable)
            if family == "commuting-normal":
                bound = 1e-12 * max(1.0, op_norm(moved.S) * op_norm(moved.T))
                assert op_norm(commutator(moved.S, moved.T)) <= bound


class TestMaximizeRatio:
    def test_false_test_signals_violation_immediately(self):
        state, _ = maximize_ratio("FALSE_TEST", dim=4, iterations=1, restarts=1, master_seed=0)
        assert state["objective_kind"] == "margin"
        assert state["best_objective"] > 0

    def test_thm_main_never_beats_the_bound(self):
        state, _ = maximize_ratio("THM_MAIN", dim=2, iterations=500, restarts=4, master_seed=1)
        assert state["objective_kind"] == "ratio"
        assert state["best_objective"] <= 1.0 + 1e-9

    def test_single_draw(self):
        state, _ = maximize_ratio("THM_MAIN", dim=3, iterations=1, restarts=1, master_seed=5)
        # one iteration, one restart: the result is the restart's start or
        # that start moved once, both from the same recipe
        start = make_instance(Recipe("positive-normal", 3), derive_seed(5, 0))
        candidates = (start, perturb(start, 0.2, derive_seed(5, 0, 1)))
        best = instance_from_json(state["best_instance"])
        assert any(np.array_equal(best.S, c.S) and np.array_equal(best.T, c.T) for c in candidates)
        assert best.recipe == "positive-normal"
        assert state["best_report"]["entry"] == "THM_MAIN"

    def test_deterministic_and_sound(self):
        a, _ = maximize_ratio("THM_MAIN", dim=2, iterations=120, restarts=3, master_seed=9)
        b, _ = maximize_ratio("THM_MAIN", dim=2, iterations=120, restarts=3, master_seed=9)
        assert _artifact(a) == _artifact(b)
        re_report = evaluate("THM_MAIN", instance_from_json(a["best_instance"]))
        assert abs(re_report.lhs / re_report.rhs - a["best_objective"]) <= 1e-12

    def test_trace_monotone(self):
        state, _ = maximize_ratio("THM_MAIN", dim=2, iterations=200, restarts=2, master_seed=4)
        values = [v for _, v in state["trace"]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_best_instance_satisfies_hypotheses(self):
        state, _ = maximize_ratio("THM_MAIN", dim=3, iterations=60, restarts=2, master_seed=8)
        assert validate_hypotheses("THM_MAIN", instance_from_json(state["best_instance"])) == []

    def test_ratio_close_to_sharp_in_two_dims(self):
        state, _ = maximize_ratio("THM_MAIN", dim=2, iterations=400, restarts=6, master_seed=2)
        assert state["best_objective"] > 0.9  # the bound is attainable up to noise

    def test_schwarz_direction(self):
        state, _ = maximize_ratio("SCHWARZ_REVERSE", dim=2, iterations=50, restarts=2, master_seed=3)
        assert state["objective_kind"] in ("ratio", "margin")

    @pytest.mark.parametrize("entry", ["SQRT_PRODUCT", "STEP_CARTESIAN"])
    def test_rounding_noise_is_no_gain(self, entry):
        # both sides agree up to rounding on these entries' default recipes
        for seed in (0, 1, 2):
            _, counts = maximize_ratio(entry, dim=4, iterations=100, restarts=2, master_seed=seed)
            assert counts["accepted"] == 0, seed

    def test_input_guards(self):
        with pytest.raises(InputError):
            maximize_ratio("NOPE", dim=2, iterations=1, restarts=1)
        with pytest.raises(InputError):
            maximize_ratio("THM_MAIN", dim=2, iterations=0, restarts=1)
        with pytest.raises(InputError):
            maximize_ratio("THM_MAIN", dim=2, iterations=1, restarts=0)


# the entries that the benchmark's search-suspect workload searches
BENCH_SEARCH_ENTRIES = ("SJ_GENERAL", "SJ_MAX", "SQRT_PRODUCT", "NUMRAD_CLAIM", "COMMUTATOR_HS")


def _artifact(artifact: dict) -> str:
    return json.dumps(artifact, sort_keys=True)


class TestHypothesesOnImprovingMovesOnly:
    """The search checks hypotheses only on the candidates that improve the
    objective; it must find what a full evaluation of every candidate finds."""

    @pytest.mark.parametrize("entry", (*BENCH_SEARCH_ENTRIES, "THM_MAIN", "SCHWARZ_REVERSE"))
    @pytest.mark.parametrize("seed, dim", [(0, 3), (1, 4), (7, 2)])
    def test_matches_eager_search(self, entry, seed, dim):
        lazy, lazy_counts = maximize_ratio(entry, dim=dim, iterations=60, restarts=2, master_seed=seed)
        eager, eager_counts = eager_maximize_ratio(entry, dim, 60, 2, seed)
        assert _artifact(lazy) == _artifact(eager)
        assert lazy_counts["candidates"] == eager_counts["candidates"] == 120
        assert lazy_counts["accepted"] == eager_counts["accepted"]

    @pytest.mark.parametrize("recipe", RECIPE_FAMILIES)
    def test_matches_eager_search_over_recipes(self, recipe):
        # SCHWARZ_REVERSE moves the fixed example's vector; n = 0 on a tied pair
        entry = "SCHWARZ_REVERSE" if recipe == "equality-example" else "SJ_GENERAL"
        dim = 2 if recipe == "equality-example" else 3
        lazy, lazy_counts = maximize_ratio(
            entry, dim=dim, iterations=60, restarts=2, master_seed=2, recipe=recipe
        )
        eager, eager_counts = eager_maximize_ratio(entry, dim, 60, 2, 2, recipe=recipe)
        assert _artifact(lazy) == _artifact(eager)
        assert lazy_counts["accepted"] == eager_counts["accepted"]

    def test_block_ends_match_eager_search(self, monkeypatch):
        eager = _artifact(eager_maximize_ratio("THM_MAIN", 3, 160, 1, 4)[0])
        draws, blocks, built = [], [], []
        draw, apply, instance = commlab.search.draw_moves, Moves.apply, Block.instance

        def recording_draw(inst, step, seeds):
            draws.append((step, len(seeds)))
            return draw(inst, step, seeds)

        def recording_apply(moves, inst, start):
            blocks.append((moves, inst, start))
            return apply(moves, inst, start)

        def recording_instance(block, k):
            built.append((block.moves, k, instance(block, k)))
            return built[-1][2]

        monkeypatch.setattr(commlab.search, "draw_moves", recording_draw)
        monkeypatch.setattr(Moves, "apply", recording_apply)
        monkeypatch.setattr(Block, "instance", recording_instance)
        lazy, counts = maximize_ratio("THM_MAIN", dim=3, iterations=160, restarts=1, master_seed=4)
        assert _artifact(lazy) == eager
        # each draw's first block starts at row 0 on the instance it was drawn from
        firsts = [(moves, inst) for moves, inst, start in blocks if start == 0]
        assert len(firsts) == len(draws) and len({id(moves) for moves, _ in firsts}) == len(draws)
        # each keep applies the rest of its block to the instance built from the kept row
        rest = [(moves, inst, start) for moves, inst, start in blocks if start > 0]
        assert len(rest) == counts["accepted"] > 0
        kept = {(id(moves), k): inst for moves, k, inst in built}
        assert all(kept.get((id(moves), start - 1)) is inst for moves, inst, start in rest)
        # the 50th rejection in a row ends a block, and the next draw takes half the step
        assert any(b[0] == a[0] / 2 for a, b in zip(draws, draws[1:]))
        assert sum(count for _, count in draws) == 160

    def test_rejected_improving_moves_stay_put(self, monkeypatch):
        # a predicate that rejects about half of all instances, by a digest of S
        def odd_digest(inst):
            return ["S digest odd"] if hashlib.sha256(inst.S.tobytes()).digest()[0] % 2 else []

        monkeypatch.setitem(HYPOTHESES, "normal:S", odd_digest)
        for seed in (0, 1):
            lazy, lazy_counts = maximize_ratio("NUMRAD_CLAIM", 3, iterations=80, restarts=2, master_seed=seed)
            eager, eager_counts = eager_maximize_ratio("NUMRAD_CLAIM", 3, 80, 2, seed)
            assert _artifact(lazy) == _artifact(eager)
            assert lazy_counts["accepted"] == eager_counts["accepted"]
            # some improving moves were turned down
            assert lazy_counts["validated"] > lazy_counts["accepted"] > 0

    def test_a_unitary_step_can_break_a_hypothesis(self, monkeypatch):
        # a unitary move multiplies U by exp(K), which moves U's eigenvalues and with
        # them the spectra of its cartesian parts C and D: 8 of the 29 improving
        # candidates fail psd-part:C or psd-part:D and are turned down
        outcomes = []

        def recording(entry, inst):
            outcomes.append(validate_hypotheses(entry, inst))
            return outcomes[-1]

        monkeypatch.setattr(commlab.search, "validate_hypotheses", recording)
        state, counts = maximize_ratio(
            "COR_NORMBOUND", 3, iterations=60, restarts=1, master_seed=4, recipe="unitary"
        )
        assert (counts["validated"], counts["accepted"]) == (29, 21)
        failed = [v for v in outcomes if v]
        assert len(failed) == 8 and {m for v in failed for m in v} == {"C not PSD", "D not PSD"}
        assert state["best_report"]["verdict"] == "satisfied"

    def test_best_restart_is_an_applicable_one(self, capsys):
        # restart 1's start fails C and D PSD and keeps no move, at objective 1.1046;
        # restart 0 climbs inside the hypotheses from 0.4207 to 0.8808 and is the best
        argv = "search --entry COR_NORMBOUND --recipe unitary --dims 3 --iterations 60 --restarts 2 --seed 4"
        assert main(argv.split()) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["best_report"]["verdict"] == "satisfied"
        assert artifact["best_objective"] == 0.8808034739679385
        lazy, _ = maximize_ratio("COR_NORMBOUND", 3, 60, restarts=2, master_seed=4, recipe="unitary")
        eager, _ = eager_maximize_ratio("COR_NORMBOUND", 3, 60, 2, 4, recipe="unitary")
        assert _artifact(lazy) == _artifact(eager) == json.dumps(artifact, sort_keys=True)

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
        _, counts = maximize_ratio(entry, dim=4, iterations=100, restarts=2, master_seed=3)
        assert len(calls) == 2 + counts["validated"] + 1  # the final evaluate of the best instance
        assert counts["validated"] == counts["accepted"]  # no candidate failed its hypotheses
        assert counts["candidates"] == 200

    @pytest.mark.parametrize("entry", ["SJ_GENERAL", "NUMRAD_CLAIM"])
    def test_builds_an_instance_for_each_start_and_each_improving_candidate_only(self, entry, monkeypatch):
        # a candidate scored and turned down is read from its block's arrays and builds none
        built = []
        post_init = Instance.__post_init__

        def counting(inst):
            built.append(1)
            post_init(inst)

        monkeypatch.setattr(Instance, "__post_init__", counting)
        _, counts = maximize_ratio(entry, dim=4, iterations=100, restarts=2, master_seed=3)
        assert len(built) == 2 + counts["validated"]
        assert 0 < counts["validated"] < counts["candidates"] - counts["screened"]


class TestObjective:
    @pytest.mark.parametrize("entry_id", ["FALSE_TEST", "SCHWARZ_REVERSE", "NUMRAD_CLAIM"])
    def test_margin_of_a_tie_is_an_unsigned_zero(self, entry_id):
        """One entry per direction ("le", "ge", "eq"), each on its margin kind."""
        kind, obj = commlab.search._objective(get_entry(entry_id), 0.0, 0.0)
        assert kind == "margin" and obj == 0.0 and not np.signbit(obj)


class TestBracketScreen:
    """A candidate the bracket screens out is one the keep rule would reject."""

    def test_only_numrad_claim_has_a_bracket(self):
        assert [e.id for e in commlab.catalog.CATALOG.values() if e.bracket] == ["NUMRAD_CLAIM"]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_screened_candidates_would_be_rejected(self, dim, seed, monkeypatch):
        screen, outcomes = commlab.search._cannot_gain, []

        def checked(entry, cand, kind, floor):
            lo, hi, rhs = entry.bracket(cand)
            lhs, formula_rhs, _ = entry.formula(cand)
            assert lo <= lhs <= hi and rhs == formula_rhs
            cand_kind, cand_obj = commlab.search._objective(entry, lhs, rhs)
            screened = screen(entry, cand, kind, floor)
            if screened:
                assert cand_kind != kind or cand_obj <= floor
            outcomes.append(screened)
            return screened

        monkeypatch.setattr(commlab.search, "_cannot_gain", checked)
        _, counts = maximize_ratio("NUMRAD_CLAIM", dim=dim, iterations=100, restarts=2, master_seed=seed)
        assert len(outcomes) == counts["candidates"] == 200
        assert 0 < counts["screened"] == sum(outcomes)


class TestBlockMemory:
    @pytest.mark.parametrize("family, extras", [
        ("cartesian-psd", {"x_kind": "pd", "with_y": True}),
        ("cartesian-psd", {"x_kind": "ginibre", "with_y": True, "with_vector": True}),
        ("normal", {"x_kind": "ginibre", "with_y": True, "with_vector": True}),
        ("commuting-normal", {"x_kind": "ginibre", "with_y": True}),
        ("unitary", {"x_kind": "ginibre", "with_y": True}),
    ])
    def test_a_move_stacks_at_most_move_arrays(self, family, extras):
        # the count _block_cap divides the budget by, for the recipes that stack the most
        dim, rows = 32, 32
        inst = make_instance(Recipe(family, dim, **extras), 1)
        tracemalloc.start()
        try:
            draw_moves(inst, 0.2, [derive_seed(1, i) for i in range(rows)]).apply(inst, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= commlab.search._MOVE_ARRAYS * rows * 16 * dim * dim

    def test_block_cap_at_dim_1024_is_one_move(self):
        tracemalloc.start()
        try:
            cap = _block_cap(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cap == 1
        assert peak < 2**16  # one 1024 x 1024 complex matrix takes 16 MiB

    def test_search_at_dim_128_stays_within_its_block_budget(self):
        # blocks of one move at dim 128 peak at 15.7 MiB; 12 moves stacked
        # in one block would take 31 MiB
        argv = ["search", "--entry", "THM_MAIN", "--dims", "128", "--iterations", "12", "--restarts", "1"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert _block_cap(128) == 1
        assert peak < 20 * 2**20
