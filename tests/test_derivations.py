import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.core import HypothesisError, InputError, ShapeError, classify, hs_norm, op_norm
from commlab.derivations import (
    block_embedding,
    check_fp_pair,
    check_reduction,
    kernel_basis,
    lift_derivation,
    min_distance_hs,
    orthogonality_probe_opnorm,
    unvec,
    vec,
)
from commlab.instances import Recipe, make_instance, random_unitary
from oracles import brute_min_distance_hs, random_matrix, random_normal_matrix

seeds = st.integers(0, 2**31 - 1)
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestLift:
    def test_scalar(self):
        op = lift_derivation([[3.0]], [[1.0]])
        np.testing.assert_allclose(op.lifted, [[2.0]])

    def test_identity_pair(self):
        op = lift_derivation(np.eye(2), np.eye(2))
        np.testing.assert_allclose(op.lifted, np.zeros((4, 4)))

    def test_diagonal_multiset(self):
        op = lift_derivation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        got = sorted(np.round(np.diag(op.lifted).real, 12))
        assert got == sorted([1 - 3, 1 - 4, 2 - 3, 2 - 4])

    def test_over_budget_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "kron", lambda *a: pytest.fail("lift allocated"))
        with pytest.raises(InputError, match="n <= 64"):
            lift_derivation(np.eye(65), np.eye(65))

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            lift_derivation(np.eye(2), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 5))
    def test_vec_consistency(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        op = lift_derivation(s, t)
        x = random_matrix(dim, seed + 2)
        direct = vec(s @ x - x @ t)
        assert np.linalg.norm(op.lifted @ vec(x) - direct) <= 1e-10 * max(
            1.0, op_norm(s) + op_norm(t)
        ) * max(1.0, hs_norm(x))

    def test_vec_unvec_round_trip(self):
        m = random_matrix(3, 0)
        np.testing.assert_array_equal(unvec(vec(m), 3), m)


class TestKernelBasis:
    def test_identity_pair_full(self):
        basis = kernel_basis(lift_derivation(np.eye(2), np.eye(2)))
        assert len(basis) == 4

    def test_disjoint_spectra_empty(self):
        basis = kernel_basis(lift_derivation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        assert basis == []

    def test_shared_diagonal(self):
        basis = kernel_basis(lift_derivation(np.diag([1.0, 2.0]), np.diag([1.0, 2.0])))
        assert len(basis) == 2
        for element in basis:
            off = element.C - np.diag(np.diag(element.C))
            assert hs_norm(off) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_hs_orthonormal(self, seed, dim):
        s = random_normal_matrix(dim, seed)
        basis = kernel_basis(lift_derivation(s, s))
        assert len(basis) >= dim  # the commutant contains every polynomial in s
        gram = np.array([[np.vdot(vec(a.C), vec(b.C)) for b in basis] for a in basis])
        assert np.linalg.norm(gram - np.eye(len(basis))) <= 1e-10

    def test_residuals_small(self):
        s = random_normal_matrix(4, 7)
        op = lift_derivation(s, s)
        smax = float(np.linalg.svd(op.lifted, compute_uv=False)[0])
        for element in kernel_basis(op):
            assert element.residual <= 1e-8 * max(smax, 1e-300)


class TestFpPair:
    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 6))
    def test_normal_pairs_hold(self, seed, dim):
        s = random_normal_matrix(dim, seed)
        t = random_normal_matrix(dim, seed + 1)
        assert check_fp_pair(s, t).holds

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_inner_normal_holds_nonvacuously(self, seed, dim):
        s = random_normal_matrix(dim, seed)
        rep = check_fp_pair(s, s)
        assert rep.holds and rep.kernel_dimension >= dim

    def test_shift_against_zero_fails(self):
        rep = check_fp_pair(NILPOTENT, np.zeros((2, 2), dtype=complex))
        assert not rep.holds
        assert rep.kernel_dimension == 2
        assert rep.worst_residual == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_spectra_vacuous(self):
        rep = check_fp_pair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert rep.holds and rep.kernel_dimension == 0 and rep.worst_residual == 0.0

    def test_report_carries_the_kernel_basis(self):
        s = np.diag([1.0, 2.0, 1.0])
        rep = check_fp_pair(s, s)
        basis = kernel_basis(lift_derivation(s, s))
        assert len(rep.kernel) == rep.kernel_dimension == len(basis) == 5
        for got, want in zip(rep.kernel, basis):
            np.testing.assert_array_equal(got.C, want.C)
            assert got.residual == want.residual


class TestReduction:
    def test_invariant_diagonal(self):
        rep = check_reduction(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
        assert rep.range_reduces and rep.restriction_normal

    def test_nilpotent_fails_one_side(self):
        rep = check_reduction(NILPOTENT, np.diag([1.0, 0.0]))
        assert not rep.range_reduces
        assert rep.residuals["invariance"] == pytest.approx(0.0, abs=1e-14)
        assert rep.residuals["co_invariance"] == pytest.approx(1.0, abs=1e-14)

    def test_zero_c_vacuous(self):
        rep = check_reduction(NILPOTENT, np.zeros((2, 2)))
        assert rep.range_reduces and rep.restriction_normal


class TestMinDistance:
    def test_zero_c(self):
        s = random_normal_matrix(3, 1)
        assert min_distance_hs(s, s, np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_kernel_element(self):
        d = np.diag([1.0, 2.0])
        assert min_distance_hs(d, d, np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-10)

    def test_surjective_case(self):
        value = min_distance_hs(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), random_matrix(2, 3))
        assert value == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_never_exceeds_hs_norm(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        c = random_matrix(dim, seed + 2)
        assert min_distance_hs(s, t, c) <= hs_norm(c) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_matches_lstsq_oracle(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        c = random_matrix(dim, seed + 2)
        assert min_distance_hs(s, t, c) == pytest.approx(
            brute_min_distance_hs(s, t, c), abs=1e-8
        )

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(2, 4))
    def test_kernel_element_orthogonality(self, seed, dim):
        s = random_normal_matrix(dim, seed)
        basis = kernel_basis(lift_derivation(s, s))
        c = basis[0].C
        assert min_distance_hs(s, s, c) == pytest.approx(
            hs_norm(c), rel=1e-8, abs=1e-8
        )


class TestProbe:
    def test_zero_start_bounds_result(self):
        s = random_normal_matrix(3, 2)
        c = kernel_basis(lift_derivation(s, s))[0].C
        result = orthogonality_probe_opnorm(s, s, c, trials=4, seed=0)
        assert result.min_found <= op_norm(c) + 1e-12

    def test_trials_zero_descends_from_origin(self):
        s = random_normal_matrix(2, 5)
        c = kernel_basis(lift_derivation(s, s))[0].C
        result = orthogonality_probe_opnorm(s, s, c, trials=0, seed=0)
        assert result.min_found <= op_norm(c) + 1e-12
        assert result.verdict == "consistent"

    def test_rejects_non_kernel_c(self):
        s = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(HypothesisError):
            orthogonality_probe_opnorm(s, s, np.array([[0, 1], [0, 0]], dtype=complex))

    @settings(max_examples=6, deadline=None)
    @given(seeds)
    def test_commutant_elements_consistent(self, seed):
        inst = make_instance(Recipe("inner-normal", 3), seed)
        basis = kernel_basis(lift_derivation(inst.S, inst.T))
        result = orthogonality_probe_opnorm(inst.S, inst.T, basis[0].C, trials=8, seed=seed)
        assert result.verdict == "consistent"
        assert result.min_found >= op_norm(basis[0].C) - 1e-6


class TestBlockEmbedding:
    def test_zero_case(self):
        z = np.zeros((2, 2), dtype=complex)
        s = random_normal_matrix(2, 1)
        be = block_embedding(s, s, z, z)
        np.testing.assert_allclose(be.N @ be.Y - be.Y @ be.N + be.M, np.zeros((4, 4)))

    def test_scalar_arithmetic(self):
        be = block_embedding([[1.0]], [[2.0]], [[5.0]], [[3.0]])
        combined = be.N @ be.Y - be.Y @ be.N + be.M
        assert combined[0, 1] == pytest.approx(-3.0 + 5.0)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 4))
    def test_corner_norm_preserved(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        c = random_matrix(dim, seed + 2)
        x = random_matrix(dim, seed + 3)
        be = block_embedding(s, t, c, x)
        combined = be.N @ be.Y - be.Y @ be.N + be.M
        corner = s @ x - x @ t + c
        assert op_norm(combined) == pytest.approx(op_norm(corner), rel=1e-12, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 4))
    def test_n_normal_iff_both_normal(self, seed, dim):
        z = np.zeros((dim, dim), dtype=complex)
        s_normal = random_normal_matrix(dim, seed)
        t_normal = random_normal_matrix(dim, seed + 1)
        be = block_embedding(s_normal, t_normal, z, z)
        assert classify(be.N).normal
        s_bad = s_normal + np.triu(np.ones((dim, dim)), 1)
        be_bad = block_embedding(s_bad, t_normal, z, z)
        assert not classify(be_bad.N).normal

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            block_embedding(np.eye(2), np.eye(2), np.eye(3), np.eye(2))


def test_upper_block_norm_identity():
    z = random_matrix(3, 9)
    padded = np.zeros((6, 6), dtype=complex)
    padded[:3, 3:] = z
    assert op_norm(padded) == pytest.approx(op_norm(z), rel=1e-12)
