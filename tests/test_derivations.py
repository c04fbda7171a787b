import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.core import HypothesisError, InputError, hs_norm, op_norm
from commlab.derivations import (
    _GAMMA,
    _REFINE_GAMMA,
    _checked_basis,
    _hermitian_part,
    _kronecker_lift,
    check_fp_pair,
    check_reduction,
    kernel_basis,
    lift_derivation,
    min_distance_hs,
    orthogonality_probe_opnorm,
)
from commlab.instances import Recipe, make_instance, random_unitary
from oracles import brute_min_distance_hs, kron_lift, random_matrix, random_normal_matrix, unvec, vec

seeds = st.integers(0, 2**31 - 1)
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def lifted(op):
    """The n^2 x n^2 matrix of ``op.apply`` on column-stacked vec, one basis matrix at a time."""
    n = op.dim
    return np.column_stack([vec(op.apply(unvec(e, n))) for e in np.eye(n * n)])


def oracle_kernel(s, t):
    """Cutoff 1e-8 sigma_max, kernel dimension and null-space projector of ``kron_lift(s, t)``."""
    _, svals, vh = np.linalg.svd(kron_lift(s, t))
    cutoff = 1e-8 * svals[0]
    null = vh[svals <= cutoff].conj().T
    return cutoff, null.shape[1], null @ null.conj().T


def kernel_projector(op):
    """Projector onto the span of ``kernel_basis(op)``, on column-stacked vec."""
    vecs = np.array([vec(e.C) for e in kernel_basis(op)]).reshape(-1, op.dim**2).T
    return vecs @ vecs.conj().T


class TestLift:
    def test_scalar(self):
        op = lift_derivation(np.array([[3.0 + 0j]]), np.array([[1.0 + 0j]]))
        np.testing.assert_allclose(lifted(op), [[2.0]])
        assert op.cutoff == 1e-8 * 2.0

    def test_identity_pair(self):
        op = lift_derivation(np.eye(2), np.eye(2))
        np.testing.assert_allclose(lifted(op), np.zeros((4, 4)))
        assert op.cutoff == 0.0

    def test_diagonal_multiset(self):
        op = lift_derivation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        got = sorted(np.round(np.diag(lifted(op)).real, 12))
        assert got == sorted([1 - 3, 1 - 4, 2 - 3, 2 - 4])
        assert op.cutoff == 1e-8 * 3.0  # sigma_max = |1 - 4|

    def test_scalar_up_to_rounding_keeps_the_scalar_kernel(self):
        # U(2I)U* is 2I up to rounding; the cutoff's floor keeps that noise out of the range
        s = _conjugated([2.0, 2.0, 2.0], 1)
        for op in (lift_derivation(s, s), _kronecker_lift(s, s)):
            assert len(kernel_basis(op)) == 9
        exact = lift_derivation(2.0 * np.eye(3), 2.0 * np.eye(3))
        assert exact.cutoff == 0.0
        assert len(kernel_basis(exact)) == 9

    def test_huge_non_normal_pair_keeps_its_kernel(self):
        # the Kronecker cutoff's scale squares no entry, so it stays finite at 1e160
        s = np.array([[1e160, 1e160], [0.0, 2.0]], dtype=complex)
        with np.errstate(over="raise", invalid="raise"):
            op = _kronecker_lift(s, s)
        assert op.cutoff == pytest.approx(1e-8 * np.sqrt(3.0) * 1e160)
        assert len(op._kernel) == 2  # I and S

    def test_huge_non_normal_pair_falls_back_without_overflow(self):
        # the eigenbasis residual is scaled before its norm squares it
        s = np.array([[1e160, 1e160], [0.0, 2.0]], dtype=complex)
        with np.errstate(over="raise", invalid="raise"):
            op = lift_derivation(s, s)
        assert op.lift == "kronecker"
        assert len(kernel_basis(op)) == 2

    def test_over_budget_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "kron", lambda *a: pytest.fail("lift allocated"))
        with pytest.raises(InputError, match="n <= 64"):
            lift_derivation(np.eye(65), np.eye(65))

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 5))
    def test_vec_consistency(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        op = lift_derivation(s, t)
        x = random_matrix(dim, seed + 2)
        assert np.linalg.norm(kron_lift(s, t) @ vec(x) - vec(op.apply(x))) <= 1e-10 * max(
            1.0, op_norm(s) + op_norm(t)
        ) * max(1.0, hs_norm(x))

    def test_factorization_is_attached(self):
        normal = random_normal_matrix(3, 6)
        for s, t, lift in (
            (random_matrix(3, 4), random_matrix(3, 5), "kronecker"),
            (random_normal_matrix(3, 4), random_normal_matrix(3, 5), "spectral"),
            (normal, normal, "spectral"),
        ):
            op = lift_derivation(s, t)
            assert op.lift == lift
            np.testing.assert_allclose(lifted(op), kron_lift(s, t), atol=1e-12)
            cutoff, dim, projector = oracle_kernel(s, t)
            if lift == "kronecker":  # the same matrix, so the same SVD
                assert op.cutoff == cutoff
            else:
                assert op.cutoff == pytest.approx(cutoff, rel=1e-12)
            assert len(kernel_basis(op)) == dim
            np.testing.assert_allclose(kernel_projector(op), projector, atol=1e-10)


def _conjugated(diagonal, seed):
    """U diag(d) U* for a Haar unitary U: normal, with the spectrum d."""
    u = random_unitary(len(diagonal), seed)
    return (u * np.asarray(diagonal)) @ u.conj().T


@st.composite
def lift_pairs(draw):
    """(S, T, the lift the pair must take) over the cases the spectral lift must tell apart."""
    kind = draw(
        st.sampled_from(
            (
                "normal", "hermitian", "repeated", "scalar", "conjugate", "colliding", "colliding-twice",
                "non-normal",
            )
        )
    )
    seed, dim = draw(seeds), draw(st.integers(2, 5))
    tied = draw(st.booleans())
    lift = "spectral"
    if kind == "normal":
        s, t = random_normal_matrix(dim, seed), random_normal_matrix(dim, seed + 1)
    elif kind == "hermitian":
        a, b = random_matrix(dim, seed), random_matrix(dim, seed + 1)
        s, t = a + a.conj().T, b + b.conj().T
    elif kind == "repeated":
        d = np.array([1.0, 2.0, 1.0])
        rotated = draw(st.booleans())
        s = _conjugated(d, seed) if rotated else np.diag(d)
        t = _conjugated(d, seed + 1) if rotated else np.diag(d)
    elif kind == "scalar":
        c, e = draw(st.sampled_from((2.0, -1.0 + 3.0j))), draw(st.sampled_from((2.0, 0.5j)))
        s, t = c * np.eye(dim), e * np.eye(dim)
    elif kind == "conjugate":  # i and -i share a real part, as a real rotation's eigenvalues do
        s = _conjugated([1j, -1j, 2.0], seed)
        t = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    elif kind == "colliding":  # 0 and gamma - i meet under lam -> Re lam + gamma Im lam
        d = np.array([0.0, _GAMMA - 1j, *random_normal_matrix(dim, seed).diagonal()])
        s, t = _conjugated(d, seed), random_normal_matrix(len(d), seed + 1)
        # the refinement's weight parts them
    elif kind == "colliding-twice":  # and 0 and gamma' - i meet under the refinement's gamma'
        d = np.array([0.0, _GAMMA - 1j, _REFINE_GAMMA - 1j, *random_normal_matrix(dim, seed).diagonal()])
        s, t = _conjugated(d, seed), random_normal_matrix(len(d), seed + 1)
        lift = "kronecker"
    else:
        s, t = random_matrix(dim, seed), random_matrix(dim, seed + 1)
        lift = "kronecker"
    return s, (s if tied else t), lift


class TestSpectralLift:
    """The spectral lift against the Kronecker oracle."""

    @settings(max_examples=80, deadline=None)
    @given(lift_pairs(), seeds)
    def test_matches_kronecker_oracle(self, pair, seed):
        s, t, lift = pair
        op = lift_derivation(s, t)
        assert op.lift == lift
        cutoff, dim, projector = oracle_kernel(s, t)
        assert len(kernel_basis(op)) == dim
        np.testing.assert_allclose(kernel_projector(op), projector, atol=1e-8)
        c = random_matrix(s.shape[0], seed)
        assert min_distance_hs(op, c) == pytest.approx(brute_min_distance_hs(s, t, c), abs=1e-8)

    def test_refined_eigenbasis_matches_kronecker_oracle(self):
        # T of the normal recipe at n = 32, seed 8 fails the first eigenbasis's
        # residual test; the refinement step keeps it on the spectral lift
        t = make_instance(Recipe("normal", 32), 8).T
        assert _checked_basis(t, np.linalg.eigh(_hermitian_part(t, _GAMMA))[1]) is None
        op = lift_derivation(t, t)
        assert op.lift == "spectral"
        _, dim, projector = oracle_kernel(t, t)
        assert len(kernel_basis(op)) == dim == 32
        np.testing.assert_allclose(kernel_projector(op), projector, atol=1e-8)

    def test_normal_pair_builds_no_kronecker_lift(self, monkeypatch):
        svd = np.linalg.svd

        def small_svd(a, *args, **kwargs):
            assert np.shape(a) != (16, 16), "the n^2 x n^2 SVD was taken"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np, "kron", lambda *a: pytest.fail("the Kronecker lift was built"))
        monkeypatch.setattr(np.linalg, "svd", small_svd)
        s = random_normal_matrix(4, 1)
        for t in (s, random_normal_matrix(4, 2)):
            op = lift_derivation(s, t)
            assert op.lift == "spectral"
            min_distance_hs(op, random_matrix(4, 3))
            assert check_fp_pair(s, t).holds


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
        smax = float(np.linalg.svd(kron_lift(s, s), compute_uv=False)[0])
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
        op = lift_derivation(s, s)
        assert min_distance_hs(op, np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_kernel_element(self):
        d = np.diag([1.0, 2.0])
        op = lift_derivation(d, d)
        assert min_distance_hs(op, np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=1e-10)

    def test_surjective_case(self):
        op = lift_derivation(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        value = min_distance_hs(op, random_matrix(2, 3))
        assert value == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_never_exceeds_hs_norm(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        c = random_matrix(dim, seed + 2)
        assert min_distance_hs(lift_derivation(s, t), c) <= hs_norm(c) + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_matches_lstsq_oracle(self, seed, dim):
        s = random_matrix(dim, seed)
        t = random_matrix(dim, seed + 1)
        c = random_matrix(dim, seed + 2)
        assert min_distance_hs(lift_derivation(s, t), c) == pytest.approx(
            brute_min_distance_hs(s, t, c), abs=1e-8
        )

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.integers(2, 4))
    def test_kernel_element_orthogonality(self, seed, dim):
        s = random_normal_matrix(dim, seed)
        op = lift_derivation(s, s)
        c = kernel_basis(op)[0].C
        assert min_distance_hs(op, c) == pytest.approx(
            hs_norm(c), rel=1e-8, abs=1e-8
        )


class TestProbe:
    def test_zero_start_bounds_result(self):
        s = random_normal_matrix(3, 2)
        op = lift_derivation(s, s)
        c = kernel_basis(op)[0].C
        result = orthogonality_probe_opnorm(op, c)
        assert result.min_found <= op_norm(c) + 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_finds_the_jordan_block_violation(self, n):
        # S = T = C = J_n: delta(-diag(0, 1, ..., n-1)) = -J_n, so the infimum is 0
        j = np.diag(np.ones(n - 1), 1).astype(complex)
        result = orthogonality_probe_opnorm(lift_derivation(j, j), j)
        assert result.verdict == "violation-candidate"
        assert result.min_found <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(2, 4), st.booleans())
    def test_min_found_between_hs_bound_and_c_norm(self, seed, dim, normal):
        # |R|_2 <= sqrt(n) |R| for every R, so min_distance_hs / sqrt(n) bounds min_found below
        if normal:
            inst = make_instance(Recipe("inner-normal", dim), seed)
            op = lift_derivation(inst.S, inst.T)
            c = kernel_basis(op)[0].C
        else:
            c = random_matrix(dim, seed)
            op = lift_derivation(c, c)
        result = orthogonality_probe_opnorm(op, c)
        assert min_distance_hs(op, c) / np.sqrt(dim) - 1e-12 <= result.min_found <= op_norm(c) + 1e-12

    def test_scalar_pair_stops_at_its_first_step(self):
        # S = T = 2I lifts to the zero derivation, so the first descent direction is 0
        s = 2.0 * np.eye(3, dtype=complex)
        result = orthogonality_probe_opnorm(lift_derivation(s, s), np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert (result.evaluations, result.min_found, result.verdict) == (1, 3.0, "consistent")

    def test_rejects_non_kernel_c(self):
        s = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(HypothesisError):
            orthogonality_probe_opnorm(lift_derivation(s, s), np.array([[0, 1], [0, 0]]))

    @settings(max_examples=6, deadline=None)
    @given(seeds)
    def test_commutant_elements_consistent(self, seed):
        inst = make_instance(Recipe("inner-normal", 3), seed)
        op = lift_derivation(inst.S, inst.T)
        basis = kernel_basis(op)
        result = orthogonality_probe_opnorm(op, basis[0].C)
        assert result.verdict == "consistent"
        assert result.min_found >= op_norm(basis[0].C) - 1e-6


def test_upper_block_norm_identity():
    z = random_matrix(3, 9)
    padded = np.zeros((6, 6), dtype=complex)
    padded[:3, 3:] = z
    assert op_norm(padded) == pytest.approx(op_norm(z), rel=1e-12)
