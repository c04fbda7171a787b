import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.core import (
    HypothesisError,
    InputError,
    ShapeError,
    SingularValueList,
    cartesian_decomposition,
    classify,
    direct_sum,
    hermitian_eig,
    hs_norm,
    matrix_abs_sqrt,
    matrix_algebra,
    numerical_radius,
    op_norm,
    singular_values,
)
from oracles import random_matrix, random_normal_matrix

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
HADAMARD_LIKE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 6)


class TestMatrixAlgebra:
    def test_adjoint(self):
        np.testing.assert_array_equal(
            matrix_algebra(NILPOTENT, kind="adjoint-of-lhs"), [[0, 0], [1, 0]]
        )

    def test_identity_multiply(self):
        m = random_matrix(3, 5)
        np.testing.assert_allclose(matrix_algebra(np.eye(3), m, kind="multiply"), m)

    def test_hand_square(self):
        np.testing.assert_allclose(
            matrix_algebra(HADAMARD_LIKE, HADAMARD_LIKE, kind="multiply"),
            [[2, 0], [0, 2]],
        )

    def test_add_subtract_scale(self):
        m = random_matrix(2, 0)
        np.testing.assert_allclose(matrix_algebra(m, m, kind="add"), 2 * m)
        np.testing.assert_allclose(matrix_algebra(m, m, kind="subtract"), 0 * m)
        np.testing.assert_allclose(matrix_algebra(m, 2j, kind="scale-by-complex"), 2j * m)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            matrix_algebra(np.eye(2), np.eye(3), kind="add")
        with pytest.raises(ShapeError):
            matrix_algebra(np.ones((2, 3)), np.ones((2, 3)), kind="multiply")
        with pytest.raises(InputError):
            matrix_algebra(np.eye(2), np.eye(2), kind="frobnicate")

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            matrix_algebra(np.array([[np.nan, 0], [0, 0]]), np.eye(2), kind="add")


class TestCartesianDecomposition:
    def test_hermitian_gives_zero_imaginary_part(self):
        h = HADAMARD_LIKE
        a, c = cartesian_decomposition(h)
        np.testing.assert_allclose(a, h)
        np.testing.assert_allclose(c, np.zeros((2, 2)))

    def test_skew_case(self):
        a, c = cartesian_decomposition(1j * np.eye(2))
        np.testing.assert_allclose(a, np.zeros((2, 2)))
        np.testing.assert_allclose(c, np.eye(2))

    def test_hand_values(self):
        a, c = cartesian_decomposition(NILPOTENT)
        np.testing.assert_allclose(a, [[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(c, [[0, -0.5j], [0.5j, 0]])

    def test_non_square(self):
        with pytest.raises(ShapeError):
            cartesian_decomposition(np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_reconstruction_and_hermitian_parts(self, seed, dim):
        s = random_matrix(dim, seed)
        a, c = cartesian_decomposition(s)
        assert op_norm(a - a.conj().T) <= 1e-12 * max(1.0, op_norm(a))
        assert op_norm(c - c.conj().T) <= 1e-12 * max(1.0, op_norm(c))
        assert op_norm(s - (a + 1j * c)) <= 1e-12 * max(1.0, op_norm(s))


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])

    def test_characteristic_polynomial_case(self):
        dec = hermitian_eig(HADAMARD_LIKE)
        np.testing.assert_allclose(dec.eigenvalues, [np.sqrt(2), -np.sqrt(2)], atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(hermitian_eig(np.zeros((2, 2))).eigenvalues, [0.0, 0.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(HypothesisError):
            hermitian_eig(NILPOTENT)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_reconstruction(self, seed, dim):
        m = random_matrix(dim, seed)
        h = (m + m.conj().T) / 2
        dec = hermitian_eig(h)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert op_norm(h - recon) <= 1e-10 * max(1.0, op_norm(h))
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(singular_values(np.eye(3)).values, [1, 1, 1])

    def test_nilpotent(self):
        np.testing.assert_allclose(singular_values(NILPOTENT).values, [1, 0], atol=1e-15)

    def test_hand_case(self):
        np.testing.assert_allclose(
            singular_values(HADAMARD_LIKE).values, [np.sqrt(2), np.sqrt(2)]
        )

    def test_index_convention(self):
        sv = singular_values(np.ones((2, 3)))
        assert len(sv) == 2
        assert sv.s(3) == 0.0
        assert sv.s(1) >= sv.s(2) >= 0.0
        with pytest.raises(InputError):
            sv.s(0)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_norm_identities(self, seed, dim):
        m = random_matrix(dim, seed)
        sv = singular_values(m).values
        assert abs(op_norm(m) - sv.max()) <= 1e-10 * max(1.0, sv.max())
        assert abs(hs_norm(m) ** 2 - np.sum(sv**2)) <= 1e-10 * max(1.0, np.sum(sv**2))


class TestNorms:
    def test_op_norm_examples(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0)
        assert op_norm([[0, 2], [-2, 0]]) == pytest.approx(2.0)
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_hs_norm_examples(self):
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2))
        assert hs_norm(NILPOTENT) == pytest.approx(1.0)
        assert hs_norm(HADAMARD_LIKE) == pytest.approx(2.0)


class TestNumericalRadius:
    def test_hermitian_equals_spectral_radius(self):
        assert numerical_radius(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-9)

    def test_nilpotent_half(self):
        assert numerical_radius(NILPOTENT) == pytest.approx(0.5, abs=1e-6)

    def test_zero(self):
        assert numerical_radius(np.zeros((2, 2))) == 0.0

    def test_non_square(self):
        with pytest.raises(ShapeError):
            numerical_radius(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 5))
    def test_enclosure_bounds(self, seed, dim):
        m = random_matrix(dim, seed)
        w = numerical_radius(m)
        opn = op_norm(m)
        assert w <= opn + 1e-6
        assert w >= 0.5 * opn - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(2, 5))
    def test_normal_matches_op_norm(self, seed, dim):
        m = random_normal_matrix(dim, seed)
        assert abs(numerical_radius(m) - op_norm(m)) <= 1e-6


class TestMatrixAbsSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_abs_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_positive_diagonal(self):
        np.testing.assert_allclose(
            matrix_abs_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_nilpotent(self):
        np.testing.assert_allclose(matrix_abs_sqrt(NILPOTENT), np.diag([0.0, 1.0]), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_fourth_power_reconstructs(self, seed, dim):
        m = random_matrix(dim, seed)
        r = matrix_abs_sqrt(m)
        flags = classify(r)
        assert flags.hermitian and flags.positive_semidefinite
        gram = m.conj().T @ m
        r4 = np.linalg.matrix_power(r, 4)
        assert op_norm(r4 - gram) <= 1e-8 * max(1.0, op_norm(gram))


class TestClassify:
    def test_positive_diagonal(self):
        flags = classify(np.diag([1.0, 2.0]))
        assert flags.hermitian and flags.normal and flags.positive_semidefinite
        assert not flags.unitary

    def test_nilpotent_not_normal(self):
        flags = classify(NILPOTENT)
        assert not flags.normal and not flags.hermitian

    def test_rotation(self):
        th = np.pi / 6
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        flags = classify(rot)
        assert flags.normal and flags.unitary and not flags.hermitian

    def test_non_square(self):
        with pytest.raises(ShapeError):
            classify(np.ones((2, 3)))


class TestDirectSum:
    def test_merged_singular_values(self):
        d = direct_sum(np.eye(2), np.zeros((2, 2)))
        np.testing.assert_allclose(singular_values(d).values, [1, 1, 0, 0])

    def test_shapes(self):
        assert direct_sum(np.ones((2, 2)), np.ones((3, 3))).shape == (5, 5)

    def test_scalars(self):
        np.testing.assert_allclose(direct_sum([[2.0]], [[3.0]]), np.diag([2.0, 3.0]))

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.integers(1, 4), st.integers(1, 4))
    def test_spectrum_is_merge(self, seed, d1, d2):
        x = random_matrix(d1, seed)
        y = random_matrix(d2, seed + 1)
        merged = np.sort(np.concatenate([singular_values(x).values, singular_values(y).values]))[::-1]
        np.testing.assert_allclose(singular_values(direct_sum(x, y)).values, merged, atol=1e-12)


def test_singular_value_list_is_lightweight():
    sv = SingularValueList(np.array([2.0, 1.0]))
    assert sv.s(1) == 2.0 and sv.s(2) == 1.0 and sv.s(9) == 0.0
