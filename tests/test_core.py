import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.core import (
    cartesian_decomposition,
    classify,
    hermitian_eig,
    hs_norm,
    matrix_abs_sqrt,
    numerical_radius,
    numerical_radius_bracket,
    op_norm,
)
from commlab.instances import random_unitary
from oracles import eager_flags, golden_section_radius, random_matrix, random_normal_matrix

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
HADAMARD_LIKE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 6)
complex_entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


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
        np.testing.assert_allclose(hermitian_eig(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_characteristic_polynomial_case(self):
        vals = hermitian_eig(HADAMARD_LIKE)
        np.testing.assert_allclose(vals, [np.sqrt(2), -np.sqrt(2)], atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(hermitian_eig(np.zeros((2, 2))), [0.0, 0.0])

    def test_non_hermitian_gives_hermitian_part(self):
        # (N + N*)/2 = [[0, 1/2], [1/2, 0]]
        np.testing.assert_allclose(hermitian_eig(NILPOTENT), [0.5, -0.5])

    def test_takes_one_eigvalsh_and_no_svd(self, linalg_calls):
        hermitian_eig(random_matrix(4, 0))
        assert linalg_calls == {"svd": 0, "eigvalsh": 1}

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_reconstruction(self, seed, dim):
        # the eigenvalues reconstruct the trace, the HS norm and the operator norm
        m = random_matrix(dim, seed)
        h = (m + m.conj().T) / 2
        vals = hermitian_eig(h)
        scale = max(1.0, op_norm(h))
        assert abs(vals.sum() - np.trace(h).real) <= 1e-10 * dim * scale
        assert abs(np.sqrt(np.sum(vals**2)) - hs_norm(h)) <= 1e-10 * dim * scale
        assert abs(np.abs(vals).max() - op_norm(h)) <= 1e-10 * scale
        assert np.all(np.diff(vals) <= 1e-12)


class TestNorms:
    def test_op_norm_examples(self):
        assert op_norm(np.eye(4)) == pytest.approx(1.0)
        assert op_norm(np.array([[0, 2], [-2, 0]], dtype=complex)) == pytest.approx(2.0)
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_hs_norm_examples(self):
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2))
        assert hs_norm(NILPOTENT) == pytest.approx(1.0)
        assert hs_norm(HADAMARD_LIKE) == pytest.approx(2.0)

    @settings(max_examples=40, deadline=None)
    @given(seeds, dims)
    def test_norm_identities(self, seed, dim):
        m = random_matrix(dim, seed)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(op_norm(m) - sv.max()) <= 1e-10 * max(1.0, sv.max())
        assert abs(hs_norm(m) ** 2 - np.sum(sv**2)) <= 1e-10 * max(1.0, np.sum(sv**2))


def _rank_one(dim: int, seed: int) -> np.ndarray:
    return np.outer(random_matrix(dim, seed)[:, 0], random_matrix(dim, seed + 1)[0].conj())


def _hermitian(dim: int, seed: int) -> np.ndarray:
    r = random_matrix(dim, seed)
    return r + r.conj().T


def _clustered(seed: int) -> np.ndarray:
    """A 4x4 near-normal matrix whose eigenvalues cluster on an arc of the unit
    circle 0.2 wide, so the top eigenvalues of H(t) cross inside grid cells."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    z = np.exp(1j * rng.uniform(0, 0.2, 4)) * (1 + 1e-3 * rng.standard_normal(4))
    return q @ np.diag(z) @ q.conj().T + 1e-4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))


RADIUS_FAMILIES = {
    "random": random_matrix,
    "normal": random_normal_matrix,
    "hermitian": _hermitian,
    "rank-one": _rank_one,
}


def _assert_radius(m, exact: float) -> None:
    """numerical_radius(m) is within 1e-12 of ``exact`` and above it by rounding at most.

    The rounding allowance, 64 ulps of max(1, exact), is 4x the largest excess
    seen over 3000 normal matrices at n <= 8 (16 ulps), whose ``exact`` comes
    from their own rounded eigenvalues.
    """
    w = numerical_radius(m)
    scale = max(1.0, exact)
    assert abs(w - exact) <= 1e-12 * scale, (w, exact)
    assert w <= exact + 64 * np.finfo(float).eps * scale, (w, exact)


class TestNumericalRadius:
    def test_hermitian_equals_spectral_radius(self):
        for m in [np.diag([3.0, -1.0])] + [_hermitian(dim, dim) for dim in range(1, 9)]:
            _assert_radius(m, float(np.abs(np.linalg.eigvalsh(m)).max()))

    def test_nilpotent_half(self):
        assert numerical_radius(NILPOTENT) == pytest.approx(0.5, abs=1e-12)

    def test_zero(self):
        assert numerical_radius(np.zeros((2, 2))) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 5))
    def test_enclosure_bounds(self, seed, dim):
        m = random_matrix(dim, seed)
        w = numerical_radius(m)
        opn = op_norm(m)
        assert w <= opn + 1e-6
        assert w >= 0.5 * opn - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 8))
    def test_normal_matches_op_norm(self, seed, dim):
        # for normal M, w(M) = |M| = max |lam|
        m = random_normal_matrix(dim, seed)
        _assert_radius(m, op_norm(m))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(RADIUS_FAMILIES)), seeds, st.integers(1, 8))
    def test_matches_golden_section_oracle(self, family, seed, dim):
        m = RADIUS_FAMILIES[family](dim, seed)
        want = golden_section_radius(m)
        assert abs(numerical_radius(m) - want) <= 1e-12 * max(1.0, want)

    # these reach the bisection of a + to - bracket that the steps to the
    # local peaks miss, which no other test does
    @pytest.mark.parametrize("seed", [497, 841, 898])
    def test_bisection_fallback_matches_golden_section_oracle(self, seed):
        m = _clustered(seed)
        want = golden_section_radius(m)
        assert abs(numerical_radius(m) - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "eigenvalues",
        [
            # the top two less than a grid cell apart: the larger peaks inside a
            # cell whose end slopes are both +, between the grid and a kink
            [np.exp(-0.03j), 0.999 * np.exp(-0.13j)],
            # the largest between two others whose peaks lie just outside its
            # grid cell, so both of that cell's end slopes point out of it
            [
                0.9995 * np.exp(0.01j),
                np.exp(-1j * np.pi / 64),
                0.9995 * np.exp(-1j * (np.pi / 32 + 0.01)),
            ],
        ],
    )
    def test_near_top_eigenvalues(self, eigenvalues, seed):
        u = random_unitary(len(eigenvalues), seed)
        m = u @ np.diag(eigenvalues) @ u.conj().T
        for case in (m, m.conj()):  # mirrored, the slopes point the other way
            _assert_radius(case, 1.0)
            assert numerical_radius(case) == pytest.approx(golden_section_radius(case), rel=1e-12)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_jordan_block(self, dim):
        _assert_radius(np.eye(dim, k=1), np.cos(np.pi / (dim + 1)))

    @settings(max_examples=30, deadline=None)
    @given(complex_entries, complex_entries)
    def test_two_by_two_jordan_form(self, lam, b):
        _assert_radius(np.array([[lam, b], [0.0, lam]]), abs(lam) + abs(b) / 2.0)

    @pytest.mark.parametrize("c", [2.0, -1.5, 2.0 * np.exp(0.3j), 1e-3j, 7.0 - 3.0j])
    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_scalar(self, c, dim):
        # a multiple top eigenvalue everywhere: steps go to the tangent cosine's peak
        _assert_radius(c * np.eye(dim), abs(c))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scale(self, scale):
        m = random_matrix(4, 0)
        with np.errstate(over="raise", invalid="raise"):
            w = numerical_radius(scale * m) / scale
        assert w == pytest.approx(numerical_radius(m), rel=1e-12)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_eigensolver_calls(self, monkeypatch, dim):
        """One batched grid eigensolve, then a few eigh calls (about 4 on random matrices).

        A Jordan block, whose h is flat, and a matrix of norm 1e-9, whose top
        gaps are all below 1e-8, are covered too.
        """
        counts = {"eigh": 0, "eigvalsh": 0}
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counting_eigh(*args, **kwargs):
            counts["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_eigvalsh(*args, **kwargs):
            counts["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        flat_or_tiny = [np.eye(dim, k=1), 1e-9 * random_matrix(dim, 0)]
        for m in [random_matrix(dim, seed) for seed in range(5)] + flat_or_tiny:
            counts.update(eigh=0, eigvalsh=0)
            numerical_radius(m)
            assert counts["eigvalsh"] == 1
            assert counts["eigh"] <= 12


def _grid(m) -> np.ndarray:
    """h at the 64 grid angles, one eigensolve per angle in [0, pi) and h(t + pi)
    read off its bottom eigenvalue."""
    a, c = cartesian_decomposition(m)
    ev = [np.linalg.eigvalsh(np.cos(t) * a - np.sin(t) * c) for t in np.arange(32) * (np.pi / 32)]
    return np.array([e[-1] for e in ev] + [-e[0] for e in ev])


def _clustered_normal(dim: int, seed: int) -> tuple[np.ndarray, float]:
    """A normal matrix whose eigenvalues agree in modulus within 1e-3 and in
    argument within 0.1 rad, and its exact radius max |lambda|."""
    rng = np.random.default_rng(seed)
    lam = (1.0 - 1e-3 * rng.random(dim)) * np.exp(1j * (rng.random() * 2 * np.pi + 0.1 * rng.random(dim)))
    u = random_unitary(dim, seed)
    return (u * lam) @ u.conj().T, float(np.abs(lam).max())


def _assert_bracket(m, exact: float | None = None) -> None:
    """lo is the grid's largest h, bit for bit; w(M), and ``exact`` when given,
    lie in [lo, hi]; hi is at most lo's support-line bound plus its slack."""
    lo, hi = numerical_radius_bracket(m)
    vals = _grid(m)
    assert lo == vals.max()
    assert lo <= numerical_radius(m) <= hi
    assert hi <= lo / np.cos(np.pi / 64) + 1e-12 * np.abs(vals).max()
    if exact is not None:
        assert exact <= hi, (exact, hi)


class TestNumericalRadiusBracket:
    @pytest.mark.parametrize("family", ["random", "hermitian", "normal"])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_encloses_the_radius(self, family, dim):
        for seed in range(8):
            _assert_bracket(RADIUS_FAMILIES[family](dim, seed))

    @pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 2.5, -2.0])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_rotated_jordan_block(self, k, dim):
        _assert_bracket(np.exp(1j * k) * np.eye(dim, k=1), np.cos(np.pi / (dim + 1)))

    @pytest.mark.parametrize(
        "m, exact",
        [(NILPOTENT, 0.5), (np.zeros((3, 3)), 0.0), (np.array([[2.0 - 1.0j]]), abs(2.0 - 1.0j))],
        ids=["nilpotent", "zero", "one-by-one"],
    )
    def test_small_cases(self, m, exact):
        _assert_bracket(m, exact)

    @pytest.mark.parametrize("dim", [0, 3])
    def test_zero_and_empty_give_zero(self, dim):
        assert numerical_radius_bracket(np.zeros((dim, dim))) == (0.0, 0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_scale(self, scale):
        for seed in range(4):
            with np.errstate(over="raise", invalid="raise"):
                _assert_bracket(scale * random_matrix(4, seed))

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_clustered_normal(self, dim):
        # the family where numerical_radius can come out low; hi stays above
        # the exact radius all the same
        for seed in range(50):
            _assert_bracket(*_clustered_normal(dim, seed))

    def test_one_grid_eigensolve(self, count_linalg):
        counts = count_linalg("eigh", "eigvalsh")
        numerical_radius_bracket(random_matrix(4, 0))
        assert counts == {"eigh": 0, "eigvalsh": 1}


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

    def test_nilpotent_not_normal(self):
        flags = classify(NILPOTENT)
        assert not flags.normal and not flags.hermitian

    def test_rotation(self):
        th = np.pi / 6
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        flags = classify(rot)
        assert flags.normal and not flags.hermitian

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param(random_matrix(4, 1), id="random"),
            pytest.param((random_matrix(4, 2) + random_matrix(4, 2).conj().T) / 2.0, id="hermitian"),
            pytest.param(random_normal_matrix(4, 3), id="normal"),
            pytest.param(random_matrix(4, 4) @ random_matrix(4, 4).conj().T, id="psd"),
            pytest.param(-np.eye(3), id="negative-definite"),
            pytest.param(NILPOTENT, id="nilpotent"),
            pytest.param(np.eye(4, k=1), id="jordan"),
            pytest.param(np.zeros((0, 0)), id="empty"),
            pytest.param(np.zeros((3, 3)), id="zero"),
            pytest.param(1e-9 * random_matrix(4, 5), id="tiny-random"),
            pytest.param(1e-9 * random_normal_matrix(4, 6), id="tiny-normal"),
        ],
    )
    def test_flags_equal_eager_formulas(self, m):
        flags = classify(m)
        assert (flags.hermitian, flags.normal, flags.positive_semidefinite) == eager_flags(m)

    @pytest.mark.parametrize(
        "m, flag, want",
        [
            (random_matrix(4, 0), "hermitian", {"svd": 2, "eigvalsh": 0}),
            (random_matrix(4, 0), "normal", {"svd": 2, "eigvalsh": 0}),
            # not Hermitian, so no eigensolve
            (random_matrix(4, 0), "positive_semidefinite", {"svd": 2, "eigvalsh": 0}),
            (np.diag([1.0, 2.0, 3.0]), "positive_semidefinite", {"svd": 2, "eigvalsh": 1}),
        ],
    )
    def test_reading_one_flag_costs_its_test(self, linalg_calls, m, flag, want):
        flags = classify(m)
        assert linalg_calls == {"svd": 1, "eigvalsh": 0}  # op_norm(m) only
        getattr(flags, flag)
        assert linalg_calls == want
        getattr(flags, flag)  # a flag is computed once
        assert linalg_calls == want

    def test_caller_writes_do_not_change_flags(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        flags = classify(m)
        m[0, 1] = 5.0  # neither Hermitian nor normal now
        assert flags.hermitian and flags.normal and flags.positive_semidefinite
        with pytest.raises(ValueError):
            flags.matrix[0, 1] = 5.0
