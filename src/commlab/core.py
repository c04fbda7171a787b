"""Dense complex-matrix primitives: norms, spectra, and structure tests.

Matrices are numpy ``complex128`` arrays of shape ``(rows, cols)``. Every
function here is pure; inputs are never mutated. Comparisons follow one
tolerance policy: a residual passes when it is at most ``tol * max(1, scale)``
for a scale natural to the quantity being tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "HypothesisError",
    "NumericError",
    "InputError",
    "as_matrix",
    "commutator",
    "self_commutator",
    "matrix_algebra",
    "cartesian_decomposition",
    "SpectralDecomposition",
    "hermitian_eig",
    "SingularValueList",
    "singular_values",
    "op_norm",
    "hs_norm",
    "numerical_radius",
    "matrix_abs_sqrt",
    "OperatorFlags",
    "classify",
    "direct_sum",
]


_HERMITIAN_TOL = 1e-10  # hermitian_eig's relative Hermitian-ness check
_NUMRAD_GRID = 64  # numerical_radius: coarse angles, then golden-section
_NUMRAD_WIDTH = 1e-8  # refinement to this angular width
_CLASSIFY_TOL = 1e-8  # classify's relative residual tolerance


class ShapeError(ValueError):
    """Operands have missing, non-square, or non-conformable dimensions."""


class HypothesisError(ValueError):
    """An input violates a precondition of the requested operation."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class InputError(ValueError):
    """A request references unknown, missing, or malformed data."""


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError("matrix contains non-finite entries")
    return a


def _require_square(m: np.ndarray, what: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{what} requires a square matrix, got {m.shape}")


def commutator(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ST - TS."""
    s, t = as_matrix(s), as_matrix(t)
    return s @ t - t @ s


def self_commutator(s: np.ndarray) -> np.ndarray:
    """S*S - SS*."""
    s = as_matrix(s)
    return s.conj().T @ s - s @ s.conj().T


_ALGEBRA_KINDS = ("add", "subtract", "multiply", "scale-by-complex", "adjoint-of-lhs")


def matrix_algebra(lhs, rhs=None, kind: str = "add") -> np.ndarray:
    """Textbook matrix algebra with explicit dimension checking.

    ``rhs`` is a matrix for add/subtract/multiply, a complex scalar for
    scale-by-complex, and ignored for adjoint-of-lhs.
    """
    a = as_matrix(lhs)
    if kind == "adjoint-of-lhs":
        return a.conj().T
    if kind == "scale-by-complex":
        z = complex(rhs)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise InputError("scale factor must be finite")
        return z * a
    if kind not in _ALGEBRA_KINDS:
        raise InputError(f"unknown kind {kind!r}, expected one of {_ALGEBRA_KINDS}")
    b = as_matrix(rhs)
    if kind in ("add", "subtract"):
        if a.shape != b.shape:
            raise ShapeError(f"shape mismatch for {kind}: {a.shape} vs {b.shape}")
        return a + b if kind == "add" else a - b
    # multiply
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def cartesian_decomposition(s) -> tuple[np.ndarray, np.ndarray]:
    """Split a square S into Hermitian parts (A, C) with S = A + iC.

    A = (S + S*)/2 and C = (S - S*)/(2i); both are Hermitian by
    construction and A + iC reproduces S up to rounding.
    """
    s = as_matrix(s)
    _require_square(s, "cartesian_decomposition")
    sh = s.conj().T
    a = (s + sh) / 2.0
    c = (s - sh) / 2.0j
    return a, c


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises HypothesisError when the input is not Hermitian within
    ``1e-10 * max(1, op_norm(m))``, and NumericError when the computed
    decomposition fails its reconstruction bound.
    """
    m = as_matrix(m)
    _require_square(m, "hermitian_eig")
    scale = max(1.0, op_norm(m))
    if op_norm(m - m.conj().T) > _HERMITIAN_TOL * scale:
        raise HypothesisError("input is not Hermitian within tolerance")
    h = (m + m.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    recon = (vecs * vals) @ vecs.conj().T
    if op_norm(m - recon) > 1e-10 * scale:
        raise NumericError("eigendecomposition residual exceeds bound")
    eye = np.eye(m.shape[0])
    if op_norm(vecs.conj().T @ vecs - eye) > 1e-10:
        raise NumericError("eigenvector matrix is not orthonormal")
    return SpectralDecomposition(vals, vecs)


@dataclass(frozen=True)
class SingularValueList:
    """Descending singular values; index ``j`` is 1-based and s_j = 0 past the end."""

    values: np.ndarray

    def s(self, j: int) -> float:
        if j < 1:
            raise InputError("singular value index is 1-based")
        if j > self.values.size:
            return 0.0
        return float(self.values[j - 1])

    def __len__(self) -> int:
        return int(self.values.size)


def singular_values(m) -> SingularValueList:
    """All singular values of ``m``, non-negative and non-increasing."""
    m = as_matrix(m)
    vals = np.linalg.svd(m, compute_uv=False)
    return SingularValueList(np.maximum(vals, 0.0))


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(m)))


def _golden_max(f, lo: float, hi: float, width: float) -> float:
    """Golden-section search for a maximum of ``f`` on [lo, hi].

    Returns the best function value actually evaluated, so the result never
    overshoots the true maximum.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    best = max(f1, f2)
    while b - a > width:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        best = max(best, f1, f2)
    return best


def numerical_radius(m) -> float:
    """Numerical radius w(M) = max over unit x of |<Mx, x>|.

    Uses the support-function identity w(M) = max over angles of the top
    eigenvalue of Re(e^{i angle} M): a coarse grid of 64 angles followed by
    golden-section refinement (to angular width 1e-8) on the three best
    grid cells.
    """
    m = as_matrix(m)
    _require_square(m, "numerical_radius")
    if m.shape[0] == 0:
        return 0.0

    def support(theta: float) -> float:
        h = np.exp(1j * theta) * m
        h = (h + h.conj().T) / 2.0
        return float(np.linalg.eigvalsh(h)[-1])

    angles = np.arange(_NUMRAD_GRID) * (2.0 * np.pi / _NUMRAD_GRID)
    vals = np.array([support(t) for t in angles])
    best = float(vals.max())
    cell = 2.0 * np.pi / _NUMRAD_GRID
    for idx in np.argsort(vals)[-3:]:
        t0 = angles[idx]
        best = max(best, _golden_max(support, t0 - cell, t0 + cell, _NUMRAD_WIDTH))
    return best


def matrix_abs_sqrt(m) -> np.ndarray:
    """(M*M)^(1/4), the square root of the modulus |M|.

    Computed from the eigendecomposition of M*M; the result is Hermitian
    positive semidefinite and its fourth power reconstructs M*M.
    """
    m = as_matrix(m)
    g = m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(g)
    vals = np.clip(vals, 0.0, None)
    r = (vecs * vals**0.25) @ vecs.conj().T
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True)
class OperatorFlags:
    hermitian: bool
    normal: bool
    positive_semidefinite: bool
    unitary: bool


def classify(m) -> OperatorFlags:
    """Structure flags for a square matrix.

    Each flag holds when its defining residual is at most
    ``1e-8 * max(1, op_norm(m)**2)``; positive semidefiniteness additionally
    requires the smallest eigenvalue of the Hermitian part to be at least
    ``-1e-8 * max(1, op_norm(m))``.
    """
    m = as_matrix(m)
    _require_square(m, "classify")
    adj = m.conj().T
    opn = op_norm(m)
    quad = _CLASSIFY_TOL * max(1.0, opn * opn)
    hermitian = op_norm(m - adj) <= quad
    normal = op_norm(m @ adj - adj @ m) <= quad
    unitary = op_norm(adj @ m - np.eye(m.shape[0])) <= quad
    psd = False
    if hermitian and m.shape[0] > 0:
        smallest = float(np.linalg.eigvalsh((m + adj) / 2.0)[0])
        psd = smallest >= -_CLASSIFY_TOL * max(1.0, opn)
    elif hermitian:
        psd = True
    return OperatorFlags(hermitian, normal, psd, unitary)


def direct_sum(x, y) -> np.ndarray:
    """Block-diagonal direct sum of two (possibly rectangular) matrices."""
    x, y = as_matrix(x), as_matrix(y)
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=np.complex128)
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0] :, x.shape[1] :] = y
    return out
