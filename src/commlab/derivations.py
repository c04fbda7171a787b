"""Generalized derivations X -> SX - XT as lifted linear operators.

Vectorization is column-stacking throughout: vec(SX - XT) equals
(I (x) S - T^t (x) I) vec(X). Kernel and range computations use the numerical
rank of that lifted matrix with a relative, absolutely floored cutoff. S, T
and C are finite n x n complex128 arrays that ``Instance`` checked.

The lift is factored one of two ways, chosen from the input alone. When S and
T are both numerically normal, S = U diag(lam) U* and T = V diag(mu) V*, the
lift's singular values are the gaps |lam_i - mu_j| and its kernel is spanned
by the matrices u_i v_j*: two n x n eigendecompositions replace the SVD of the
n^2 x n^2 matrix (the "spectral" lift). Any other pair takes that SVD (the
"kronecker" lift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from commlab.core import (
    HypothesisError,
    InputError,
    classify,
    hs_norm,
    op_norm,
)

__all__ = [
    "SylvesterOperator",
    "lift_derivation",
    "kernel_basis",
    "check_fp_pair",
    "check_reduction",
    "min_distance_hs",
    "orthogonality_probe_opnorm",
]

_KERNEL_REL_CUTOFF = 1e-8
_RANGE_REL_CUTOFF = 1e-10
_FP_REL_TOL = 1e-7
_LIFT_MAX_BYTES = 256 * 2**20  # one n^2 x n^2 complex lift; n = 64 is the largest that fits
# S = A + iC is diagonalized through the Hermitian A + _GAMMA C. A weight with
# no simple rational form keeps distinct eigenvalues of typical inputs from
# meeting under lam -> Re lam + _GAMMA Im lam. A pair that does meet fails the
# residual check and gets one refinement step under a second such weight,
# which parts it; a side that still fails takes the Kronecker lift.
_GAMMA = np.pi / 7
_REFINE_GAMMA = np.e / 5
_EIGEN_REL_RESIDUAL = 1e-12
# The probe's Schatten exponents, taken in turn, and the step lengths of its
# line searches in units of |R| / |delta G|_2 (see orthogonality_probe_opnorm).
_PROBE_EXPONENTS = (2, 4, 8, 16, 32, 64)
_PROBE_STEPS = 2.0 ** np.arange(-30, 3)


@dataclass(frozen=True)
class SylvesterOperator:
    """The map X -> SX - XT, with the numerical null space of its lift.

    ``lift`` names the factorization used, "spectral" or "kronecker" (see the
    module docstring); singular values at or below ``cutoff`` (see
    ``_cutoff``; 0 when all are 0) count as zero. ``_kernel`` holds an
    HS-orthonormal basis of the null space, ``_cokernel`` one of the
    orthogonal complement of the range, each as a read-only (k, n, n) stack
    (the spectral lift shares one stack between them).
    """

    S: np.ndarray
    T: np.ndarray
    cutoff: float
    lift: str
    _kernel: np.ndarray
    _cokernel: np.ndarray

    def __post_init__(self):
        # kernel_basis hands out the kernel stack itself
        self._kernel.flags.writeable = False
        self._cokernel.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.S @ x - x @ self.T


def _hermitian_part(m: np.ndarray, gamma: float) -> np.ndarray:
    """A + gamma C for M = A + iC."""
    w = (1 - 1j * gamma) / 2 * m
    return w + w.conj().T


def _checked_basis(s: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(U, lam) with lam the diagonal of U*SU, or None unless SU = U diag(lam) to the residual test."""
    su = s @ u
    lam = np.einsum("ij,ij->j", u.conj(), su)
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    residual = np.linalg.norm((su - u * lam) / scale) if scale < np.inf else np.inf
    if not residual <= _EIGEN_REL_RESIDUAL * np.sqrt(len(lam)):
        return None
    return u, lam


def _eigenbasis(s: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(U, lam) with S U = U diag(lam) for unitary U, or None.

    U is the eigenbasis of the Hermitian A + gamma C for S = A + iC, and lam
    the diagonal of U*SU. None unless |SU - U diag(lam)|_2 <= 1e-12 sqrt(n)
    max(1, max |lam_i|), which allows each of the n columns a residual of
    1e-12 |S| (|S| = max |lam_i| for normal S). The residual is scaled by
    max(1, max |lam_i|) before its norm squares it, so a large S cannot
    overflow there. When that test fails, U is refined once by the eigenbasis
    Q of the same form for the nearly diagonal U*SU, with the weight
    _REFINE_GAMMA, and U Q is tested the same way. This rejects a non-normal
    S, a normal S with distinct eigenvalues that meet under gamma and others
    that meet under _REFINE_GAMMA, and an S too large for a finite scale.
    """
    u = np.linalg.eigh(_hermitian_part(s, _GAMMA))[1]
    found = _checked_basis(s, u)
    if found is None:
        with np.errstate(over="ignore", invalid="ignore"):  # a U*SU too large for floats stays rejected
            h = _hermitian_part(u.conj().T @ s @ u, _REFINE_GAMMA)
        if np.isfinite(h).all():
            found = _checked_basis(s, u @ np.linalg.eigh(h)[1])
    return found


def _cutoff(smax: float, *parts: np.ndarray) -> float:
    """1e-8 smax, floored against rounding at 1e-12 max(1, sum of each part's largest |entry|)."""
    scale = sum(float(np.abs(p).max(initial=0.0)) for p in parts)  # squares nothing: no overflow
    return min(smax, max(_KERNEL_REL_CUTOFF * smax, 1e-12 * max(1.0, scale)))


def _kronecker_lift(s: np.ndarray, t: np.ndarray) -> SylvesterOperator:
    """The lift's null space and range complement from its SVD."""
    n = s.shape[0]
    eye = np.eye(n)
    u, svals, vh = np.linalg.svd(np.kron(eye, s) - np.kron(t.T, eye))
    cutoff = _cutoff(float(svals[0]) if svals.size else 0.0, s, t)
    null = svals <= cutoff
    # a C-order reshape of a column-stacked vec gives the transposed matrix
    kernel = vh[null].conj().reshape(-1, n, n).transpose(0, 2, 1)
    cokernel = u[:, null].T.reshape(-1, n, n).transpose(0, 2, 1)
    return SylvesterOperator(s, t, cutoff, "kronecker", kernel, cokernel)


def lift_derivation(s: np.ndarray, t: np.ndarray) -> SylvesterOperator:
    """Factor the lift of X -> SX - XT (column-stacking vec) and find its
    numerical kernel.

    The spectral lift runs when ``_eigenbasis`` accepts both S and T (T is
    factored only when it differs from S); otherwise the n^2 x n^2 lift is
    built and its SVD taken. The cutoff is ``_cutoff`` of the largest singular
    value, floored by lam and mu (by S and T on the Kronecker lift); the kernel
    is u_i v_j* for each (i, j) with |lam_i - mu_j| <= cutoff, in row-major
    (i, j) order, or on the Kronecker lift comes in the SVD's order.

    n > 64 raises InputError before anything is allocated: the lift takes
    16 n^4 bytes, and so does the kernel of a scalar pair on either path.
    """
    n = s.shape[0]
    if 16 * n**4 > _LIFT_MAX_BYTES:
        raise InputError(f"dim {n} needs a {16 * n**4 / 2**20:.0f} MiB lift; the limit is n <= 64")
    left = _eigenbasis(s)
    right = left if left is None or np.array_equal(s, t) else _eigenbasis(t)
    if right is None:
        return _kronecker_lift(s, t)
    (u, lam), (v, mu) = left, right
    gaps = np.abs(lam[:, None] - mu[None, :])
    cutoff = _cutoff(float(gaps.max(initial=0.0)), lam, mu)
    i, j = np.nonzero(gaps <= cutoff)
    kernel = u.T[i][:, :, None] * v.T.conj()[j][:, None, :]
    # the lift is normal here, so its range complement is its kernel
    return SylvesterOperator(s, t, cutoff, "spectral", kernel, kernel)


def kernel_basis(op: SylvesterOperator) -> np.ndarray:
    """HS-orthonormal basis of the numerical null space of the lifted map, as
    the read-only (k, n, n) stack ``lift_derivation`` stored, in the order it
    documents.

    Every direction qualifies when every singular value is 0. An empty stack
    (k = 0) is a valid result.
    """
    return op._kernel


def check_fp_pair(s: np.ndarray, t: np.ndarray) -> dict:
    """Check the adjoint-intertwining property of the pair (S, T): the fields
    of ``commlab fp``'s report.

    For every kernel basis element C the residual |S*C - CT*|_2 is computed;
    the property ``holds`` when the worst residual is at most
    1e-7 * max(1, |S| + |T|). An empty kernel passes vacuously. Each entry of
    ``reductions`` is C's |SC - CT|_2 as ``kernel_residual`` with
    ``check_reduction(S, C)``. Every kernel residual is taken first, then the
    adjoint residuals, |S| and |T|, and the reductions: the first float
    overflow, whose message names its operation, depends on this order.
    """
    op = lift_derivation(s, t)
    kernel = kernel_basis(op)
    kernel_residuals = [hs_norm(op.apply(c)) for c in kernel]
    residuals = [hs_norm(s.conj().T @ c - c @ t.conj().T) for c in kernel]
    worst = max(residuals, default=0.0)
    tol = _FP_REL_TOL * max(1.0, op_norm(s) + op_norm(t))
    return {
        "holds": worst <= tol,
        "kernel_dimension": len(kernel),
        "lift": op.lift,  # the lift that found the kernel: "spectral" or "kronecker"
        "worst_adjoint_residual": worst,
        "adjoint_residuals": residuals,
        "reductions": [
            {"kernel_residual": r, **check_reduction(s, c)} for r, c in zip(kernel_residuals, kernel)
        ],
    }


def check_reduction(s: np.ndarray, c: np.ndarray) -> dict:
    """Does the range of C reduce S, and is S restricted to it normal?

    Q spans range(C) (left singular vectors with sigma > 1e-10 * sigma_max).
    Reduction holds when both off-corner compressions (I-QQ*)SQ and
    QQ*S(I-QQ*) vanish within 1e-8 * max(1, |S|). C = 0 passes vacuously.
    Returns ``range_reduces``, ``restriction_normal`` and the three
    ``residuals``.
    """
    n = s.shape[0]
    u, svals, _ = np.linalg.svd(c)
    smax = float(svals[0]) if svals.size else 0.0
    q = u[:, svals > _RANGE_REL_CUTOFF * smax]
    proj = q @ q.conj().T
    comp = np.eye(n) - proj
    r_inv = op_norm(comp @ s @ q)
    r_coinv = op_norm(proj @ s @ comp)
    tol = 1e-8 * max(1.0, op_norm(s))
    restriction = q.conj().T @ s @ q
    r_norm = op_norm(restriction @ restriction.conj().T - restriction.conj().T @ restriction)
    return {
        "range_reduces": r_inv <= tol and r_coinv <= tol,
        "restriction_normal": classify(restriction).normal,
        "residuals": {"invariance": r_inv, "co_invariance": r_coinv, "normality": r_norm},
    }


def min_distance_hs(op: SylvesterOperator, c: np.ndarray) -> float:
    """Exact min over X of |SX - XT + C|_2 at the numerical rank of the lift.

    ``op`` is the lift of (S, T) from ``lift_derivation``, and C is n x n
    like S. Computed as the norm of the projection of C onto the orthogonal
    complement of the lift's range: on the spectral lift,
    sqrt(sum |(U*CV)_ij|^2) over the kernel's (i, j). Always in [0, |C|_2]
    since X = 0 is admissible.
    """
    return float(np.linalg.norm(np.tensordot(op._cokernel, c.conj(), axes=2)))


def orthogonality_probe_opnorm(op: SylvesterOperator, c: np.ndarray) -> dict:
    """Search for X making |SX - XT + C| smaller than |C| in operator norm.

    ``op`` is the lift of (S, T) from ``lift_derivation``. A falsifier, not a
    certified minimizer: one deterministic descent from X = 0 on the convex
    X -> |R|, R = SX - XT + C = U diag(s) V*. For each p in 2, 4, ..., 64 it
    steps along -G, G = delta*(U diag((s/s_1)^(p-1)) V*) (the gradient of
    the Schatten p-norm up to scale, delta* Y = S*Y - YT*), trying the 33
    step lengths 2^k s_1 / |delta G|_2, k = -30..2, in one batched SVD, and
    moves to the best while that lowers the p-norm by at least 0.1%.
    Returns the probe's fields of ``commlab ortho``'s report:
    ``probe_min_found`` is the least |R| over every R evaluated,
    ``probe_evaluations`` their number; an R with |R| <= 1e-8 |C|, 0
    included, ends the search. ``probe_verdict`` is "consistent" when nothing
    beats |C| - 1e-6, else "violation-candidate". C must lie in the kernel of
    the derivation: |SC - CT|_2 <= max(op.cutoff, 1e-12).
    """
    if hs_norm(op.apply(c)) > max(op.cutoff, 1e-12):
        raise HypothesisError("C is not in the kernel of the derivation")
    r = c
    c_norm = best = op_norm(c)
    evals = 1
    for p in _PROBE_EXPONENTS:
        while best > 1e-8 * c_norm:
            u, sv, vh = np.linalg.svd(r)  # sv[0] >= best > 0
            w = (u * (sv / sv[0]) ** (p - 1)) @ vh
            d = op.apply(op.S.conj().T @ w - w @ op.T.conj().T)  # delta G
            d_norm = np.linalg.norm(d)
            if d_norm == 0.0:
                break
            trial = r - (_PROBE_STEPS * sv[0] / d_norm)[:, None, None] * d
            tsv = np.linalg.svd(trial, compute_uv=False)  # each below 5 sv[0]
            evals += len(tsv)
            best = min(best, float(tsv[:, 0].min()))
            pnorms = np.sum((tsv / sv[0]) ** p, axis=1) ** (1.0 / p)  # in units of sv[0]
            k = int(np.argmin(pnorms))
            if not pnorms[k] < 0.999 * np.sum((sv / sv[0]) ** p) ** (1.0 / p):
                break
            r = trial[k]
    verdict = "consistent" if best >= c_norm - 1e-6 else "violation-candidate"
    return {"probe_evaluations": evals, "probe_min_found": best, "probe_verdict": verdict}
