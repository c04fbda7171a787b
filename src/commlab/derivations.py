"""Generalized derivations X -> SX - XT as lifted linear operators.

Vectorization is column-stacking throughout: vec(SX - XT) equals
(I (x) S - T^t (x) I) vec(X). Kernel and range computations use the numerical
rank of the lifted matrix with a relative singular-value cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from commlab.core import (
    HypothesisError,
    InputError,
    NumericError,
    ShapeError,
    as_matrix,
    classify,
    hs_norm,
    op_norm,
)
from commlab.instances import derive_seed

__all__ = [
    "vec",
    "unvec",
    "SylvesterOperator",
    "lift_derivation",
    "KernelElement",
    "kernel_basis",
    "FPReport",
    "check_fp_pair",
    "ReductionReport",
    "check_reduction",
    "min_distance_hs",
    "ProbeResult",
    "orthogonality_probe_opnorm",
    "BlockEmbedding",
    "block_embedding",
]

_KERNEL_REL_CUTOFF = 1e-8
_RANGE_REL_CUTOFF = 1e-10
_FP_REL_TOL = 1e-7
_LIFT_MAX_BYTES = 256 * 2**20  # one n^2 x n^2 complex lift; n = 64 is the largest that fits


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_matrix(m).flatten(order="F")

def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=np.complex128).reshape((n, n), order="F")


@dataclass(frozen=True)
class SylvesterOperator:
    """The map X -> SX - XT as an n^2 x n^2 matrix over vec(X)."""

    S: np.ndarray
    T: np.ndarray
    lifted: np.ndarray

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.S @ x - x @ self.T


def _check_pair(s, t) -> tuple[np.ndarray, np.ndarray]:
    s, t = as_matrix(s), as_matrix(t)
    if s.shape[0] != s.shape[1] or t.shape[0] != t.shape[1]:
        raise ShapeError("S and T must be square")
    if s.shape != t.shape:
        raise ShapeError(f"S and T must have equal size, got {s.shape} vs {t.shape}")
    return s, t


def lift_derivation(s, t) -> SylvesterOperator:
    """Lift (S, T) to the matrix of X -> SX - XT under column-stacking vec.

    The construction is self-checked against 20 random X; a mismatch beyond
    1e-10 * max(1, |S| + |T|) * |X|_2 raises NumericError. A lift larger
    than 256 MiB (n > 64) raises InputError before anything is allocated.
    """
    s, t = _check_pair(s, t)
    n = s.shape[0]
    if 16 * n**4 > _LIFT_MAX_BYTES:
        raise InputError(f"dim {n} needs a {16 * n**4 / 2**20:.0f} MiB lift; the limit is n <= 64")
    eye = np.eye(n)
    lifted = np.kron(eye, s) - np.kron(t.T, eye)
    bound = 1e-10 * max(1.0, op_norm(s) + op_norm(t))
    rng = np.random.default_rng(derive_seed(0xC0FFEE))
    for _ in range(20):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        resid = np.linalg.norm(lifted @ vec(x) - vec(s @ x - x @ t))
        if resid > bound * max(hs_norm(x), 1e-300):
            raise NumericError("lifted operator disagrees with direct evaluation")
    return SylvesterOperator(S=s, T=t, lifted=lifted)


@dataclass(frozen=True)
class KernelElement:
    """A matrix C with SC - CT numerically zero; residual = |SC - CT|_2."""

    C: np.ndarray
    residual: float


def kernel_basis(op: SylvesterOperator) -> list[KernelElement]:
    """HS-orthonormal basis of the numerical null space of the lifted map.

    Right singular vectors with sigma <= 1e-8 * sigma_max qualify; all of
    them do when sigma_max = 0. The empty list is a valid result.
    """
    _, svals, vh = np.linalg.svd(op.lifted)
    smax = float(svals[0]) if svals.size else 0.0
    cutoff = _KERNEL_REL_CUTOFF * smax
    out = []
    for k in range(svals.size):
        if svals[k] <= cutoff:
            c = unvec(vh[k].conj(), op.dim)
            out.append(KernelElement(C=c, residual=hs_norm(op.apply(c))))
    return out


@dataclass(frozen=True)
class FPReport:
    """Does SC = CT force S*C = CT* on the computed kernel?"""

    holds: bool
    kernel_dimension: int
    adjoint_residuals: tuple[float, ...]
    worst_residual: float
    kernel: tuple[KernelElement, ...]


def check_fp_pair(s, t) -> FPReport:
    """Check the adjoint-intertwining property of the pair (S, T).

    For every kernel basis element C the residual |S*C - CT*|_2 is computed;
    the property holds when the worst residual is at most
    1e-7 * max(1, |S| + |T|). An empty kernel passes vacuously.
    """
    s, t = _check_pair(s, t)
    basis = kernel_basis(lift_derivation(s, t))
    residuals = tuple(hs_norm(s.conj().T @ e.C - e.C @ t.conj().T) for e in basis)
    worst = max(residuals, default=0.0)
    tol = _FP_REL_TOL * max(1.0, op_norm(s) + op_norm(t))
    return FPReport(
        holds=worst <= tol,
        kernel_dimension=len(basis),
        adjoint_residuals=residuals,
        worst_residual=worst,
        kernel=tuple(basis),
    )


@dataclass(frozen=True)
class ReductionReport:
    range_reduces: bool
    restriction_normal: bool
    residuals: dict


def check_reduction(s, c) -> ReductionReport:
    """Does the range of C reduce S, and is S restricted to it normal?

    Q spans range(C) (left singular vectors with sigma > 1e-10 * sigma_max).
    Reduction holds when both off-corner compressions (I-QQ*)SQ and
    QQ*S(I-QQ*) vanish within 1e-8 * max(1, |S|). C = 0 passes vacuously.
    """
    s, c = _check_pair(s, c)
    n = s.shape[0]
    u, svals, _ = np.linalg.svd(c)
    smax = float(svals[0]) if svals.size else 0.0
    if smax == 0.0:
        return ReductionReport(True, True, {"invariance": 0.0, "co_invariance": 0.0, "normality": 0.0})
    q = u[:, svals > _RANGE_REL_CUTOFF * smax]
    proj = q @ q.conj().T
    comp = np.eye(n) - proj
    r_inv = op_norm(comp @ s @ q)
    r_coinv = op_norm(proj @ s @ comp)
    tol = 1e-8 * max(1.0, op_norm(s))
    restriction = q.conj().T @ s @ q
    r_norm = op_norm(restriction @ restriction.conj().T - restriction.conj().T @ restriction)
    return ReductionReport(
        range_reduces=r_inv <= tol and r_coinv <= tol,
        restriction_normal=classify(restriction).normal if restriction.size else True,
        residuals={"invariance": r_inv, "co_invariance": r_coinv, "normality": r_norm},
    )


def min_distance_hs(s, t, c) -> float:
    """Exact min over X of |SX - XT + C|_2 at the numerical rank of the lift.

    Computed as the residual of projecting vec(-C) onto the column space of
    the lifted operator. Always in [0, |C|_2] since X = 0 is admissible.
    """
    s, t = _check_pair(s, t)
    c = as_matrix(c)
    if c.shape != s.shape:
        raise ShapeError("C must match S and T in size")
    op = lift_derivation(s, t)
    u, svals, _ = np.linalg.svd(op.lifted)
    smax = float(svals[0]) if svals.size else 0.0
    ur = u[:, svals > _KERNEL_REL_CUTOFF * smax]
    cv = vec(c)
    resid = cv - ur @ (ur.conj().T @ cv)
    return float(np.linalg.norm(resid))


@dataclass(frozen=True)
class ProbeResult:
    min_found: float
    verdict: str  # "consistent" | "violation-candidate"
    c_op_norm: float
    starts: int
    evaluations: int


def _coordinate_descent(f, x0: np.ndarray, step0: float, floor: float, max_sweeps: int = 200):
    """Greedy per-entry descent with step halving on stagnant sweeps."""
    x = x0.copy()
    best = f(x)
    evals = 1
    step = step0
    n = x.shape[0]
    for _ in range(max_sweeps):
        improved = False
        for i in range(n):
            for j in range(n):
                for unit in (1.0, 1j):
                    for sgn in (1.0, -1.0):
                        y = x.copy()
                        y[i, j] += sgn * unit * step
                        val = f(y)
                        evals += 1
                        if val < best:
                            best, x = val, y
                            improved = True
        if not improved:
            step *= 0.5
            if step < floor:
                break
    return best, x, evals


def orthogonality_probe_opnorm(s, t, c, trials: int = 32, seed: int = 0) -> ProbeResult:
    """Search for X making |SX - XT + C| smaller than |C| in operator norm.

    A falsifier, not a certified minimizer: random starts plus coordinate
    descent from the five best. The verdict is "consistent" when nothing
    beats |C| - 1e-6. C must lie in the kernel of the derivation.
    """
    s, t = _check_pair(s, t)
    c = as_matrix(c)
    op = lift_derivation(s, t)
    svals = np.linalg.svd(op.lifted, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    if hs_norm(op.apply(c)) > max(_KERNEL_REL_CUTOFF * smax, 1e-12):
        raise HypothesisError("C is not in the kernel of the derivation")

    def objective(x: np.ndarray) -> float:
        return op_norm(op.apply(x) + c)

    n = s.shape[0]
    scale = max(hs_norm(c), 1.0)
    rng = np.random.default_rng(derive_seed(seed, 0xD15C))
    samples = [np.zeros((n, n), dtype=np.complex128)]
    for _ in range(trials):
        samples.append(
            scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        )
    scored = sorted(((objective(x), k) for k, x in enumerate(samples)), key=lambda p: (p[0], p[1]))
    evals = len(samples)
    best = scored[0][0]
    for _, k in scored[:5]:
        val, _, used = _coordinate_descent(
            objective, samples[k], step0=0.1 * scale, floor=1e-9 * scale
        )
        evals += used
        best = min(best, val)
    c_op = op_norm(c)
    verdict = "consistent" if best >= c_op - 1e-6 else "violation-candidate"
    return ProbeResult(
        min_found=best, verdict=verdict, c_op_norm=c_op, starts=min(5, len(scored)), evaluations=evals
    )


@dataclass(frozen=True)
class BlockEmbedding:
    """2n x 2n embedding turning any pair derivation into an inner one."""

    N: np.ndarray
    M: np.ndarray
    Y: np.ndarray


def block_embedding(s, t, c, x) -> BlockEmbedding:
    """N = diag(S, T), M and Y put C and X in the upper-right corner.

    Then NY - YN + M is the 2n x 2n matrix with SX - XT + C upper-right and
    zeros elsewhere, so operator norms of the two expressions agree.
    """
    s, t = _check_pair(s, t)
    c, x = as_matrix(c), as_matrix(x)
    if c.shape != s.shape or x.shape != s.shape:
        raise ShapeError("C and X must match S and T in size")
    n = s.shape[0]
    big_n = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    big_n[:n, :n] = s
    big_n[n:, n:] = t
    big_m = np.zeros_like(big_n)
    big_m[:n, n:] = c
    big_y = np.zeros_like(big_n)
    big_y[:n, n:] = x
    combined = big_n @ big_y - big_y @ big_n + big_m
    corner = s @ x - x @ t + c
    resid = combined.copy()
    resid[:n, n:] -= corner
    if op_norm(resid) > 1e-12 * max(1.0, op_norm(corner)):
        raise NumericError("block embedding failed its corner identity")
    return BlockEmbedding(N=big_n, M=big_m, Y=big_y)
