"""Dense complex-matrix primitives: norms, spectra, and structure tests.

Functions take finite 2-d ``complex128`` arrays, square where the operation
needs it, and check none of that: ``commlab.instances.Instance`` checks each
matrix once, and every array below it is a field or a product of fields.
Every function is pure; inputs are never mutated. Comparisons follow one
tolerance policy: a residual passes when it is at most ``tol * max(1, scale)``
for a scale natural to the quantity being tested.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "HypothesisError",
    "InputError",
    "overflow_is_hypothesis_error",
    "commutator",
    "self_commutator",
    "cartesian_decomposition",
    "hermitian_eig",
    "op_norm",
    "hs_norm",
    "numerical_radius",
    "numerical_radius_bracket",
    "matrix_abs_sqrt",
    "OperatorFlags",
    "classify",
]


_NUMRAD_GRID = 64  # numerical_radius: grid angles, from one batched eigensolve over half,
_NUMRAD_SUB = 4  # subdivided this many times over the best cells,
_NUMRAD_WIDTH = 1e-8  # and refined no further than an interval this narrow
_CLASSIFY_TOL = 1e-8  # classify's relative residual tolerance


class HypothesisError(ValueError):
    """An input violates a precondition of the requested operation."""


class InputError(ValueError):
    """A request references unknown, missing, or malformed data."""


@contextmanager
def overflow_is_hypothesis_error():
    """Within the block, float overflow raises HypothesisError, not a warning,
    and so does an SVD or eigensolver that does not converge.

    Inputs are checked finite on entry, so an overflow in numpy or in Python
    float arithmetic (``x ** 2``), or an invalid operation such as inf - inf
    that follows one, means the entries are too large for float arithmetic:
    a hypothesis of the computation fails. An SVD or eigensolver that gives
    up on finite input (``np.linalg.LinAlgError``, as on entries that span
    1e300 to 3) fails it too.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError, np.linalg.LinAlgError) as exc:
        raise HypothesisError(f"entries too large for float arithmetic ({exc})") from None


def commutator(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ST - TS."""
    return s @ t - t @ s


def self_commutator(s: np.ndarray) -> np.ndarray:
    """S*S - SS*."""
    return s.conj().T @ s - s @ s.conj().T


def cartesian_decomposition(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a square S into Hermitian parts (A, C) with S = A + iC.

    A = (S + S*)/2 and C = (S - S*)/(2i); both are Hermitian by
    construction and A + iC reproduces S up to rounding.
    """
    sh = s.conj().T
    a = (s + sh) / 2.0
    c = (s - sh) / 2.0j
    return a, c


def hermitian_eig(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part (M + M*)/2, real and descending.

    For a Hermitian M these are its eigenvalues; whether M is Hermitian is
    ``classify``'s question. Should the eigensolver not converge, its
    LinAlgError passes through, as from every SVD and eigensolver call here,
    to ``overflow_is_hypothesis_error``.
    """
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)[::-1]


def op_norm(m: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(m))


def _radius_grid(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M's Cartesian parts (A, C) and h on the 64 grid angles (none for an empty M)."""
    a, c = cartesian_decomposition(m)
    angles = np.linspace(0.0, np.pi, _NUMRAD_GRID // 2, endpoint=False)
    stack = np.cos(angles)[:, None, None] * a - np.sin(angles)[:, None, None] * c
    # H(t + pi) = -H(t), so the top eigenvalue at t + pi is minus the bottom one at t
    ev = np.linalg.eigvalsh(stack)
    return a, c, np.concatenate([ev[:, -1], -ev[:, 0]]) if m.size else np.zeros(0)


def numerical_radius_bracket(m: np.ndarray) -> tuple[float, float]:
    """(lo, hi) around numerical_radius(m), from its grid alone: lo is the grid's
    largest h, where ``numerical_radius`` starts, and h is the support function of
    the convex W(M), so a point of W(M) of modulus R has R cos(pi/64) <= lo. The
    1e-12 relative slack covers eigensolver rounding, about 1e-15 of the largest |h|."""
    vals = _radius_grid(m)[2]
    if not vals.size:
        return 0.0, 0.0
    lo = float(vals.max())
    return lo, float(lo / np.cos(np.pi / _NUMRAD_GRID) + 1e-12 * np.abs(vals).max())


def numerical_radius(m: np.ndarray) -> float:
    """Numerical radius w(M) = max over unit x of |<Mx, x>|.

    w(M) is the largest h(t), the top eigenvalue of H(t) = cos t A - sin t C
    (M = A + iC), taken on 64 angles from one batched eigensolve over the 32
    in [0, pi) (h(t + pi) is minus the bottom eigenvalue of H(t)) and, with
    h' = v*H'v, at a quarter of that spacing around the three best angles in
    another. h has upward kinks where eigenvalues cross, so every interval
    whose end slope points into it is refined: by steps to the peak of h's
    osculating circle there (exact for normal M, Newton-fast otherwise), or by
    bisection of a + to - bracket they miss, to a step of 1e-13 or a width of
    1e-8. Returns the largest h evaluated, so it never overshoots w(M). The
    grid alone also bounds w(M) from above, by 1/cos(pi/64), about 1.0012,
    times its largest h (``numerical_radius_bracket``); a certificate of
    w(M) itself is still open.
    """
    a, c, vals = _radius_grid(m)
    if not vals.size:
        return 0.0

    def probe(theta):
        """h, h' and the step to the peak of h's local model, at each angle in ``theta``."""
        cos, sin = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
        lam, v = np.linalg.eigh(cos * a - sin * c)
        q = (v.conj().swapaxes(-1, -2) @ ((sin * a + cos * c) @ v[..., -1:]))[..., 0]
        h, d, gaps = lam[..., -1], -q[..., -1].real, lam[..., -1:] - lam[..., :-1]
        simple = gaps > tiny
        # -h'' = h - 2 sum_k |q_k|^2 / gap_k, whose |q_k|^2 overflows for |M| above about 1e154
        curve = np.sum(np.abs(q[..., :-1] / np.sqrt(np.where(simple, gaps, 1.0))) ** 2, axis=-1)
        step = np.arctan2(d, np.where(simple.all(axis=-1), h - 2.0 * curve, h))
        return h.tolist(), d.tolist(), step.tolist()

    cell = np.pi / (_NUMRAD_GRID // 2)
    scale = float(np.abs(vals).max())
    tiny, flat = 1e-8 * scale, 1e-13 * scale  # a multiple top eigenvalue; |h'| at rounding level
    sub, n_sub = cell / _NUMRAD_SUB, _NUMRAD_SUB * _NUMRAD_GRID
    tops = [_NUMRAD_SUB * k for k in np.argsort(vals)[-3:].tolist()]
    # sets, not np.unique, whose first call adds about 1.5 MB of resident memory
    cells = sorted({(k + i) % n_sub for k in tops for i in range(-_NUMRAD_SUB, _NUMRAD_SUB)})
    ends = sorted(set(cells) | {(k + 1) % n_sub for k in cells})
    hs, ds, steps = probe(np.array(ends) * sub)
    best = max(float(vals.max()), *hs)
    at = dict(zip(ends, zip(ds, steps)))
    work = [((k * sub, *at[k]), ((k + 1) * sub, *at[(k + 1) % n_sub])) for k in cells]
    evaluations = 0
    while work and evaluations < 100:  # bisection alone narrows a sub-cell to the width in 22
        (t_lo, d_lo, s_lo), (t_hi, d_hi, s_hi) = lo, hi = work.pop()
        if d_lo > flat and t_lo < t_lo + s_lo < t_hi:
            t = t_lo + s_lo
        elif d_hi < -flat and t_lo < t_hi + s_hi < t_hi:
            t = t_hi + s_hi
        elif d_lo > flat > -flat > d_hi:
            t = (t_lo + t_hi) / 2.0
        else:
            continue
        if min(t - t_lo, t_hi - t) <= 1e-13 or t_hi - t_lo <= _NUMRAD_WIDTH:
            continue
        (h,), (d,), (step,) = probe(np.array([t]))
        best, evaluations = max(best, h), evaluations + 1
        work += [(lo, (t, d, step)), ((t, d, step), hi)]
    return best


def matrix_abs_sqrt(m: np.ndarray) -> np.ndarray:
    """(M*M)^(1/4), the square root of the modulus |M|.

    Computed from the eigendecomposition of M*M; the result is Hermitian
    positive semidefinite and its fourth power reconstructs M*M.
    """
    g = m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(g)
    vals = np.clip(vals, 0.0, None)
    r = (vecs * vals**0.25) @ vecs.conj().T
    return (r + r.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class OperatorFlags:
    """Structure flags of a square matrix, each computed when first read.

    Each flag holds when its defining residual is at most
    ``1e-8 * max(1, op_norm(m)**2)``; positive semidefiniteness additionally
    requires the smallest eigenvalue of the Hermitian part to be at least
    ``-1e-8 * max(1, op_norm(m))``.
    """

    matrix: np.ndarray = field(repr=False)  # classify's read-only copy of m
    norm: float  # op_norm(matrix)

    @cached_property
    def hermitian(self) -> bool:
        m = self.matrix
        return op_norm(m - m.conj().T) <= _CLASSIFY_TOL * max(1.0, self.norm * self.norm)

    @cached_property
    def normal(self) -> bool:
        m, adj = self.matrix, self.matrix.conj().T
        return op_norm(m @ adj - adj @ m) <= _CLASSIFY_TOL * max(1.0, self.norm * self.norm)

    @cached_property
    def positive_semidefinite(self) -> bool:
        bound = -_CLASSIFY_TOL * max(1.0, self.norm)
        return self.hermitian and bool(hermitian_eig(self.matrix).min(initial=np.inf) >= bound)


def classify(m: np.ndarray) -> OperatorFlags:
    """Structure flags of a square matrix, read off a copy of it; see ``OperatorFlags``."""
    m = m.copy()
    m.flags.writeable = False
    return OperatorFlags(m, op_norm(m))
