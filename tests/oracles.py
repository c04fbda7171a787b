"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the sampling
numerical-radius oracle maximizes over unit vectors with matrix-vector products
only (no eigensolver), the golden-section one takes one eigensolve per angle,
the random matrices come straight from numpy generators, the eager search
evaluates every candidate in full, hypotheses first, and the sequential move
perturbs one factor and one matrix at a time.
"""

from __future__ import annotations

import numpy as np

from commlab.catalog import evaluate, get_entry
from commlab.instances import (
    CartesianFactor,
    CommutingPairFactor,
    FixedFactor,
    GinibreFactor,
    NormalFactor,
    UnitaryFactor,
    VectorFactor,
    derive_seed,
    instance_to_json,
    make_instance,
    perturb,
)


def random_matrix(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def random_normal_matrix(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """U diag(z) U* for Haar-ish U and complex z, normal by construction."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    eigs = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return (q * eigs) @ q.conj().T


def sampling_radius(m: np.ndarray, budget: int = 100_000, seed: int = 0, restarts: int = 400) -> float:
    """Max of |x* M x| over unit vectors within a fixed evaluation budget.

    Random restarts refined by alternating phase alignment with shifted
    power steps; every iterate is a unit vector and only matrix-vector
    products are used.
    """
    rng = np.random.default_rng(seed)
    n = m.shape[0]
    iters = max(budget // restarts - 1, 1)
    x = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    shift = float(np.linalg.norm(m))
    mh = m.conj().T
    best = 0.0
    for _ in range(iters):
        mx = x @ m.T
        mhx = x @ mh.T
        q = np.einsum("ki,ki->k", x.conj(), mx)
        best = max(best, float(np.abs(q).max()))
        mag = np.abs(q)
        phase = np.where(mag > 0, np.conj(q) / np.where(mag > 0, mag, 1.0), 1.0)
        y = 0.5 * (phase[:, None] * mx + np.conj(phase)[:, None] * mhx) + shift * x
        x = y / np.linalg.norm(y, axis=1, keepdims=True)
    q = np.einsum("ki,ij,kj->k", x.conj(), m, x)
    return max(best, float(np.abs(q).max()))


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


def golden_section_radius(m: np.ndarray) -> float:
    """Numerical radius by a 64-angle grid and golden-section refinement.

    The earlier implementation of ``core.numerical_radius``, kept verbatim to
    pin that the batched-grid Newton version computes the same values: the top
    eigenvalue of Re(e^{i angle} M), one ``eigvalsh`` per angle, maximized by
    golden-section search (to angular width 1e-8) on the three best grid cells.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[0] == 0:
        return 0.0

    def support(theta: float) -> float:
        h = np.exp(1j * theta) * m
        h = (h + h.conj().T) / 2.0
        return float(np.linalg.eigvalsh(h)[-1])

    angles = np.arange(64) * (2.0 * np.pi / 64)
    vals = np.array([support(t) for t in angles])
    best = float(vals.max())
    cell = 2.0 * np.pi / 64
    for idx in np.argsort(vals)[-3:]:
        t0 = angles[idx]
        best = max(best, _golden_max(support, t0 - cell, t0 + cell, 1e-8))
    return best


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=np.complex128).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix whose column-stacked vec is ``v``."""
    return np.asarray(v, dtype=np.complex128).reshape((n, n), order="F")


def eager_flags(m: np.ndarray) -> tuple[bool, bool, bool]:
    """(hermitian, normal, positive_semidefinite) of a square matrix, all computed up front.

    Each residual is taken against 1e-8 max(1, |M|^2), and the smallest
    eigenvalue of the Hermitian part against -1e-8 max(1, |M|), as
    ``core.classify`` defines them.
    """
    m = np.asarray(m, dtype=np.complex128)

    def top(a):
        return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0

    adj = m.conj().T
    opn = top(m)
    quad = 1e-8 * max(1.0, opn * opn)
    hermitian = top(m - adj) <= quad
    normal = top(m @ adj - adj @ m) <= quad
    if not hermitian or m.shape[0] == 0:
        return hermitian, normal, hermitian
    smallest = float(np.linalg.eigvalsh((m + adj) / 2.0)[0])
    return hermitian, normal, smallest >= -1e-8 * max(1.0, opn)


def direct_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of two (possibly rectangular) matrices."""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=np.complex128)
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0] :, x.shape[1] :] = y
    return out


def kron_lift(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The matrix of X -> SX - XT on column-stacked vec(X), by Kronecker products."""
    n = s.shape[0]
    return np.kron(np.eye(n), s) - np.kron(t.T, np.eye(n))


def brute_min_distance_hs(s: np.ndarray, t: np.ndarray, c: np.ndarray) -> float:
    """Least-squares residual of min over X of |SX - XT + C|_F via lstsq."""
    lifted = kron_lift(s, t)
    cv = c.flatten(order="F")
    x, *_ = np.linalg.lstsq(lifted, -cv, rcond=1e-8)
    return float(np.linalg.norm(lifted @ x + cv))


def sequential_perturb(inst, scale: float, seed: int) -> dict:
    """The arrays of ``perturb(inst, scale, seed)`` by name (S, T and any of X,
    Y, x), computed as ``perturb`` was first written: one generator read
    factor by factor in name order, and one ``eigh`` per unitary step."""
    rng = np.random.default_rng(derive_seed(seed, 0x9E27))

    def gaussian(n):
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)

    def band(values, lo_hi, pins):
        lo, hi = lo_hi
        out = np.clip(values + rng.uniform(-scale, scale, size=values.shape), lo, hi)
        out[pins[0]], out[pins[1]] = lo, hi
        return out

    def banded(f):
        """f's parts, moved row by row, and its stepped basis."""
        pins = f.pins.reshape(-1, 2) % f.u.shape[0]  # each row's endpoint positions
        parts = [band(v, lo_hi, p) for v, lo_hi, p in zip(f.parts, f.bands, pins)]
        return parts, stepped(f.u)

    def stepped(u):
        g = gaussian(u.shape[0])
        vals, vecs = np.linalg.eigh(-0.5j * (g - g.conj().T))
        nk = np.max(np.abs(vals))
        if nk > scale:
            vals *= scale / nk
        return u @ ((vecs * np.exp(1j * vals)) @ vecs.conj().T)

    def normal(f):
        (re, im), u = banded(f)
        return (u * (re + 1j * im)) @ u.conj().T

    out = {}
    for name, f in sorted(inst.internals.items()):
        if isinstance(f, NormalFactor):
            out[name] = normal(f)
        elif isinstance(f, CartesianFactor):
            im = normal(f.im)  # the imaginary part draws first
            out[name] = normal(f.re) + 1j * im
        elif isinstance(f, CommutingPairFactor):
            (a, c, b, d), u = banded(f)
            out["S"], out["T"] = (u * (a + 1j * c)) @ u.conj().T, (u * (b + 1j * d)) @ u.conj().T
        elif isinstance(f, GinibreFactor):
            out[name] = f.z + scale * gaussian(f.z.shape[0])
        elif isinstance(f, UnitaryFactor):
            out[name] = stepped(f.u)
        elif isinstance(f, FixedFactor):
            out[name] = f.m
        else:
            assert isinstance(f, VectorFactor)
            n = f.v.shape[0]
            v = f.v + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            out[name] = v / np.linalg.norm(v)
    out.setdefault("T", out["S"])  # a tied pair moves S alone
    return out


def eager_maximize_ratio(
    entry_id: str, dim: int, iterations: int, restarts: int, master_seed: int = 0, recipe: str | None = None
):
    """``search.maximize_ratio`` as first written, with its keep rule (gain over
    1e-12 relative) and its ranking of restarts (applicable ones first, then by
    objective, then fingerprint): a full ``evaluate`` of every candidate,
    hypotheses before the objective.

    Returns the ``commlab search`` artifact it finds, built here field by
    field, and its counts of work done; its ``validated`` counts every
    candidate, since each one's hypotheses are checked, and it screens none.
    """
    entry = get_entry(entry_id)

    def objective(report):
        if entry.direction == "eq":
            return "margin", -report.margin
        if entry.direction == "ge":
            if report.lhs >= 1e-9:
                return "ratio", report.rhs / report.lhs
            return "margin", report.rhs - report.lhs
        if report.rhs >= 1e-9:
            return "ratio", report.lhs / report.rhs
        return "margin", report.lhs - report.rhs

    best = None
    accepted = 0
    for restart in range(restarts):
        inst = make_instance(entry.recipe_for(recipe, dim), derive_seed(master_seed, restart))
        report = evaluate(entry, inst)
        kind, obj = objective(report)
        step, stagnation, trace = 0.2, 0, [(0, obj)]
        for it in range(1, iterations + 1):
            cand = perturb(inst, step, derive_seed(master_seed, restart, it))
            cand_report = evaluate(entry, cand)
            if cand_report.hypothesis_violations:
                accept = False
            else:
                cand_kind, cand_obj = objective(cand_report)
                accept = cand_kind == kind and cand_obj > obj + 1e-12 * max(1.0, abs(obj))
            if accept:
                inst, report, obj = cand, cand_report, cand_obj
                accepted += 1
                stagnation = 0
            else:
                stagnation += 1
                if stagnation >= 50:
                    step, stagnation = max(step / 2.0, 1e-6), 0
            if it % 50 == 0:
                trace.append((it, obj))
        # applicable: the start satisfies the hypotheses, or a kept move, which does
        rank, key = (not report.hypothesis_violations, obj), (inst.recipe, inst.dim, inst.seed)
        if best is None or rank > best[0] or (rank == best[0] and key < best[1]):
            best = (rank, key, inst, report, kind, tuple(trace))
    (_, obj), _, inst, report, kind, trace = best
    artifact = {
        "entry": entry.id, "dim": dim, "iterations": iterations, "restarts": restarts,
        "master_seed": master_seed, "objective_kind": kind, "best_objective": obj,
        "best_fingerprint": inst.fingerprint(), "best_report": report.to_json(),
        "best_instance": instance_to_json(inst), "trace": [list(p) for p in trace],
    }
    counts = {
        "candidates": restarts * iterations, "screened": 0, "accepted": accepted,
        "validated": restarts * iterations,
    }
    return artifact, counts
