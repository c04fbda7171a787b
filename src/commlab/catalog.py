"""The inequality catalog: named, hypothesis-gated, evaluable checks.

Each entry evaluates one printed bound to an LHS/RHS pair with a signed
margin, normalized so that "satisfied" always means
``margin >= -tol * max(1, |rhs|)``. The status says whether a bound holds as
encoded: ``commlab search --entry ID --dims 2 --iterations 200 --restarts 3
--seed 1`` (and at dim 3) violates exactly the "refuted" entries, among them
FALSE_TEST, a deliberately false control; "suspect-step" marks a bound that
survives with a questionable step in its recorded derivation. Sweeps treat
verdicts as findings, never as errors.

An entry is one ``CatalogEntry``: its formula is a field, and its hypothesis
codes name predicates in ``HYPOTHESES``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from commlab.core import (
    HypothesisError,
    InputError,
    cartesian_decomposition,
    classify,
    commutator,
    hermitian_eig,
    hs_norm,
    matrix_abs_sqrt,
    numerical_radius,
    numerical_radius_bracket,
    op_norm,
    overflow_is_hypothesis_error,
    self_commutator,
)
from commlab.instances import Fingerprint, Instance, Recipe, SpectralBounds, derive_seed, make_instance

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "HYPOTHESES",
    "get_entry",
    "validate_hypotheses",
    "InequalityReport",
    "evaluate",
    "SweepReport",
    "sweep",
    "REPORT_CSV_FIELDS",
    "SWEEP_CSV_FIELDS",
]

DEFAULT_TOL = 1e-9
_BAND_SLACK = 1e-8
_SJ_CUTOFF = 1e-12


@dataclass(frozen=True)
class CatalogEntry:
    """One evaluable inequality: metadata, hypothesis codes and formula, and
    optionally a cheap ``bracket`` of the formula, ``inst -> (lhs_lo, lhs_hi,
    rhs)`` with lhs in [lhs_lo, lhs_hi] and rhs exact, which only search reads.
    Both read only S, T, X, Y, x, n and bounds, so search can pass a ``BlockRow``."""

    id: str
    description: str
    status: str  # "proven" | "suspect-step" | "refuted" (see the module docstring)
    direction: str  # "le" (lhs <= rhs), "ge" (lhs >= rhs), "eq" (lhs == rhs)
    formula: Callable[[Instance], tuple]  # inst -> (lhs, rhs, JSON-ready detail or None)
    hypotheses: tuple[str, ...] = ()
    requires: frozenset = frozenset()
    default_family: str = "normal"
    bracket: Callable[[Instance], tuple] | None = None

    def recipe_for(self, family: str | None, dim: int) -> Recipe:
        """Recipe drawing the pieces the entry requires (x brings n with it)."""
        return Recipe(
            family=family or self.default_family,
            dim=dim,
            x_kind=None if "X" not in self.requires else "pd" if "pd:X" in self.hypotheses else "ginibre",
            with_y="Y" in self.requires,
            with_vector="x" in self.requires,
        )

    def margin(self, lhs: float, rhs: float) -> float:
        """rhs - lhs ("le"), lhs - rhs ("ge") or -|lhs - rhs| ("eq"): below 0 where the bound fails."""
        if self.direction == "le":
            return rhs - lhs
        if self.direction == "ge":
            return lhs - rhs
        return -abs(lhs - rhs)  # equality claim


# ---------------------------------------------------------------------------
# formula helpers


def _comm_norm(inst: Instance) -> float:
    return op_norm(commutator(inst.S, inst.T))


def _s_width(b: SpectralBounds) -> float:
    """Diagonal of the band rectangle of S: sqrt((a2-a1)^2 + (c2-c1)^2)."""
    return math.hypot(b.a2 - b.a1, b.c2 - b.c1)


def _t_width(b: SpectralBounds) -> float:
    return math.hypot(b.b2 - b.b1, b.d2 - b.d1)


def _shifted(m: np.ndarray, z: complex) -> np.ndarray:
    return m - z * np.eye(m.shape[0])


def _weighted_parts(m: np.ndarray, wa: float, wc: float) -> float:
    """sqrt(wa |A|^2 + wc |C|^2) for the cartesian parts m = A + iC."""
    a, c = cartesian_decomposition(m)
    return math.sqrt(wa * op_norm(a) ** 2 + wc * op_norm(c) ** 2)


def _step_cartesian(inst: Instance):
    b = inst.bounds
    a, c = cartesian_decomposition(inst.S)
    lhs = op_norm(_shifted(inst.S, b.z)) ** 2
    rhs = op_norm(_shifted(a, b.z.real)) ** 2 + op_norm(_shifted(c, b.z.imag)) ** 2
    return lhs, rhs, None


def _sj_eval(inst: Instance, t: np.ndarray, factor: float):
    """Per-index bound s_j(SX - Yt) <= factor * s_j(X (+) Y), worst j reported."""
    lhs_vals = np.linalg.svd(inst.S @ inst.X - inst.Y @ t, compute_uv=False)
    # the singular values of X (+) Y are those of X and of Y, merged
    base = np.sort(np.concatenate([np.linalg.svd(m, compute_uv=False) for m in (inst.X, inst.Y)]))[::-1]
    per_j = []
    worst = None
    for j, bj in enumerate(base, start=1):
        if bj <= _SJ_CUTOFF:
            continue
        lhs_j = float(lhs_vals[j - 1]) if j <= lhs_vals.size else 0.0
        rhs_j = float(factor * bj)
        margin_j = rhs_j - lhs_j
        per_j.append({"j": j, "lhs": lhs_j, "rhs": rhs_j, "margin": margin_j})
        score = margin_j / max(1.0, abs(rhs_j))
        if worst is None or score < worst[0]:
            worst = (score, lhs_j, rhs_j)
    if worst is None:
        return 0.0, 0.0, {"per_j": per_j}
    return worst[1], worst[2], {"per_j": per_j}


def _sj_general(inst: Instance):
    b = inst.bounds
    factor = max(b.b2 - b.a1, b.a2 - b.b1) + max(b.d2 - b.c1, b.c2 - b.d1)
    return _sj_eval(inst, inst.T, factor)


def _hs_product(inst: Instance):
    lhs, rhs = hs_norm(inst.S @ inst.T), hs_norm(inst.T @ inst.S)
    return lhs, rhs, {"hs_gap": abs(lhs - rhs)}


def _x_inverse(x: np.ndarray) -> np.ndarray:
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e12:
        raise HypothesisError("X is numerically singular (condition number > 1e12)")
    return np.linalg.inv(x)


def _three_term(inst: Instance, squared: bool):
    s, t, x = inst.S, inst.T, inst.X
    xinv = _x_inverse(x)
    lhs = hs_norm(s - t) ** 2
    f1 = hs_norm(s @ x - x @ t)
    f2 = hs_norm(xinv @ s - t @ xinv)
    rhs = (f1 * f2) ** 2 if squared else f1 * f2
    return lhs, rhs, {"factor_left": f1, "factor_right": f2}


def _schwarz_reverse(inst: Instance):
    try:
        n2 = inst.n**2 if inst.n > 0 else 0.0
    except OverflowError:
        raise HypothesisError("n is too large: n^2 overflows") from None
    if n2 == 0:
        raise HypothesisError("n must be positive: the bound divides by n^2")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        g = inst.S @ inst.T
        gx = g @ inst.x
        lhs = float(np.linalg.norm(gx) ** 2)
        inner = complex(inst.x.conj() @ (g @ gx))
    try:
        rhs = (lhs**2 - abs(inner) ** 2) / n2
    except OverflowError:
        rhs = math.inf
    if not math.isfinite(rhs):  # |STx| or |STx|^4 overflowed, or the bound did
        raise HypothesisError("|STx| is too large: the bound overflows")
    return lhs, rhs, {"inner_abs": abs(inner), "n": inst.n}


# ---------------------------------------------------------------------------
# the catalog


def _entries() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry(
            id="THM_MAIN",
            description=(
                "|ST-TS| <= 1/2 sqrt((a2-a1)^2+(c2-c1)^2) sqrt((b2-b1)^2+(d2-d1)^2) "
                "for normal S, T with banded cartesian parts"
            ),
            status="proven",
            direction="le",
            formula=lambda i: (_comm_norm(i), 0.5 * _s_width(i.bounds) * _t_width(i.bounds), None),
            hypotheses=("normal:S", "normal:T", "band:S", "band:T"),
            default_family="positive-normal",
        ),
        CatalogEntry(
            id="STEP_CENTERED",
            description="|ST-TS| <= 2 |S-z| |T-w| with z, w the declared band centers",
            status="proven",
            direction="le",
            formula=lambda i: (
                _comm_norm(i),
                2.0 * op_norm(_shifted(i.S, i.bounds.z)) * op_norm(_shifted(i.T, i.bounds.w)),
                None,
            ),
            default_family="positive-normal",
        ),
        CatalogEntry(
            id="STEP_CARTESIAN",
            description="|S-z|^2 <= |A-a|^2 + |C-c|^2 for normal S = A + iC",
            status="proven",
            direction="le",
            formula=_step_cartesian,
            hypotheses=("normal:S",),
            default_family="positive-normal",
        ),
        CatalogEntry(
            id="STEP_HALF_BAND",
            description="|S-z| <= 1/2 sqrt((a2-a1)^2+(c2-c1)^2) for normal banded S",
            status="proven",
            direction="le",
            formula=lambda i: (op_norm(_shifted(i.S, i.bounds.z)), 0.5 * _s_width(i.bounds), None),
            hypotheses=("normal:S", "band:S"),
            default_family="positive-normal",
        ),
        CatalogEntry(
            id="COR_NORMBOUND",
            description=(
                "|ST-TS| <= 1/2 sqrt(4|A|^2+|C|^2) sqrt(4|B|^2+|D|^2) "
                "for normal S, T with positive imaginary parts C, D"
            ),
            status="proven",
            direction="le",
            formula=lambda i: (
                _comm_norm(i), 0.5 * _weighted_parts(i.S, 4, 1) * _weighted_parts(i.T, 4, 1), None
            ),
            hypotheses=("normal:S", "normal:T", "psd-part:C", "psd-part:D"),
            default_family="normal-psd-imag",
        ),
        CatalogEntry(
            id="REMARK_POSITIVE",
            description="|ST-TS| <= 1/2 sqrt(|A|^2+4|C|^2) sqrt(|B|^2+4|D|^2) for positive S, T",
            status="proven",
            direction="le",
            formula=lambda i: (
                _comm_norm(i), 0.5 * _weighted_parts(i.S, 1, 4) * _weighted_parts(i.T, 1, 4), None
            ),
            hypotheses=("psd:S", "psd:T"),
            default_family="hermitian-psd",
        ),
        CatalogEntry(
            id="COR_SELF_COMMUTATOR",
            description="|S*S-SS*| <= 1/2 (|A|^2+|C|^2) when both cartesian parts are positive",
            status="proven",
            direction="le",
            formula=lambda i: (
                op_norm(self_commutator(i.S)),
                0.5 * sum(op_norm(p) ** 2 for p in cartesian_decomposition(i.S)),
                None,
            ),
            hypotheses=("psd-part:A", "psd-part:C"),
            default_family="cartesian-psd",
        ),
        CatalogEntry(
            id="SJ_GENERAL",
            description=(
                "s_j(SX-YT) <= (max(b2-a1, a2-b1) + max(d2-c1, c2-d1)) s_j(X (+) Y) for all j"
            ),
            status="refuted",
            direction="le",
            formula=_sj_general,
            hypotheses=("normal:S", "normal:T", "band:S", "band:T"),
            requires=frozenset({"X", "Y"}),
            default_family="normal",
        ),
        CatalogEntry(
            id="SJ_MAX",
            description="s_j(SX-YT) <= max(|A|, |B|) s_j(X (+) Y) for all j",
            status="refuted",
            direction="le",
            formula=lambda i: _sj_eval(
                i,
                i.T,
                max(op_norm(cartesian_decomposition(i.S)[0]), op_norm(cartesian_decomposition(i.T)[0])),
            ),
            hypotheses=("normal:S", "normal:T"),
            requires=frozenset({"X", "Y"}),
            default_family="normal",
        ),
        CatalogEntry(
            id="SJ_SINGLE",
            description="s_j(SX-YS) <= sqrt((a2-a1)^2+(c2-c1)^2) s_j(X (+) Y) for all j",
            status="refuted",
            direction="le",
            formula=lambda i: _sj_eval(i, i.S, _s_width(i.bounds)),
            hypotheses=("normal:S", "band:S"),
            requires=frozenset({"X", "Y"}),
            default_family="inner-normal",
        ),
        CatalogEntry(
            id="HS_PRODUCT",
            description="|ST|_2 <= |TS|_2 for normal S, T with normal product ST",
            status="proven",
            direction="le",
            formula=_hs_product,
            hypotheses=("normal:S", "normal:T", "normal:ST"),
            default_family="unitary",
        ),
        CatalogEntry(
            id="SQRT_PRODUCT",
            description="| |ST|^(1/2) | <= | |TS|^(1/2) | for normal S, T with normal ST",
            status="suspect-step",
            direction="le",
            formula=lambda i: (
                op_norm(matrix_abs_sqrt(i.S @ i.T)), op_norm(matrix_abs_sqrt(i.T @ i.S)), None
            ),
            hypotheses=("normal:S", "normal:T", "normal:ST"),
            default_family="unitary",
        ),
        CatalogEntry(
            id="NUMRAD_CLAIM",
            description="w(ST) = |TS| for normal S, T (equality claim, checked both ways)",
            status="refuted",
            direction="eq",
            formula=lambda i: (numerical_radius(i.S @ i.T), op_norm(i.T @ i.S), None),
            hypotheses=("normal:S", "normal:T"),
            default_family="normal",
            bracket=lambda i: (*numerical_radius_bracket(i.S @ i.T), op_norm(i.T @ i.S)),
        ),
        CatalogEntry(
            id="THREE_TERM",
            description=(
                "|S-T|_2^2 <= |SX-XT|_2 |X^-1 S - T X^-1|_2 "
                "for self-adjoint S, T and positive definite X"
            ),
            status="proven",
            direction="le",
            formula=lambda i: _three_term(i, squared=False),
            hypotheses=("hermitian:S", "hermitian:T", "pd:X"),
            requires=frozenset({"X"}),
            default_family="hermitian",
        ),
        CatalogEntry(
            id="COMMUTATOR_HS",
            description="|SX-XT|_2 <= |X|_2 sqrt(|S|_2^2 + |T|_2^2) for positive S, T",
            status="suspect-step",
            direction="le",
            formula=lambda i: (
                hs_norm(i.S @ i.X - i.X @ i.T),
                hs_norm(i.X) * math.sqrt(hs_norm(i.S) ** 2 + hs_norm(i.T) ** 2),
                None,
            ),
            hypotheses=("psd:S", "psd:T"),
            requires=frozenset({"X"}),
            default_family="hermitian-psd",
        ),
        CatalogEntry(
            id="SCHWARZ_REVERSE",
            description=(
                "|STx|^2 >= (1/n^2)(|STx|^4 - |<(ST)^2 x, x>|^2) "
                "for self-adjoint S, T, unit x, and n >= |ST-TS|"
            ),
            status="refuted",
            direction="ge",
            formula=_schwarz_reverse,
            hypotheses=("hermitian:S", "hermitian:T", "unit:x", "n-bound"),
            requires=frozenset({"x", "n"}),
            default_family="hermitian",
        ),
        CatalogEntry(
            id="FALSE_TEST",
            description="|ST-TS| <= 0: deliberately false control for the violation path",
            status="refuted",
            direction="le",
            formula=lambda i: (_comm_norm(i), 0.0, None),
            default_family="normal",
        ),
        CatalogEntry(
            id="THREE_TERM_STATED",
            description=(
                "|S-T|_2^2 <= |SX-XT|_2^2 |X^-1 S - T X^-1|_2^2 "
                "for normal S, T and positive definite X"
            ),
            status="refuted",
            direction="le",
            formula=lambda i: _three_term(i, squared=True),
            hypotheses=("normal:S", "normal:T", "pd:X"),
            requires=frozenset({"X"}),
            default_family="normal",
        ),
    )


CATALOG: dict[str, CatalogEntry] = {e.id: e for e in _entries()}


def get_entry(entry_id: str) -> CatalogEntry:
    if entry_id in CATALOG:
        return CATALOG[entry_id]
    raise InputError(f"unknown entry {entry_id!r}; known: {', '.join(CATALOG)}")


# ---------------------------------------------------------------------------
# hypothesis validation


def _when(broken: bool, message: str) -> list[str]:
    return [message] if broken else []


def _psd_part(m: np.ndarray, k: int, label: str) -> list[str]:
    """Violation unless cartesian part k of m (0 real, 1 imaginary) is PSD."""
    return _when(not classify(cartesian_decomposition(m)[k]).positive_semidefinite, f"{label} not PSD")


def _band_violations(m: np.ndarray, bounds: SpectralBounds, labels: str) -> list[str]:
    """Band violations of the cartesian parts of m, labelled e.g. "AC"."""
    out = []
    for part, label in zip(cartesian_decomposition(m), labels):
        eigs = hermitian_eig(part)
        lo, hi = bounds.band(label.lower())
        if eigs.size and (eigs.min() < lo - _BAND_SLACK or eigs.max() > hi + _BAND_SLACK):
            out.append(f"{label} spectrum outside [{lo:g}, {hi:g}]")
    return out


def _pd_violations(inst: Instance) -> list[str]:
    return _when(
        not classify(inst.X).hermitian or hermitian_eig(inst.X).min() <= 0,
        "X not positive definite",
    )


# Hypothesis code -> predicate giving the violation messages (empty if it holds).
HYPOTHESES: dict[str, Callable[[Instance], list[str]]] = {
    "normal:S": lambda i: _when(not classify(i.S).normal, "S not normal"),
    "normal:T": lambda i: _when(not classify(i.T).normal, "T not normal"),
    "normal:ST": lambda i: _when(not classify(i.S @ i.T).normal, "ST not normal"),
    "hermitian:S": lambda i: _when(not classify(i.S).hermitian, "S not hermitian"),
    "hermitian:T": lambda i: _when(not classify(i.T).hermitian, "T not hermitian"),
    "psd:S": lambda i: _when(not classify(i.S).positive_semidefinite, "S not PSD"),
    "psd:T": lambda i: _when(not classify(i.T).positive_semidefinite, "T not PSD"),
    "psd-part:A": lambda i: _psd_part(i.S, 0, "A"),
    "psd-part:C": lambda i: _psd_part(i.S, 1, "C"),
    "psd-part:D": lambda i: _psd_part(i.T, 1, "D"),
    "band:S": lambda i: _band_violations(i.S, i.bounds, "AC"),
    "band:T": lambda i: _band_violations(i.T, i.bounds, "BD"),
    "pd:X": _pd_violations,
    "unit:x": lambda i: _when(abs(np.linalg.norm(i.x) - 1.0) > 1e-12, "x not unit"),
    "n-bound": lambda i: _when(i.n < op_norm(commutator(i.S, i.T)) - 1e-9, "n below commutator norm"),
}


def validate_hypotheses(entry: CatalogEntry | str, inst: Instance) -> list[str]:
    """List of hypothesis violations; empty means the entry applies. An
    instance without a field the entry requires is an InputError."""
    if isinstance(entry, str):
        entry = get_entry(entry)
    for req in sorted(entry.requires):
        if getattr(inst, req) is None:
            raise InputError(f"entry {entry.id} requires instance field {req!r}")
    return [msg for code in entry.hypotheses for msg in HYPOTHESES[code](inst)]


# ---------------------------------------------------------------------------
# reports

# column orders of the check and sweep CSV artifacts, whose cells the CLI reads off to_json
REPORT_CSV_FIELDS = (
    "entry",
    "verdict",
    "satisfied",
    "lhs",
    "rhs",
    "margin",
    "tol",
    "seed",
    "dim",
    "recipe",
    "recipe_hash",
    "hypothesis_violations",
)

SWEEP_CSV_FIELDS = (
    "entry",
    "trials",
    "passes",
    "failures",
    "not_applicable",
    "worst_margin",
    "worst_seed",
    "worst_dim",
    "worst_recipe",
    "worst_recipe_hash",
    "dims",
    "trials_per_dim",
    "master_seed",
    "recipe",
    "tol",
)


def _jsonable_float(v: float | None):
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return float(v)


@dataclass(frozen=True)
class InequalityReport:
    """One evaluation of one entry on one instance."""

    entry: str
    lhs: float
    rhs: float
    margin: float
    verdict: str  # "satisfied" | "violated" | "not-applicable"
    satisfied: bool | None
    tol: float
    hypothesis_violations: tuple[str, ...]
    fingerprint: Fingerprint
    detail: dict | None = None

    def to_json(self) -> dict:
        return {
            "entry": self.entry,
            "lhs": _jsonable_float(self.lhs),
            "rhs": _jsonable_float(self.rhs),
            "margin": _jsonable_float(self.margin),
            "verdict": self.verdict,
            "satisfied": self.satisfied,
            "tol": self.tol,
            "hypothesis_violations": list(self.hypothesis_violations),
            "fingerprint": self.fingerprint.to_json(),
            "detail": self.detail,
        }


def evaluate(entry: CatalogEntry | str, inst: Instance, tol: float = DEFAULT_TOL) -> InequalityReport:
    """Evaluate one entry on one instance: validation, then the formula.

    Hypothesis violations detected by validation produce a "not-applicable"
    verdict. A missing required field raises InputError; an input the
    formula cannot evaluate safely (e.g. a numerically singular X), or whose
    entries overflow float arithmetic in validation or the formula, raises
    HypothesisError.
    """
    if isinstance(entry, str):
        entry = get_entry(entry)
    with overflow_is_hypothesis_error():
        violations = tuple(validate_hypotheses(entry, inst))
        lhs, rhs, detail = entry.formula(inst)
    margin = entry.margin(lhs, rhs)
    if violations:
        verdict, satisfied = "not-applicable", None
    elif margin >= -tol * max(1.0, abs(rhs)):
        verdict, satisfied = "satisfied", True
    else:
        verdict, satisfied = "violated", False
    return InequalityReport(
        entry.id, lhs, rhs, margin, verdict, satisfied, tol, violations,
        inst.fingerprint(), detail,
    )


@dataclass(frozen=True)
class SweepReport:
    entry: str
    trials: int
    passes: int
    failures: int
    not_applicable: int
    worst_margin: float | None
    worst_fingerprint: Fingerprint | None
    dims: tuple[int, ...]
    trials_per_dim: int
    master_seed: int
    recipe: str
    tol: float
    wall_time_s: float
    unsafe: int  # not-applicable trials whose evaluate raised HypothesisError

    def to_json(self) -> dict:
        # wall time stays out of the artifact so that equal configurations
        # serialize byte-identically; the unsafe count is a stderr note
        return {
            "entry": self.entry,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "not_applicable": self.not_applicable,
            "worst_margin": _jsonable_float(self.worst_margin),
            "worst_fingerprint": self.worst_fingerprint.to_json() if self.worst_fingerprint else None,
            "dims": list(self.dims),
            "trials_per_dim": self.trials_per_dim,
            "master_seed": self.master_seed,
            "recipe": self.recipe,
            "tol": self.tol,
        }


def sweep(
    entry: CatalogEntry | str,
    dims: tuple[int, ...],
    trials: int,
    master_seed: int = 0,
    recipe: str | None = None,
    tol: float = DEFAULT_TOL,
) -> SweepReport:
    """Run ``trials`` seeded random trials of one entry at each of ``dims``
    (``recipe`` overrides its family); violations are recorded, not raised.

    Determinism: the trial at (dim, index) always sees the seed
    ``derive_seed(master_seed, dim, index)``, so results do not depend on
    execution order and any failure can be replayed from its fingerprint.
    The worst trial has the lowest score ``margin / max(1, |rhs|)``, the
    normalization verdicts use; its raw margin is reported.
    """
    if isinstance(entry, str):
        entry = get_entry(entry)
    if trials < 0:
        raise InputError("trials must be >= 0")
    if not dims:
        raise InputError("at least one dim is required")
    if len(set(dims)) != len(dims):
        raise InputError("dims must not repeat: a repeated dim reruns the same trials")
    start = time.perf_counter()
    passes = failures = not_applicable = unsafe = 0
    worst: tuple[float, float, Fingerprint] | None = None  # score, margin, fingerprint
    for dim in dims:
        recipe_obj = entry.recipe_for(recipe, dim)
        for trial in range(trials):
            inst = make_instance(recipe_obj, derive_seed(master_seed, dim, trial))
            try:
                report = evaluate(entry, inst, tol=tol)
            except HypothesisError:
                not_applicable += 1
                unsafe += 1
                continue
            if report.verdict == "not-applicable":
                not_applicable += 1
                continue
            if report.verdict == "satisfied":
                passes += 1
            else:
                failures += 1
            score = report.margin / max(1.0, abs(report.rhs))
            if worst is None or score < worst[0]:
                worst = (score, report.margin, report.fingerprint)
    return SweepReport(
        entry=entry.id,
        trials=len(dims) * trials,
        passes=passes,
        failures=failures,
        not_applicable=not_applicable,
        worst_margin=worst[1] if worst else None,
        worst_fingerprint=worst[2] if worst else None,
        dims=tuple(dims),
        trials_per_dim=trials,
        master_seed=master_seed,
        recipe=recipe or entry.default_family,
        tol=tol,
        wall_time_s=time.perf_counter() - start,
        unsafe=unsafe,
    )
