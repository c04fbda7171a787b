"""Seeded construction of operator instances with prescribed spectral bands.

Every generator is a pure function of its arguments; the same (recipe, seed)
pair always reproduces the same instance bit for bit. Band endpoints are
attained by construction, so a declared band is a tight description of the
spectrum it bounds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from commlab.core import (
    HypothesisError,
    InputError,
    ShapeError,
    as_matrix,
    commutator,
    op_norm,
)

__all__ = [
    "derive_seed",
    "SpectralBounds",
    "Instance",
    "Fingerprint",
    "Recipe",
    "RECIPE_FAMILIES",
    "random_unitary",
    "random_ginibre",
    "random_unit_vector",
    "equality_example",
    "make_instance",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "instance_to_json",
    "instance_from_json",
]

_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Hash integers into one 64-bit seed; used for per-trial independence."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _splitmix64((acc ^ (int(p) & _MASK)) & _MASK)
    return acc


@dataclass(frozen=True)
class SpectralBounds:
    """Band endpoints for the cartesian parts of a pair (S, T).

    a and c bound the real and imaginary parts of S, b and d those of T.
    Derived centers give the complex shifts z = a + ic and w = b + id.
    """

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    d1: float
    d2: float

    def __post_init__(self):
        for lo, hi, name in (
            (self.a1, self.a2, "a"),
            (self.b1, self.b2, "b"),
            (self.c1, self.c2, "c"),
            (self.d1, self.d2, "d"),
        ):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise HypothesisError(f"bounds {name}1, {name}2 must be finite")
            if lo > hi:
                raise HypothesisError(f"bounds must satisfy {name}1 <= {name}2")

    @property
    def a(self) -> float:
        return (self.a1 + self.a2) / 2.0

    @property
    def b(self) -> float:
        return (self.b1 + self.b2) / 2.0

    @property
    def c(self) -> float:
        return (self.c1 + self.c2) / 2.0

    @property
    def d(self) -> float:
        return (self.d1 + self.d2) / 2.0

    @property
    def z(self) -> complex:
        return complex(self.a, self.c)

    @property
    def w(self) -> complex:
        return complex(self.b, self.d)

    def band(self, which: str) -> tuple[float, float]:
        return {
            "a": (self.a1, self.a2),
            "b": (self.b1, self.b2),
            "c": (self.c1, self.c2),
            "d": (self.d1, self.d2),
        }[which]

    def to_json(self) -> dict:
        return {k: float(getattr(self, k)) for k in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")}

    @staticmethod
    def from_json(d: dict) -> "SpectralBounds":
        return SpectralBounds(**{k: float(d[k]) for k in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")})


# ---------------------------------------------------------------------------
# generators


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ShapeError("random_unitary requires dim >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    mag = np.abs(d)
    phases = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phases


def random_ginibre(dim: int, seed: int) -> np.ndarray:
    """Square complex matrix with i.i.d. standard complex normal entries."""
    if dim < 1:
        raise ShapeError("random_ginibre requires dim >= 1")
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def random_unit_vector(dim: int, seed: int) -> np.ndarray:
    if dim < 1:
        raise ShapeError("random_unit_vector requires dim >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _banded_spectrum(rng: np.random.Generator, dim: int, lo: float, hi: float) -> np.ndarray:
    """dim values in [lo, hi] with both endpoints attained (at indices 0, 1)."""
    inner = rng.uniform(lo, hi, size=dim - 2) if dim > 2 else np.empty(0)
    return np.concatenate([[lo, hi], inner])


@dataclass(frozen=True)
class NormalFactor:
    """U diag(re + i im) U* with banded, endpoint-pinned eigenvalue parts."""

    u: np.ndarray
    re: np.ndarray
    im: np.ndarray
    re_band: tuple[float, float]
    im_band: tuple[float, float]
    re_pins: tuple[int, int]
    im_pins: tuple[int, int]

    def build(self) -> np.ndarray:
        return (self.u * (self.re + 1j * self.im)) @ self.u.conj().T

    def perturbed(self, scale: float, rng: np.random.Generator) -> "NormalFactor":
        re = _perturb_band(self.re, self.re_band, self.re_pins, scale, rng)
        im = _perturb_band(self.im, self.im_band, self.im_pins, scale, rng)
        u = self.u @ _unitary_step(self.u.shape[0], scale, rng)
        return replace(self, u=u, re=re, im=im)


@dataclass(frozen=True)
class CommutingPairFactor:
    """Two normal matrices sharing one eigenbasis, so they commute exactly."""

    u: np.ndarray
    s_re: np.ndarray
    s_im: np.ndarray
    t_re: np.ndarray
    t_im: np.ndarray
    bounds: SpectralBounds

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        s = (self.u * (self.s_re + 1j * self.s_im)) @ self.u.conj().T
        t = (self.u * (self.t_re + 1j * self.t_im)) @ self.u.conj().T
        return s, t

    def perturbed(self, scale: float, rng: np.random.Generator) -> "CommutingPairFactor":
        b = self.bounds
        pins = (0, 1)
        s_re = _perturb_band(self.s_re, (b.a1, b.a2), pins, scale, rng)
        s_im = _perturb_band(self.s_im, (b.c1, b.c2), pins, scale, rng)
        t_re = _perturb_band(self.t_re, (b.b1, b.b2), pins, scale, rng)
        t_im = _perturb_band(self.t_im, (b.d1, b.d2), pins, scale, rng)
        u = self.u @ _unitary_step(self.u.shape[0], scale, rng)
        return replace(self, u=u, s_re=s_re, s_im=s_im, t_re=t_re, t_im=t_im)


@dataclass(frozen=True)
class GinibreFactor:
    z: np.ndarray

    def build(self) -> np.ndarray:
        return self.z

    def perturbed(self, scale: float, rng: np.random.Generator) -> "GinibreFactor":
        n = self.z.shape[0]
        noise = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        return GinibreFactor(self.z + scale * noise)


@dataclass(frozen=True)
class UnitaryFactor:
    u: np.ndarray

    def build(self) -> np.ndarray:
        return self.u

    def perturbed(self, scale: float, rng: np.random.Generator) -> "UnitaryFactor":
        return UnitaryFactor(self.u @ _unitary_step(self.u.shape[0], scale, rng))


@dataclass(frozen=True)
class FixedFactor:
    m: np.ndarray

    def build(self) -> np.ndarray:
        return self.m

    def perturbed(self, scale: float, rng: np.random.Generator) -> "FixedFactor":
        return self


@dataclass(frozen=True)
class VectorFactor:
    v: np.ndarray

    def build(self) -> np.ndarray:
        return self.v

    def perturbed(self, scale: float, rng: np.random.Generator) -> "VectorFactor":
        n = self.v.shape[0]
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = self.v + scale * noise
        return VectorFactor(v / np.linalg.norm(v))


def _perturb_band(
    values: np.ndarray,
    band: tuple[float, float],
    pins: tuple[int, int],
    scale: float,
    rng: np.random.Generator,
) -> np.ndarray:
    lo, hi = band
    out = np.clip(values + rng.uniform(-scale, scale, size=values.shape), lo, hi)
    out[pins[0]] = lo
    out[pins[1]] = hi
    return out


def _unitary_step(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """exp(K) for a random skew-Hermitian K with op_norm(K) <= scale."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    k = (g - g.conj().T) / 2.0
    nk = op_norm(k)
    if nk > scale:
        k *= scale / nk
    # exp of skew-Hermitian via the Hermitian matrix H = -iK
    h = -1j * k
    h = (h + h.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _normal_factor(
    dim: int,
    re_band: tuple[float, float],
    im_band: tuple[float, float],
    seed: int,
) -> NormalFactor:
    if dim < 2:
        raise ShapeError("banded generation requires dim >= 2 so both endpoints are attained")
    rng = np.random.default_rng(derive_seed(seed, 0))
    re = _banded_spectrum(rng, dim, *re_band)
    im_base = _banded_spectrum(rng, dim, *im_band)
    perm = rng.permutation(dim)
    im = np.empty(dim)
    im[perm] = im_base
    u = random_unitary(dim, derive_seed(seed, 1))
    return NormalFactor(
        u=u,
        re=re,
        im=im,
        re_band=re_band,
        im_band=im_band,
        re_pins=(0, 1),
        im_pins=(int(perm[0]), int(perm[1])),
    )


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Fingerprint:
    """Replay coordinates of one instance: regenerate and re-check exactly."""

    seed: int
    dim: int
    recipe: str
    recipe_hash: str

    def to_json(self) -> dict:
        return {
            "seed": int(self.seed),
            "dim": int(self.dim),
            "recipe": self.recipe,
            "recipe_hash": self.recipe_hash,
        }

    def sort_key(self) -> tuple:
        return (self.recipe, self.dim, self.seed)


@dataclass
class Instance:
    """One bundle of operators fed to an inequality or derivation check."""

    S: np.ndarray
    T: np.ndarray
    bounds: SpectralBounds
    seed: int
    dim: int
    recipe: str = "external"
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    C: np.ndarray | None = None
    x: np.ndarray | None = None
    n: float | None = None
    internals: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # arrays are stored as read-only copies, so an instance (and the
        # fingerprint that replays it) cannot drift after construction
        self.S = _frozen(as_matrix(self.S))
        self.T = _frozen(as_matrix(self.T))
        if self.S.shape != (self.dim, self.dim) or self.T.shape != (self.dim, self.dim):
            raise ShapeError("S and T must be square of size dim")
        for name in ("X", "Y", "C"):
            m = getattr(self, name)
            if m is not None:
                m = as_matrix(m)
                if m.shape != (self.dim, self.dim):
                    raise ShapeError(f"{name} must be square of size dim")
                setattr(self, name, _frozen(m))
        if self.x is not None:
            self.x = _frozen(np.asarray(self.x, dtype=np.complex128).reshape(-1))
            if abs(np.linalg.norm(self.x) - 1.0) > 1e-12:
                raise HypothesisError("x must be a unit vector within 1e-12")
        if self.n is not None:
            self.n = float(self.n)
            if self.n < op_norm(commutator(self.S, self.T)) - 1e-9:
                raise HypothesisError("n must dominate the commutator norm")

    def fingerprint(self) -> Fingerprint:
        return Fingerprint(self.seed, self.dim, self.recipe, recipe_hash(self.recipe, self.dim))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def recipe_hash(recipe: str, dim: int) -> str:
    payload = json.dumps({"recipe": recipe, "dim": dim}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


RECIPE_FAMILIES = (
    "normal",
    "positive-normal",
    "normal-psd-imag",
    "hermitian",
    "hermitian-psd",
    "cartesian-psd",
    "unitary",
    "commuting-normal",
    "inner-normal",
    "equality-example",
)


@dataclass(frozen=True)
class Recipe:
    """Generation plan: operator family plus which extra pieces to include."""

    family: str
    dim: int
    with_x: bool = False
    with_y: bool = False
    x_kind: str = "ginibre"  # or "pd" for a positive definite X
    with_vector: bool = False
    tie_t_to_s: bool = False

    def __post_init__(self):
        if self.family not in RECIPE_FAMILIES:
            raise InputError(f"unknown recipe family {self.family!r}; known: {RECIPE_FAMILIES}")
        if self.dim < 1:
            raise ShapeError("recipe dim must be >= 1")
        if self.x_kind not in ("ginibre", "pd"):
            raise InputError("x_kind must be 'ginibre' or 'pd'")


def _draw_band(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    pair = np.sort(rng.uniform(lo, hi, size=2))
    return float(pair[0]), float(pair[1])


def equality_example() -> Instance:
    """The built-in 2x2 instance attaining equality in the reverse-Schwarz
    check at constant 1/2: S = [[1,1],[1,-1]], T = [[0,1],[1,0]], x = (0,1)."""
    s = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    x = np.array([0.0, 1.0], dtype=np.complex128)
    r2 = float(np.sqrt(2.0))
    bounds = SpectralBounds(a1=-r2, a2=r2, b1=-1.0, b2=1.0, c1=0.0, c2=0.0, d1=0.0, d2=0.0)
    inst = Instance(
        S=s,
        T=t,
        bounds=bounds,
        seed=0,
        dim=2,
        recipe="equality-example",
        x=x,
        n=2.0,
        internals={
            "family": "equality-example",
            "factors": {"S": FixedFactor(s), "T": FixedFactor(t), "x": VectorFactor(x)},
        },
    )
    return inst


def _build_pair(recipe: Recipe, seed: int) -> tuple[dict, SpectralBounds]:
    """Draw the (S, T) factors and the declared bounds for one instance."""
    fam = recipe.family
    dim = recipe.dim
    rng = np.random.default_rng(derive_seed(seed, 100))
    factors: dict = {}

    tie = recipe.tie_t_to_s or fam == "inner-normal"

    if fam in ("normal", "inner-normal"):
        a, b = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
        c, d = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
    elif fam == "positive-normal":
        a, b = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
        c, d = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
    elif fam == "normal-psd-imag":
        a, b = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
        c, d = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
    elif fam == "hermitian":
        a, b = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
        c, d = (0.0, 0.0), (0.0, 0.0)
    elif fam == "hermitian-psd":
        a, b = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
        c, d = (0.0, 0.0), (0.0, 0.0)
    elif fam == "cartesian-psd":
        a, b = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
        c, d = _draw_band(rng, 0, 1), _draw_band(rng, 0, 1)
    elif fam == "unitary":
        a = b = c = d = (-1.0, 1.0)
    elif fam == "commuting-normal":
        a, b = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
        c, d = _draw_band(rng, -1, 1), _draw_band(rng, -1, 1)
    else:
        raise InputError(f"family {fam!r} has no pair builder")

    if tie:
        b, d = a, c
    bounds = SpectralBounds(a1=a[0], a2=a[1], b1=b[0], b2=b[1], c1=c[0], c2=c[1], d1=d[0], d2=d[1])

    if fam in ("normal", "inner-normal", "positive-normal", "normal-psd-imag", "hermitian", "hermitian-psd"):
        factors["S"] = _normal_factor(dim, a, c, derive_seed(seed, 1))
        factors["T"] = factors["S"] if tie else _normal_factor(dim, b, d, derive_seed(seed, 2))
    elif fam == "cartesian-psd":
        factors["S_re"] = _normal_factor(dim, a, (0.0, 0.0), derive_seed(seed, 1))
        factors["S_im"] = _normal_factor(dim, c, (0.0, 0.0), derive_seed(seed, 2))
        factors["T_re"] = _normal_factor(dim, b, (0.0, 0.0), derive_seed(seed, 3))
        factors["T_im"] = _normal_factor(dim, d, (0.0, 0.0), derive_seed(seed, 4))
    elif fam == "unitary":
        factors["S"] = UnitaryFactor(random_unitary(dim, derive_seed(seed, 1)))
        factors["T"] = UnitaryFactor(random_unitary(dim, derive_seed(seed, 2)))
    elif fam == "commuting-normal":
        rng2 = np.random.default_rng(derive_seed(seed, 3))
        factors["pair"] = CommutingPairFactor(
            u=random_unitary(dim, derive_seed(seed, 1)),
            s_re=_banded_spectrum(rng2, dim, *a),
            s_im=_banded_spectrum(rng2, dim, *c),
            t_re=_banded_spectrum(rng2, dim, *b),
            t_im=_banded_spectrum(rng2, dim, *d),
            bounds=bounds,
        )
    return factors, bounds


def _assemble(
    family: str,
    dim: int,
    factors: dict,
    bounds: SpectralBounds,
    seed: int,
    recipe_name: str,
    had_n: bool,
) -> Instance:
    """Materialize matrices from factors and wrap them in an Instance."""
    if family == "cartesian-psd":
        s = factors["S_re"].build() + 1j * factors["S_im"].build()
        t = factors["T_re"].build() + 1j * factors["T_im"].build()
    elif family == "commuting-normal":
        s, t = factors["pair"].build()
    else:
        s = factors["S"].build()
        t = factors["T"].build()
    x_mat = factors["X"].build() if "X" in factors else None
    y_mat = factors["Y"].build() if "Y" in factors else None
    vec = factors["x"].build() if "x" in factors else None
    n = op_norm(commutator(s, t)) if had_n else None
    return Instance(
        S=s,
        T=t,
        bounds=bounds,
        seed=seed,
        dim=dim,
        recipe=recipe_name,
        X=x_mat,
        Y=y_mat,
        x=vec,
        n=n,
        internals={"family": family, "factors": factors},
    )


def make_instance(recipe: Recipe, seed: int) -> Instance:
    """Deterministically build an Instance satisfying the recipe's structure."""
    if recipe.family == "equality-example":
        if recipe.dim != 2:
            raise HypothesisError("equality-example is a fixed 2x2 instance")
        return equality_example()
    factors, bounds = _build_pair(recipe, seed)
    if recipe.with_x:
        if recipe.x_kind == "pd":
            factors["X"] = _normal_factor(recipe.dim, (0.5, 2.0), (0.0, 0.0), derive_seed(seed, 5))
        else:
            factors["X"] = GinibreFactor(random_ginibre(recipe.dim, derive_seed(seed, 5)))
    if recipe.with_y:
        factors["Y"] = GinibreFactor(random_ginibre(recipe.dim, derive_seed(seed, 6)))
    if recipe.with_vector:
        factors["x"] = VectorFactor(random_unit_vector(recipe.dim, derive_seed(seed, 7)))
    return _assemble(
        recipe.family, recipe.dim, factors, bounds, seed, recipe.family, had_n=recipe.with_vector
    )


def reassemble(inst: Instance, factors: dict, seed: int) -> Instance:
    """Rebuild an instance from perturbed factors, keeping declared bounds."""
    if inst.internals is None:
        raise HypothesisError("instance has no generator internals to rebuild from")
    return _assemble(
        inst.internals["family"],
        inst.dim,
        factors,
        inst.bounds,
        seed,
        inst.recipe,
        had_n=inst.n is not None,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def matrix_to_json(m: np.ndarray) -> dict:
    return {"rows": [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InputError("matrix JSON must be an object with a 'rows' key")
    rows = obj["rows"]
    try:
        m = np.array([[complex(e[0], e[1]) for e in row] for row in rows], dtype=np.complex128)
    except (TypeError, IndexError, ValueError) as exc:
        raise InputError(f"matrix rows must be [re, im] pairs: {exc}") from exc
    if m.ndim != 2:
        raise InputError("matrix rows must form a rectangular grid")
    return as_matrix(m)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


def vector_from_json(obj) -> np.ndarray:
    try:
        return np.array([complex(e[0], e[1]) for e in obj], dtype=np.complex128)
    except (TypeError, IndexError, ValueError) as exc:
        raise InputError(f"vector entries must be [re, im] pairs: {exc}") from exc


def instance_to_json(inst: Instance) -> dict:
    out = {
        "dim": int(inst.dim),
        "seed": int(inst.seed),
        "recipe": inst.recipe,
        "bounds": inst.bounds.to_json(),
        "S": matrix_to_json(inst.S),
        "T": matrix_to_json(inst.T),
    }
    for name in ("X", "Y", "C"):
        m = getattr(inst, name)
        if m is not None:
            out[name] = matrix_to_json(m)
    if inst.x is not None:
        out["x"] = vector_to_json(inst.x)
    if inst.n is not None:
        out["n"] = float(inst.n)
    return out


def instance_from_json(obj: dict) -> Instance:
    for key in ("S", "T", "bounds"):
        if key not in obj:
            raise InputError(f"instance JSON is missing required key {key!r}")
    s = matrix_from_json(obj["S"])
    t = matrix_from_json(obj["T"])
    dim = int(obj.get("dim", s.shape[0]))
    return Instance(
        S=s,
        T=t,
        bounds=SpectralBounds.from_json(obj["bounds"]),
        seed=int(obj.get("seed", 0)),
        dim=dim,
        recipe=str(obj.get("recipe", "external")),
        X=matrix_from_json(obj["X"]) if "X" in obj else None,
        Y=matrix_from_json(obj["Y"]) if "Y" in obj else None,
        C=matrix_from_json(obj["C"]) if "C" in obj else None,
        x=vector_from_json(obj["x"]) if "x" in obj else None,
        n=float(obj["n"]) if "n" in obj else None,
    )
