"""Seeded construction of operator instances with prescribed spectral bands.

Every generator is a pure function of its arguments; the same (recipe, seed)
pair always reproduces the same instance bit for bit. Band endpoints are
attained by construction, so a declared band is a tight description of the
spectrum it bounds.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from commlab.core import HypothesisError, InputError, commutator, op_norm

__all__ = [
    "derive_seed",
    "SpectralBounds",
    "Instance",
    "Recipe",
    "RECIPE_FAMILIES",
    "random_unitary",
    "equality_example",
    "make_instance",
    "Moves",
    "draw_moves",
    "perturb",
    "instance_to_json",
    "instance_from_json",
]

_MASK = (1 << 64) - 1
_BOUND_KEYS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")
_MATRICES = ("S", "T", "X", "Y", "C")  # an instance's matrix fields, in its JSON as in Instance


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
    """The eight band endpoints of the cartesian parts of a pair (S, T), and
    nothing else: a and c bound the real and imaginary parts of S, b and d
    those of T. The band centers give the complex shifts z and w.
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
        for name in "abcd":
            lo, hi = self.band(name)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise InputError(f"bounds {name}1, {name}2 must be finite")
            if lo > hi:
                raise HypothesisError(f"bounds must satisfy {name}1 <= {name}2")

    @property
    def z(self) -> complex:
        """The center of S's band rectangle, (a1 + a2)/2 + i (c1 + c2)/2."""
        return complex((self.a1 + self.a2) / 2.0, (self.c1 + self.c2) / 2.0)

    @property
    def w(self) -> complex:
        """The center of T's band rectangle, (b1 + b2)/2 + i (d1 + d2)/2."""
        return complex((self.b1 + self.b2) / 2.0, (self.d1 + self.d2) / 2.0)

    def band(self, which: str) -> tuple[float, float]:
        """Band ``which`` ("a", "b", "c" or "d") as (lo, hi)."""
        return getattr(self, f"{which}1"), getattr(self, f"{which}2")

    def to_json(self) -> dict:
        return {k: float(getattr(self, k)) for k in _BOUND_KEYS}

    @staticmethod
    def from_json(d: dict) -> "SpectralBounds":
        if not isinstance(d, dict) or any(k not in d for k in _BOUND_KEYS):
            raise InputError(f"bounds must be an object with keys {', '.join(_BOUND_KEYS)}")
        return SpectralBounds(**{k: _number(float, d[k], f"bounds {k}") for k in _BOUND_KEYS})


def _number(convert, value, name: str):
    """``convert(value)`` for a JSON number in range, integral where ``convert``
    is int; JSON true, false, strings and the rest are InputErrors naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, not {type(value).__name__}")
    try:
        out = convert(value)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a number in range: {exc}") from exc
    if convert is int and out != value:
        raise InputError(f"{name} must be an integer, not {value!r}")
    return out


# ---------------------------------------------------------------------------
# generators


def _complex_gaussians(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """One n x n matrix of i.i.d. standard complex normal entries per generator,
    stacked; each generator draws its real parts first."""
    pairs = np.stack([rng.standard_normal((2, n, n)) for rng in rngs])
    return (pairs[:, 0] + 1j * pairs[:, 1]) / np.sqrt(2.0)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _conjugated(u: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """U diag(eigenvalues) U*, over any leading axes."""
    return (u * eigenvalues[..., None, :]) @ _adjoint(u)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise InputError("random_unitary requires dim >= 1")
    q, r = np.linalg.qr(_ginibre(dim, seed))
    d = np.diagonal(r)
    mag = np.abs(d)
    phases = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phases


def _ginibre(dim: int, seed: int) -> np.ndarray:
    """Square complex matrix with i.i.d. standard complex normal entries."""
    return _complex_gaussians([np.random.default_rng(seed)], dim)[0]


def _unit_vector(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _banded_spectrum(rng: np.random.Generator, dim: int, lo: float, hi: float) -> np.ndarray:
    """dim values in [lo, hi] with both endpoints attained (at indices 0, 1)."""
    if dim < 2:
        raise InputError("banded generation requires dim >= 2 so both endpoints are attained")
    return np.concatenate([[lo, hi], rng.uniform(lo, hi, size=dim - 2)])


class _Factor:
    """One generated piece of an instance; its arrays are read-only once it is built.

    ``draw(scale, rngs)`` takes the random part of a move from each
    generator, stacked on a leading axis (one row per move); it depends on
    the factor's structure only. ``apply(noise, rows)`` composes the noise
    rows that the slice ``rows`` takes with the factor's values, in one stacked
    operation: it returns the moved factors as one factor of the same class,
    carrying a leading row axis, over which ``build`` works too. A factor holds
    arrays and other factors, never a container of arrays.
    """

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def row(self, base: "_Factor", i: int) -> "_Factor":
        """Row i of the stack that ``base.apply`` returned: a copy of row i of
        each array to which the stack added a row axis."""
        return type(self)(*(
            v.row(b, i) if isinstance(v, _Factor) else v[i].copy() if v.ndim > b.ndim else v
            for v, b in zip(vars(self).values(), vars(base).values())
        ))


@dataclass(frozen=True)
class _BandedBasis(_Factor):
    """Eigenvalue parts on one unitary basis U: row i of ``parts`` lies in the
    band ``bands[i]`` and attains both its endpoints, the low one at the
    flat index ``pins[2i]`` of ``parts`` and the high one at ``pins[2i + 1]``.
    Subclasses say only how the parts build matrices."""

    u: np.ndarray
    parts: np.ndarray  # (k, n)
    bands: np.ndarray  # (k, 2): each row's (lo, hi)
    pins: np.ndarray  # (2k,): flat indices into parts, in the order of bands' entries

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> tuple:
        # the parts' band noise, row by row, then the step: perturb's order for each generator
        return _band_noise(rngs, scale, self.parts.shape), _unitary_steps(rngs, self.u.shape[-1], scale)

    def apply(self, noise: tuple, rows: slice) -> "_BandedBasis":
        bands, steps = noise
        return type(self)(self.u @ steps[rows], _moved_bands(self, bands[rows]), self.bands, self.pins)


class NormalFactor(_BandedBasis):
    """U diag(re + i im) U*, from the parts (re, im)."""

    def build(self) -> np.ndarray:
        re, im = self.parts.swapaxes(0, -2)  # each row of parts, over any row axis
        return _conjugated(self.u, re + 1j * im)


@dataclass(frozen=True)
class CartesianFactor(_Factor):
    """re + i im for two Hermitian factors, so each cartesian part has its own band."""

    re: NormalFactor
    im: NormalFactor

    def build(self) -> np.ndarray:
        return self.re.build() + 1j * self.im.build()

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> tuple:
        # im draws first; replay depends on the order
        return self.im.draw(scale, rngs), self.re.draw(scale, rngs)

    def apply(self, noise: tuple, rows: slice) -> "CartesianFactor":
        im, re = noise
        return CartesianFactor(self.re.apply(re, rows), self.im.apply(im, rows))


class CommutingPairFactor(_BandedBasis):
    """Two normal matrices sharing one eigenbasis, so they commute exactly:
    U diag(a + i c) U* and U diag(b + i d) U*, from the parts (a, c, b, d)."""

    def build(self) -> tuple[np.ndarray, np.ndarray]:
        a, c, b, d = self.parts.swapaxes(0, -2)
        return _conjugated(self.u, a + 1j * c), _conjugated(self.u, b + 1j * d)


@dataclass(frozen=True)
class GinibreFactor(_Factor):
    z: np.ndarray

    def build(self) -> np.ndarray:
        return self.z

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        return scale * _complex_gaussians(rngs, self.z.shape[-1])

    def apply(self, noise: np.ndarray, rows: slice) -> "GinibreFactor":
        return GinibreFactor(self.z + noise[rows])


@dataclass(frozen=True)
class UnitaryFactor(_Factor):
    """A unitary U. A move multiplies it by exp(K), which keeps it unitary but
    moves its eigenvalues, so a cartesian part of U can stop being PSD."""

    u: np.ndarray

    def build(self) -> np.ndarray:
        return self.u

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        return _unitary_steps(rngs, self.u.shape[-1], scale)

    def apply(self, noise: np.ndarray, rows: slice) -> "UnitaryFactor":
        return UnitaryFactor(self.u @ noise[rows])


@dataclass(frozen=True)
class FixedFactor(_Factor):
    m: np.ndarray

    def build(self) -> np.ndarray:
        return self.m

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> None:
        return None  # nothing is drawn

    def apply(self, noise: None, rows: slice) -> "FixedFactor":
        return self


@dataclass(frozen=True)
class VectorFactor(_Factor):
    v: np.ndarray

    def build(self) -> np.ndarray:
        return self.v

    def draw(self, scale: float, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        pairs = np.stack([rng.standard_normal((2, self.v.shape[-1])) for rng in rngs])
        return scale * (pairs[:, 0] + 1j * pairs[:, 1])

    def apply(self, noise: np.ndarray, rows: slice) -> "VectorFactor":
        v = self.v + noise[rows]
        # each row by the norm of that 1-d row: a norm over axis=-1 sums in another order
        return VectorFactor(v / np.array([np.linalg.norm(row) for row in v])[:, None])


def _band_noise(rngs: Sequence[np.random.Generator], scale: float, shape: tuple) -> np.ndarray:
    """Uniform noise in [-scale, scale) of ``shape`` from each generator, one row per move."""
    return np.stack([rng.uniform(-scale, scale, size=shape) for rng in rngs])


def _moved_bands(f: _BandedBasis, noise: np.ndarray) -> np.ndarray:
    """f's parts plus each move's noise in a stack, each row clamped to its band
    with its endpoints re-pinned."""
    # np.clip's result, without its per-call overhead on short arrays
    out = np.minimum(np.maximum(f.parts + noise, f.bands[:, :1]), f.bands[:, 1:])
    # the pins are flat indices into each move's parts, each band's (lo, hi) in turn
    out.reshape(len(out), f.parts.size)[:, f.pins] = f.bands.ravel()
    return out


def _unitary_steps(rngs: Sequence[np.random.Generator], n: int, scale: float) -> np.ndarray:
    """exp(K) for each generator's random skew-Hermitian K, scaled down to
    op_norm(K) = scale where it is larger."""
    g = _complex_gaussians(rngs, n)
    # K = (g - g*)/2 is exactly skew-Hermitian: factor the Hermitian H = -iK,
    # whose eigenvalues give op_norm(K) = max |vals| and exp(K) = exp(iH)
    vals, vecs = np.linalg.eigh(-0.5j * (g - _adjoint(g)))
    vals = vals * np.minimum(1.0, scale / np.max(np.abs(vals), axis=-1))[:, None]
    return _conjugated(vecs, np.exp(1j * vals))


def _normal_factor(
    dim: int,
    re_band: tuple[float, float],
    im_band: tuple[float, float],
    seed: int,
) -> NormalFactor:
    rng = np.random.default_rng(derive_seed(seed, 0))
    re = _banded_spectrum(rng, dim, *re_band)
    im_base = _banded_spectrum(rng, dim, *im_band)
    perm = rng.permutation(dim)
    im = np.empty(dim)
    im[perm] = im_base
    u = random_unitary(dim, derive_seed(seed, 1))
    # re's endpoints sit at its indices 0, 1 and im's where perm sent them
    pins = np.array([0, 1, dim + perm[0], dim + perm[1]])
    return NormalFactor(u, np.stack([re, im]), np.array([re_band, im_band]), pins)


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    """One bundle of operators fed to an inequality or derivation check, and the one
    place a matrix is checked: S, T, X, Y and C pass ``_checked`` and are dim x dim.

    A search candidate is a ``BlockRow`` until it may be kept: its n, bounds and
    read-only views of its S, T, X, Y and x in a block of moves, all that a formula
    or bracket reads. A row is never validated, kept, reported or read from outside.
    """

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
    # factors, by name, in a read-only mapping; their arrays are read-only too
    internals: Mapping | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # fields are frozen and arrays are stored as read-only copies, so an
        # instance (and the fingerprint that replays it) cannot drift after
        # construction or skip the checks below
        if self.internals is not None:
            object.__setattr__(self, "internals", MappingProxyType(dict(self.internals)))
        for name in _MATRICES:
            m = getattr(self, name)
            if m is not None or name in ("S", "T"):  # S and T are never optional
                object.__setattr__(self, name, _checked(name, m, self.dim))
        if self.x is not None:
            x = np.array(np.reshape(self.x, -1), dtype=np.complex128)
            if x.shape != (self.dim,):
                raise InputError("x must have length dim")
            if not np.all(np.isfinite(x)):
                raise InputError("x must be finite")
            x.flags.writeable = False
            object.__setattr__(self, "x", x)
        if self.n is not None:
            n = float(self.n)
            if not np.isfinite(n):
                raise InputError("n must be finite")
            object.__setattr__(self, "n", n)

    def fingerprint(self) -> dict:
        """Coordinates of the instance, as JSON: a generated one (a sweep trial, a
        search's start) regenerates from its seed, dim and recipe exactly. A searched
        one does not, as it keeps its recipe and takes its last move's seed: ``check
        --instance`` on the search artifact's ``best_instance`` replays it."""
        payload = json.dumps({"recipe": self.recipe, "dim": self.dim}, sort_keys=True)
        return {
            "seed": int(self.seed),
            "dim": int(self.dim),
            "recipe": self.recipe,
            "recipe_hash": hashlib.sha256(payload.encode()).hexdigest()[:12],
        }


def _checked(name: str, m, dim: int) -> np.ndarray:
    """A read-only complex128 copy of matrix field ``name``, which must be
    finite and dim x dim."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InputError("matrix contains non-finite entries")
    if a.shape != (dim, dim):
        raise InputError(f"{name} must be square of size dim")
    a.flags.writeable = False
    return a


def _draw_band(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    pair = np.sort(rng.uniform(lo, hi, size=2))
    return float(pair[0]), float(pair[1])


_BandSource = Callable[[np.random.Generator], tuple[float, float]]


def _drawn(lo: float, hi: float) -> _BandSource:
    """Each band is a sorted uniform pair drawn from [lo, hi]."""
    return lambda rng: _draw_band(rng, lo, hi)


def _fixed(lo: float, hi: float) -> _BandSource:
    """Every band is [lo, hi], and nothing is drawn."""
    return lambda rng: (lo, hi)


def _tied_normal(dim: int, b: SpectralBounds, seed: int) -> dict:
    """S alone: T is S, built from the same factor."""
    return {"S": _normal_factor(dim, b.band("a"), b.band("c"), derive_seed(seed, 1))}


def _normal_pair(dim: int, b: SpectralBounds, seed: int) -> dict:
    t = _normal_factor(dim, b.band("b"), b.band("d"), derive_seed(seed, 2))
    return _tied_normal(dim, b, seed) | {"T": t}


def _cartesian_pair(dim: int, b: SpectralBounds, seed: int) -> dict:
    def part(band: str, k: int) -> NormalFactor:
        return _normal_factor(dim, b.band(band), (0.0, 0.0), derive_seed(seed, k))

    s = CartesianFactor(part("a", 1), part("c", 2))
    return {"S": s, "T": CartesianFactor(part("b", 3), part("d", 4))}


def _unitary_pair(dim: int, b: SpectralBounds, seed: int) -> dict:
    s, t = (UnitaryFactor(random_unitary(dim, derive_seed(seed, k))) for k in (1, 2))
    return {"S": s, "T": t}


def _commuting_pair(dim: int, b: SpectralBounds, seed: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, 3))
    bands = np.array([b.band(k) for k in "acbd"])
    parts = np.stack([_banded_spectrum(rng, dim, *band) for band in bands])
    pins = (dim * np.arange(4)[:, None] + [0, 1]).ravel()  # each row's indices 0, 1
    return {"pair": CommutingPairFactor(random_unitary(dim, derive_seed(seed, 1)), parts, bands, pins)}


class _Family(NamedTuple):
    """How a generated family draws its bands and builds its (S, T) factors."""

    ab: _BandSource  # bands a of S and b of T (real parts)
    cd: _BandSource  # bands c of S and d of T (imaginary parts)
    build: Callable[[int, SpectralBounds, int], dict]  # (dim, bounds, seed) -> factors
    tied: bool = False  # T is S, with S's bands: the only place that says so


_SIGNED, _POSITIVE = _drawn(-1.0, 1.0), _drawn(0.0, 1.0)
_ZERO, _UNIT = _fixed(0.0, 0.0), _fixed(-1.0, 1.0)

_FAMILIES = {
    "normal": _Family(_SIGNED, _SIGNED, _normal_pair),
    "positive-normal": _Family(_POSITIVE, _POSITIVE, _normal_pair),
    "normal-psd-imag": _Family(_SIGNED, _POSITIVE, _normal_pair),
    "hermitian": _Family(_SIGNED, _ZERO, _normal_pair),
    "hermitian-psd": _Family(_POSITIVE, _ZERO, _normal_pair),
    "cartesian-psd": _Family(_POSITIVE, _POSITIVE, _cartesian_pair),
    "unitary": _Family(_UNIT, _UNIT, _unitary_pair),
    "commuting-normal": _Family(_SIGNED, _SIGNED, _commuting_pair),
    "inner-normal": _Family(_SIGNED, _SIGNED, _tied_normal, tied=True),
}

# the generated families, then the one fixed instance
RECIPE_FAMILIES = (*_FAMILIES, "equality-example")


@dataclass(frozen=True)
class Recipe:
    """Generation plan: an operator family and dim, plus which extra pieces to
    include. ``x_kind`` alone says whether there is an X and what kind:
    ``None`` for none, ``"ginibre"`` or ``"pd"`` (positive definite)."""

    family: str
    dim: int
    x_kind: str | None = None
    with_y: bool = False
    with_vector: bool = False

    def __post_init__(self):
        if self.family not in RECIPE_FAMILIES:
            raise InputError(f"unknown recipe family {self.family!r}; known: {RECIPE_FAMILIES}")
        if self.dim < 1:
            raise InputError("recipe dim must be >= 1")
        if self.family == "equality-example" and self.dim != 2:
            raise InputError("equality-example is a fixed 2x2 instance")
        if self.family == "equality-example" and (self.x_kind or self.with_y):
            raise InputError("equality-example has no X or Y")
        if self.x_kind not in (None, "ginibre", "pd"):
            raise InputError(f"x_kind must be None, 'ginibre' or 'pd', not {self.x_kind!r}")


def equality_example() -> Instance:
    """The built-in 2x2 instance attaining equality in the reverse-Schwarz
    check at constant 1/2: S = [[1,1],[1,-1]], T = [[0,1],[1,0]], x = (0,1)."""
    s = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    x = np.array([0.0, 1.0], dtype=np.complex128)
    r2 = float(np.sqrt(2.0))
    bounds = SpectralBounds(a1=-r2, a2=r2, b1=-1.0, b2=1.0, c1=0.0, c2=0.0, d1=0.0, d2=0.0)
    factors = {"S": FixedFactor(s), "T": FixedFactor(t), "x": VectorFactor(x)}
    return _assemble(factors, bounds, 0, 2, "equality-example")  # n = |ST - TS| = 2


def _fields(factors: Mapping) -> dict:
    """The arrays that factors stand for, by field name, over any leading row
    axis: a commuting pair builds S and T from one factor, and a tied pair has
    no T factor."""
    if "pair" in factors:
        s, t = factors["pair"].build()
    else:
        s = factors["S"].build()
        t = factors["T"].build() if "T" in factors else s
    extras = {name: factors[name].build() for name in ("X", "Y", "x") if name in factors}
    return {"S": s, "T": t, **extras}


def _with_n(fields: dict) -> dict:
    """One instance's fields, with n = |ST - TS| where they hold a vector x."""
    return fields | {"n": op_norm(commutator(fields["S"], fields["T"]))} if "x" in fields else fields


def _assemble(factors: Mapping, bounds: SpectralBounds, seed: int, dim: int, recipe: str) -> Instance:
    """The Instance that factors stand for."""
    fields = _with_n(_fields(factors))
    return Instance(bounds=bounds, seed=seed, dim=dim, recipe=recipe, internals=factors, **fields)


def make_instance(recipe: Recipe, seed: int) -> Instance:
    """Deterministically build an Instance satisfying the recipe's structure."""
    family = _FAMILIES.get(recipe.family)
    if family is None:  # the fixed equality example
        return equality_example()
    rng = np.random.default_rng(derive_seed(seed, 100))
    a, b = family.ab(rng), family.ab(rng)
    c, d = family.cd(rng), family.cd(rng)
    if family.tied:
        b, d = a, c
    bounds = SpectralBounds(a1=a[0], a2=a[1], b1=b[0], b2=b[1], c1=c[0], c2=c[1], d1=d[0], d2=d[1])
    factors = family.build(recipe.dim, bounds, seed)
    if recipe.x_kind == "pd":
        factors["X"] = _normal_factor(recipe.dim, (0.5, 2.0), (0.0, 0.0), derive_seed(seed, 5))
    elif recipe.x_kind == "ginibre":
        factors["X"] = GinibreFactor(_ginibre(recipe.dim, derive_seed(seed, 5)))
    if recipe.with_y:
        factors["Y"] = GinibreFactor(_ginibre(recipe.dim, derive_seed(seed, 6)))
    if recipe.with_vector:
        factors["x"] = VectorFactor(_unit_vector(recipe.dim, derive_seed(seed, 7)))
    return _assemble(factors, bounds, seed, recipe.dim, recipe.family)


@dataclass(frozen=True)
class Moves:
    """The random part of ``perturb(inst, scale, seed)`` for each of a run of
    seeds, drawn at once by ``draw_moves`` and applied a block at a time.

    That part depends on the seed, the scale and the factor structure of the
    instance, never on its values, so each move applies to any instance of
    that structure: to the one the run was drawn from, and to any move of it.
    """

    seeds: tuple[int, ...]
    noise: dict  # factor name -> its noise: stacked arrays, one row per seed (None if fixed)

    def apply(self, inst: Instance, start: int) -> "Block":
        """Moves ``start…`` composed with the factors of ``inst`` in one stacked
        operation per factor; row k of the block is ``perturb(inst, scale,
        seeds[k])``, bit for bit."""
        rows = slice(start, None)
        moved = {name: inst.internals[name].apply(noise, rows) for name, noise in self.noise.items()}
        fields = _fields(moved)
        for name, a in fields.items():
            if a.ndim == (1 if name == "x" else 2):  # a fixed factor's field: repeat it on a row axis
                fields[name] = a = np.broadcast_to(a, (len(self.seeds) - start, *a.shape))
            a.flags.writeable = False
        return Block(self, inst, start, moved, fields)


BlockRow = namedtuple("BlockRow", "S T bounds X Y x n", defaults=(None,) * 4)  # see Instance


class Block(NamedTuple):
    """Moves ``start…`` of ``moves`` applied to ``inst``: ``fields[name][k - start]``
    is field ``name`` of move k, for S, T and any of X, Y and x, in read-only
    stacks, and ``moved`` holds the stacked factors they were built from."""

    moves: Moves
    inst: Instance
    start: int
    moved: dict
    fields: dict

    def row(self, k: int) -> BlockRow:
        """Move k as a formula reads it, with n where it has x."""
        fields = {name: a[k - self.start] for name, a in self.fields.items()}
        return BlockRow(bounds=self.inst.bounds, **_with_n(fields))

    def instance(self, k: int) -> Instance:
        """Move k as a checked, copied Instance carrying its own factors."""
        internals, i = self.inst.internals, k - self.start
        factors = {name: f.row(internals[name], i) for name, f in self.moved.items()}
        return replace(self.inst, seed=self.moves.seeds[k], internals=factors, **self.row(k)._asdict())


def draw_moves(inst: Instance, scale: float, seeds: Sequence[int]) -> Moves:
    """Draw the moves ``perturb(inst, scale, seed)`` makes for each seed.

    Each seed keeps its own generator, and each generator is read in
    ``perturb``'s order: factors by name, each factor's draws in turn. One
    stacked eigendecomposition per factor with a basis builds the unitary
    steps of every move.
    """
    if scale <= 0:
        raise HypothesisError("perturb requires scale > 0")
    if inst.internals is None:
        raise HypothesisError("instance carries no generator internals; regenerate it via a recipe")
    rngs = [np.random.default_rng(derive_seed(seed, 0x9E27)) for seed in seeds]
    noise = {name: factor.draw(scale, rngs) for name, factor in sorted(inst.internals.items())}
    return Moves(tuple(seeds), noise)


def perturb(inst: Instance, scale: float, seed: int) -> Instance:
    """Random move of one instance.

    Spectra move by uniform noise of width ``scale`` clamped to their bands
    with endpoints re-pinned; bases and unitaries multiply by exp(K) for random
    skew-Hermitian K with |K| <= scale. Deterministic in (inst, scale, seed).
    """
    return draw_moves(inst, scale, (seed,)).apply(inst, 0).instance(0)


# ---------------------------------------------------------------------------
# JSON interchange


def _pair(e) -> complex:
    """The complex number a JSON [re, im] pair of two numbers stands for."""
    if len(e) != 2:
        raise ValueError(f"a pair has {len(e)} entries")
    return complex(*(_number(float, v, "a pair entry") for v in e))


def _from_pairs(value, name: str) -> np.ndarray:
    """Field ``name`` read from its JSON: x is a list of [re, im] pairs, a
    matrix {"rows": [[pair, ...], ...]}, and a pair is exactly two numbers."""
    if name == "x":
        rows, what = [value], "vector entries"
    elif isinstance(value, dict) and "rows" in value:
        rows, what = value["rows"], "matrix rows"
    else:
        raise InputError("matrix JSON must be an object with a 'rows' key")
    try:
        a = np.array([[_pair(e) for e in row] for row in rows], dtype=np.complex128)
    except (TypeError, LookupError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be [re, im] pairs: {exc}") from exc
    return a[0] if name == "x" else a


def _to_pairs(a: np.ndarray, name: str):
    """Field ``name`` in the JSON form ``_from_pairs`` reads."""
    pairs = np.stack([a.real, a.imag], axis=-1).tolist()
    return pairs if name == "x" else {"rows": pairs}


def instance_to_json(inst: Instance) -> dict:
    out = {
        "dim": int(inst.dim),
        "seed": int(inst.seed),
        "recipe": inst.recipe,
        "bounds": inst.bounds.to_json(),
    }
    for name in (*_MATRICES, "x"):
        a = getattr(inst, name)
        if a is not None:
            out[name] = _to_pairs(a, name)
    if inst.n is not None:
        out["n"] = float(inst.n)
    return out


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise InputError("instance JSON must be an object")
    for key in ("S", "T", "bounds"):
        if key not in obj:
            raise InputError(f"instance JSON is missing required key {key!r}")
    for key in obj:
        if key not in (*_MATRICES, "x", "n", "dim", "seed", "recipe", "bounds"):
            raise InputError(f"instance JSON has unknown key {key!r}")
    recipe = obj.get("recipe", "external")
    if not isinstance(recipe, str):
        raise InputError(f"recipe must be a string, not {type(recipe).__name__}")
    arrays = {name: _from_pairs(obj[name], name) for name in (*_MATRICES, "x") if name in obj}
    return Instance(
        dim=_number(int, obj.get("dim", len(arrays["S"])), "dim"),
        bounds=SpectralBounds.from_json(obj["bounds"]),
        seed=_number(int, obj.get("seed", 0), "seed"),
        recipe=recipe,
        n=_number(float, obj["n"], "n") if "n" in obj else None,
        **arrays,
    )
