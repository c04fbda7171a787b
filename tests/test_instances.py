import dataclasses
import json
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import derivations, instances
from commlab.catalog import CATALOG, evaluate, validate_hypotheses
from commlab.core import HypothesisError, InputError, classify, commutator, hermitian_eig, op_norm
from commlab.instances import (
    Instance,
    Recipe,
    RECIPE_FAMILIES,
    SpectralBounds,
    derive_seed,
    equality_example,
    instance_from_json,
    instance_to_json,
    make_instance,
    random_unitary,
)
from commlab.instances import _normal_factor
from commlab.search import perturb

seeds = st.integers(0, 2**32 - 1)


class TestSeedDerivation:
    def test_deterministic_and_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(0) != derive_seed(1)


class TestRandomUnitary:
    def test_dim_one_modulus(self):
        u = random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 8))
    def test_unitarity(self, seed, dim):
        u = random_unitary(dim, seed)
        assert op_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10

    def test_determinism(self):
        assert np.array_equal(random_unitary(5, 11), random_unitary(5, 11))

    def test_dim_zero(self):
        with pytest.raises(InputError):
            random_unitary(0, 1)


def _banded(dim, re_band, im_band, seed):
    """The banded generator behind every normal and hermitian recipe."""
    return _normal_factor(dim, re_band, im_band, seed).build()


class TestHermitianBanded:
    def test_forced_endpoints_dim_two(self):
        m = _banded(2, (0.0, 1.0), (0.0, 0.0), 4)
        np.testing.assert_allclose(
            sorted(hermitian_eig(m)), [0.0, 1.0], atol=1e-10
        )

    def test_spectrum_within_band(self):
        m = _banded(5, (-2.0, 3.0), (0.0, 0.0), 9)
        eigs = hermitian_eig(m)
        assert eigs.min() >= -2.0 - 1e-10 and eigs.max() <= 3.0 + 1e-10
        assert abs(eigs.min() + 2.0) <= 1e-10 and abs(eigs.max() - 3.0) <= 1e-10

    def test_degenerate_band(self):
        m = _banded(3, (4.0, 4.0), (0.0, 0.0), 0)
        np.testing.assert_allclose(m, 4.0 * np.eye(3), atol=1e-12)

    def test_errors(self):
        with pytest.raises(InputError):
            _banded(1, (0.0, 1.0), (0.0, 0.0), 0)


class TestNormalBanded:
    BOUNDS = SpectralBounds(a1=0.0, a2=1.0, b1=-1.0, b2=0.5, c1=0.0, c2=1.0, d1=-0.25, d2=0.75)

    def test_zero_bands(self):
        np.testing.assert_allclose(_banded(3, (0, 0), (0, 0), 1), np.zeros((3, 3)), atol=1e-12)

    def test_degenerate_scalar(self):
        np.testing.assert_allclose(_banded(4, (1, 1), (2, 2), 2), (1 + 2j) * np.eye(4), atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(2, 8), st.sampled_from(["ac", "bd"]))
    def test_normality_and_bands(self, seed, dim, bands):
        re_band, im_band = self.BOUNDS.band(bands[0]), self.BOUNDS.band(bands[1])
        m = _banded(dim, re_band, im_band, seed)
        assert classify(m).normal
        a = (m + m.conj().T) / 2
        c = (m - m.conj().T) / 2j
        re_eigs = hermitian_eig(a)
        im_eigs = hermitian_eig(c)
        assert re_eigs.min() >= re_band[0] - 1e-10 and re_eigs.max() <= re_band[1] + 1e-10
        assert im_eigs.min() >= im_band[0] - 1e-10 and im_eigs.max() <= im_band[1] + 1e-10
        # endpoints attained
        assert abs(re_eigs.min() - re_band[0]) <= 1e-9 and abs(re_eigs.max() - re_band[1]) <= 1e-9
        # cartesian parts commute
        scale = max(1.0, op_norm(a) * op_norm(c))
        assert op_norm(a @ c - c @ a) <= 1e-10 * scale


class TestSpectralBounds:
    def test_centers(self):
        b = SpectralBounds(a1=0, a2=2, b1=1, b2=3, c1=-1, c2=1, d1=0, d2=4)
        assert b.z == 1 + 0j and b.w == 2 + 2j
        assert (b.band("a"), b.band("b"), b.band("c"), b.band("d")) == ((0, 2), (1, 3), (-1, 1), (0, 4))

    def test_ordering_enforced(self):
        with pytest.raises(HypothesisError):
            SpectralBounds(a1=1, a2=0, b1=0, b2=0, c1=0, c2=0, d1=0, d2=0)


class TestEqualityExample:
    def test_matrices(self):
        inst = equality_example()
        np.testing.assert_array_equal(inst.S, [[1, 1], [1, -1]])
        np.testing.assert_array_equal(inst.T, [[0, 1], [1, 0]])
        assert inst.S[0, 1] == 1
        np.testing.assert_array_equal(inst.x, [0, 1])
        assert abs(np.linalg.norm(inst.x) - 1.0) <= 1e-12

    def test_commutator_norm_is_two(self):
        inst = equality_example()
        comm = commutator(inst.S, inst.T)
        np.testing.assert_allclose(comm, [[0, 2], [-2, 0]])
        assert op_norm(comm) == pytest.approx(2.0, abs=1e-12)
        assert inst.n == 2.0

    def test_assembled_from_its_factors(self):
        """Built like every generated instance: n comes from the factors."""
        inst = equality_example()
        assert set(inst.internals) == {"S", "T", "x"}
        for name in ("S", "T", "x"):
            np.testing.assert_array_equal(inst.internals[name].build(), getattr(inst, name))


class TestMakeInstance:
    def test_tied_pair_commutes(self):
        inst = make_instance(Recipe("inner-normal", 4), 5)
        assert op_norm(commutator(inst.S, inst.T)) == 0.0

    def test_positive_recipes_give_psd(self):
        inst = make_instance(Recipe("hermitian-psd", 4), 8)
        assert classify(inst.S).positive_semidefinite
        assert classify(inst.T).positive_semidefinite

    def test_xy_presence_and_shape(self):
        inst = make_instance(Recipe("normal", 3, x_kind="ginibre", with_y=True), 2)
        assert inst.X.shape == (3, 3) and inst.Y.shape == (3, 3)

    def test_pd_x(self):
        inst = make_instance(Recipe("hermitian", 4, x_kind="pd"), 3)
        eigs = hermitian_eig(inst.X)
        assert eigs.min() > 0

    def test_vector_and_n(self):
        inst = make_instance(Recipe("hermitian", 4, with_vector=True), 3)
        assert abs(np.linalg.norm(inst.x) - 1.0) <= 1e-12
        assert inst.n >= op_norm(commutator(inst.S, inst.T)) - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seeds, st.sampled_from([f for f in RECIPE_FAMILIES if f != "equality-example"]))
    def test_determinism_bitwise(self, seed, family):
        r = Recipe(family, 4, x_kind="ginibre", with_y=True, with_vector=True)
        a = make_instance(r, seed)
        b = make_instance(r, seed)
        assert np.array_equal(a.S, b.S) and np.array_equal(a.T, b.T)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.x, b.x) and a.n == b.n

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_unitary_family(self, seed):
        inst = make_instance(Recipe("unitary", 4), seed)
        for u in (inst.S, inst.T):
            assert op_norm(u.conj().T @ u - np.eye(4)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_commuting_family(self, seed):
        inst = make_instance(Recipe("commuting-normal", 4), seed)
        assert op_norm(commutator(inst.S, inst.T)) <= 1e-10
        assert classify(inst.S @ inst.T).normal

    def test_cartesian_family_parts_psd(self):
        inst = make_instance(Recipe("cartesian-psd", 4), 6)
        a = (inst.S + inst.S.conj().T) / 2
        c = (inst.S - inst.S.conj().T) / 2j
        assert classify(a).positive_semidefinite and classify(c).positive_semidefinite

    def test_unknown_family(self):
        with pytest.raises(InputError):
            Recipe("weird", 4)

    def test_equality_example_dim_guard(self):
        with pytest.raises(InputError):
            Recipe("equality-example", 3)

    def test_unknown_x_kind(self):
        with pytest.raises(InputError, match="x_kind must be None, 'ginibre' or 'pd', not 'psd'"):
            Recipe("normal", 3, x_kind="psd")


class TestInstanceValidation:
    """The constructor checks x and n as input; whether x is a unit vector and
    n bounds |ST-TS| are hypotheses of SCHWARZ_REVERSE, which refuses them."""

    def test_non_unit_vector_rejected(self):
        b = SpectralBounds(0, 1, 0, 1, 0, 1, 0, 1)
        s = np.eye(2, dtype=complex)
        inst = Instance(S=s, T=s, bounds=b, seed=0, dim=2, x=np.array([1.0, 1.0]), n=1.0)
        assert validate_hypotheses("SCHWARZ_REVERSE", inst) == ["x not unit"]

    def test_undersized_n_rejected(self):
        inst = dataclasses.replace(equality_example(), n=0.5)
        assert validate_hypotheses("SCHWARZ_REVERSE", inst) == ["n below commutator norm"]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, -np.inf)])
    def test_rejects_a_non_finite_matrix(self, entry):
        m = np.eye(2, dtype=complex)
        m[1, 0] = entry
        ok = np.eye(2, dtype=complex)
        b = SpectralBounds(0, 1, 0, 1, 0, 1, 0, 1)
        for name in ("S", "T", "X", "Y", "C"):
            fields = {"S": ok, "T": ok} | {name: m}
            with pytest.raises(InputError, match="non-finite"):
                Instance(bounds=b, seed=0, dim=2, **fields)

    def test_nothing_below_an_instance_checks_a_matrix_again(self, monkeypatch):
        # Instance is the one gate: evaluation, fp and the orthogonality tools trust its arrays
        insts = {entry_id: make_instance(e.recipe_for(None, 3), 0) for entry_id, e in CATALOG.items()}
        pair = make_instance(Recipe("inner-normal", 3), 0)
        spy = Mock(wraps=instances._checked)
        monkeypatch.setattr(instances, "_checked", spy)
        for entry_id, inst in insts.items():
            evaluate(entry_id, inst)
        derivations.check_fp_pair(pair.S, pair.T)
        op = derivations.lift_derivation(pair.S, pair.T)
        c = derivations.kernel_basis(op)[0].C
        derivations.min_distance_hs(op, c)
        derivations.orthogonality_probe_opnorm(op, c)
        assert spy.call_count == 0
        make_instance(Recipe("inner-normal", 3), 0)  # the spy sees the one gate
        assert spy.call_count == 2


def _instance_from(source: str) -> Instance:
    inst = make_instance(Recipe("hermitian", 3, x_kind="ginibre", with_y=True, with_vector=True), 4)
    if source == "instance_from_json":
        return instance_from_json(instance_to_json(inst) | {"C": instance_to_json(inst)["S"]})
    if source == "perturb":
        return perturb(inst, 0.1, 5)
    return inst


class TestImmutability:
    @pytest.mark.parametrize("source", ["make_instance", "instance_from_json", "perturb"])
    def test_arrays_are_read_only(self, source):
        inst = _instance_from(source)
        names = ("S", "T", "X", "Y", "x") + (("C",) if source == "instance_from_json" else ())
        for name in names:
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 99

    def test_caller_arrays_stay_writable(self):
        s = np.eye(2, dtype=complex)
        x = np.array([1.0, 0.0], dtype=complex)
        b = SpectralBounds(1, 1, 1, 1, 0, 0, 0, 0)
        inst = Instance(S=s, T=s, bounds=b, seed=0, dim=2, X=s, Y=s, C=s, x=x)
        s[0, 0] = 5.0
        x[0] = 0.0
        assert inst.S[0, 0] == 1.0 and inst.X[0, 0] == 1.0 and inst.x[0] == 1.0

    def test_fields_cannot_be_reassigned(self):
        inst = _instance_from("make_instance")
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.n = 0.0

    @pytest.mark.parametrize("source", ["make_instance", "perturb"])
    def test_internals_are_read_only(self, source):
        inst = _instance_from(source)
        with pytest.raises(ValueError):
            inst.internals["S"].u[0, 0] = 7
        with pytest.raises(TypeError):
            inst.internals["X"] = 1

    @pytest.mark.parametrize("family", RECIPE_FAMILIES)
    def test_every_factor_array_is_read_only(self, family):
        with_xy = family != "equality-example"
        x_kind = "ginibre" if with_xy else None
        recipe = Recipe(family, 2 if family == "equality-example" else 3, x_kind=x_kind, with_y=with_xy)
        inst = make_instance(recipe, 1)
        for moved in (inst, perturb(inst, 0.1, 2)):
            arrays = _arrays_in(list(moved.internals.values()))
            assert arrays and not any(a.flags.writeable for a in arrays)


def _arrays_in(value) -> list:
    """Every numpy array held by a factor, its fields, or a sequence of them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays_in(v)]
    if dataclasses.is_dataclass(value):
        return _arrays_in([getattr(value, f.name) for f in dataclasses.fields(value)])
    return []


# matrix sizes at which the stacked linear algebra of a block of moves must
# slice to exactly the per-matrix results
STACK_DIMS = (2, 3, 4, 8, 16)


class TestStackedLinearAlgebraIsBitIdentical:
    """A block of moves relies on stacked ``eigh`` and ``@`` giving, slice by
    slice, the bits of one call per matrix; a BLAS or LAPACK build where that
    fails would change search artifacts. Reductions (such as a norm along an
    axis) sum in another order and are kept per vector instead."""

    @staticmethod
    def _stack(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_eigh(self, n):
        g = self._stack(n, n)
        h = g + g.conj().swapaxes(-1, -2)
        vals, vecs = np.linalg.eigh(h)
        for k in range(len(h)):
            one_vals, one_vecs = np.linalg.eigh(h[k].copy())
            assert np.array_equal(vals[k], one_vals) and np.array_equal(vecs[k], one_vecs)

    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_stacked_and_broadcast_matmul(self, n):
        a, b = self._stack(n, n), self._stack(n, n + 100)
        stacked = a @ b.conj().swapaxes(-1, -2)
        broadcast = a[0] @ b
        for k in range(len(a)):
            assert np.array_equal(stacked[k], a[k].copy() @ b[k].copy().conj().T)
            assert np.array_equal(broadcast[k], a[0].copy() @ b[k].copy())


class TestJsonInterchange:
    def test_round_trip(self):
        inst = make_instance(Recipe("normal", 3, x_kind="ginibre", with_y=True, with_vector=True), 12)
        blob = json.dumps(instance_to_json(inst))
        back = instance_from_json(json.loads(blob))
        assert np.array_equal(inst.S, back.S) and np.array_equal(inst.T, back.T)
        assert np.array_equal(inst.X, back.X) and np.array_equal(inst.Y, back.Y)
        assert np.array_equal(inst.x, back.x)
        assert inst.n == back.n and inst.seed == back.seed and inst.recipe == back.recipe
        assert inst.bounds == back.bounds

    def test_missing_keys(self):
        with pytest.raises(InputError):
            instance_from_json({"S": {"rows": [[[1, 0]]]}})

    @pytest.mark.parametrize("obj", [5, None])
    def test_not_an_object(self, obj):
        with pytest.raises(InputError):
            instance_from_json(obj)

    def test_malformed_matrix(self):
        with pytest.raises(InputError):
            instance_from_json(
                {"S": {"rows": [[1, 2]]}, "T": {"rows": [[[0, 0]]]}, "bounds": {}}
            )

    def test_fingerprint_fields(self):
        inst = make_instance(Recipe("normal", 3), 7)
        fp = inst.fingerprint()
        assert fp.seed == 7 and fp.dim == 3 and fp.recipe == "normal"
        assert len(fp.to_json()["recipe_hash"]) == 12
