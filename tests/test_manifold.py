import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mgflow import (
    Architecture,
    ParamVector,
    max_constraint_deviation,
    min_subvector_norm,
    project_gradient,
    random_params,
    renormalize,
    rescale_cascade,
    rescale_full,
    rescale_layer,
    rho,
)
from mgflow.manifold import _unit_rows, zero_rows
from mgflow.quadrature import quiet


def _hidden_rows(arch):
    """The flat positions of every hidden row [W_k | b_k], neuron (k, i) by
    neuron, in the order k = 1..L-1, i = 1..l_k."""
    return [idx for rows in arch.subvector_rows[:-1] for idx in rows]


def _normal(theta, idx):
    """The gradient of psi = |V|^2 for the hidden row V at idx: 2V on the
    row, zero elsewhere."""
    out = np.zeros(theta.arch.param_count)
    out[idx] = 2.0 * theta.values[idx]
    return out


class TestRho:
    def test_unit_normalization(self):
        np.testing.assert_allclose(rho(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(rho(np.zeros(3)), np.zeros(3))

    @given(arrays(float, 4, elements=st.floats(-1e6, 1e6)))
    @example(np.array([6.8e-162] * 4))  # squares are subnormal: needs the scaled norm
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_unit_or_zero(self, x):
        y = rho(x)
        n = np.linalg.norm(y)
        assert n == pytest.approx(1.0, abs=1e-9) or n == 0.0
        np.testing.assert_allclose(rho(y), y, atol=1e-12)


class TestConstraints:
    def test_values_and_gradient(self):
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([3.0, 4.0, 2.0, 5.0]))
        idx = arch.subvector_rows[0][0]
        np.testing.assert_array_equal(idx, [0, 1])
        assert _unit_rows(theta.values[arch.subvector_rows[0]])[2][0] == pytest.approx(25.0)
        np.testing.assert_allclose(_normal(theta, idx), [6.0, 8.0, 0.0, 0.0])

    def test_zero_subvector(self):
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch)
        idx = arch.subvector_rows[0][0]
        # the test is the kernel's caller, so it sets the error state
        assert quiet(_unit_rows)(theta.values[arch.subvector_rows[0]])[2][0] == 0.0
        np.testing.assert_array_equal(_normal(theta, idx), np.zeros(arch.param_count))
        raw = np.arange(1.0, arch.param_count + 1)  # a zero normal removes nothing
        np.testing.assert_array_equal(project_gradient(theta, raw)[idx], raw[idx])

    def test_distinct_keys_have_orthogonal_gradients(self):
        rng = np.random.default_rng(20)
        arch = Architecture((2, 3, 2, 1))
        theta = random_params(arch, rng)
        rows = _hidden_rows(arch)
        sizes = [arch.layer_dims[k - 1] + 1 for k in range(1, arch.depth) for _ in range(arch.layer_dims[k])]
        assert [idx.size for idx in rows] == sizes
        assert np.unique(np.concatenate(rows)).size == sum(sizes)  # disjoint rows
        for a, ia in enumerate(rows):
            ga = _normal(theta, ia)
            assert np.count_nonzero(ga) <= ia.size
            for b, ib in enumerate(rows):
                if a != b:
                    assert ga @ _normal(theta, ib) == 0.0


class TestProjection:
    def test_annihilates_constraint_normal(self):
        rng = np.random.default_rng(21)
        arch = Architecture((1, 3, 1))
        theta = random_params(arch, rng)
        idx = arch.subvector_rows[0][1]
        out = project_gradient(theta, _normal(theta, idx))
        np.testing.assert_allclose(out[idx], 0.0, atol=1e-14)

    def test_output_layer_coordinates_untouched(self):
        rng = np.random.default_rng(22)
        arch = Architecture((1, 3, 1))
        theta = random_params(arch, rng)
        raw = np.zeros(arch.param_count)
        out_idx = arch.subvector_rows[1][0]
        raw[out_idx] = rng.standard_normal(out_idx.size)
        np.testing.assert_array_equal(project_gradient(theta, raw), raw)

    def test_orthogonal_to_every_normal(self):
        rng = np.random.default_rng(23)
        arch = Architecture((2, 4, 3, 1))
        for _ in range(50):
            theta = rescale_full(random_params(arch, rng))
            raw = rng.standard_normal(arch.param_count)
            proj = project_gradient(theta, raw)
            for idx in _hidden_rows(arch):
                assert abs(proj @ _normal(theta, idx)) <= 1e-12

    def test_idempotent_self_adjoint_contraction(self):
        rng = np.random.default_rng(24)
        arch = Architecture((1, 4, 2))
        theta = random_params(arch, rng)
        u = rng.standard_normal(arch.param_count)
        v = rng.standard_normal(arch.param_count)
        Pu = project_gradient(theta, u)
        np.testing.assert_allclose(project_gradient(theta, Pu), Pu, atol=1e-13)
        assert Pu @ v == pytest.approx(u @ project_gradient(theta, v), abs=1e-12)
        assert np.linalg.norm(Pu) <= np.linalg.norm(u) + 1e-14

    def test_normalized_and_raw_normal_forms_coincide(self):
        # <rho(n), g> rho(n) equals <n, g> n / |n|^2 for any nonzero n: the
        # two published forms of the projection are the same map
        rng = np.random.default_rng(25)
        arch = Architecture((1, 3, 1))
        theta = random_params(arch, rng)
        raw = rng.standard_normal(arch.param_count)
        manual = raw.copy()
        for idx in _hidden_rows(arch):
            n = _normal(theta, idx)
            manual -= (n @ manual) / (n @ n) * n
        np.testing.assert_allclose(project_gradient(theta, raw), manual, atol=1e-13)

    def test_wrong_length_rejected(self):
        theta = ParamVector(Architecture((1, 1, 1)))
        with pytest.raises(ValueError):
            project_gradient(theta, np.zeros(3))


class TestRenormalize:
    def test_fixed_point_on_unit_vectors(self):
        rng = np.random.default_rng(26)
        theta = rescale_full(random_params(Architecture((1, 3, 1)), rng))
        np.testing.assert_allclose(renormalize(theta).values, theta.values, atol=1e-15)

    def test_componentwise_normalization(self):
        theta = ParamVector(Architecture((1, 1, 1)), np.array([3.0, 4.0, 2.0, 5.0]))
        np.testing.assert_allclose(renormalize(theta).values, [0.6, 0.8, 2.0, 5.0])

    def test_zero_subvector_stays_zero(self):
        # layout of (1,2,1): (w11, w12, b11, b12, w2, w2', b2)
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, np.array([0.0, 3.0, 0.0, 4.0, 1.0, 1.0, 0.0]))
        out = renormalize(theta)
        np.testing.assert_array_equal(out.values[arch.subvector_rows[0][0]], [0.0, 0.0])
        np.testing.assert_allclose(out.values[arch.subvector_rows[0][1]], [0.6, 0.8])

    def test_involution_property(self):
        rng = np.random.default_rng(27)
        theta = random_params(Architecture((2, 3, 2, 2)), rng)
        once = renormalize(theta)
        np.testing.assert_allclose(renormalize(once).values, once.values, atol=1e-15)


class TestRescaleCascade:
    def test_single_layer_example(self):
        theta = ParamVector(Architecture((1, 1, 1)), np.array([3.0, 4.0, 2.0, 5.0]))
        np.testing.assert_allclose(rescale_layer(theta, 1).values, [0.6, 0.8, 10.0, 5.0])

    def test_identity_on_normalized_vectors(self):
        rng = np.random.default_rng(28)
        theta = rescale_full(random_params(Architecture((1, 4, 2, 1)), rng))
        np.testing.assert_allclose(rescale_full(theta).values, theta.values, atol=1e-15)

    def test_zero_subvector_scales_outgoing_weights_to_zero(self):
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, np.array([0.0, 3.0, 0.0, 4.0, 2.0, -1.0, 0.5]))
        out = rescale_layer(theta, 1)
        assert out.weights(2)[0, 0] == 0.0
        assert out.weights(2)[0, 1] == pytest.approx(-5.0)
        np.testing.assert_array_equal(out.values[arch.subvector_rows[0][0]], [0.0, 0.0])

    def test_full_cascade_is_the_layer_composition(self):
        rng = np.random.default_rng(29)
        arch = Architecture((2, 3, 4, 2))
        theta = random_params(arch, rng)
        step = rescale_layer(rescale_layer(theta, 1), 2)
        np.testing.assert_array_equal(rescale_full(theta).values, step.values)
        np.testing.assert_array_equal(rescale_cascade(theta, 0).values, theta.values)

    def test_every_cascade_stage_preserves_realization(self):
        from mgflow import realize, uniform_measure

        rng = np.random.default_rng(44)
        arch = Architecture((2, 4, 4, 1))
        mu = uniform_measure(0, 1, 2)
        theta = random_params(arch, rng)
        grid = rng.uniform(0, 1, (60, 2))
        base = realize(theta, grid, mu, resolution=16)
        for k in (1, 2):
            staged = realize(rescale_cascade(theta, k), grid, mu, resolution=16)
            np.testing.assert_allclose(staged, base, atol=1e-12)

    def test_unit_norms_after_cascade(self):
        rng = np.random.default_rng(30)
        for dims in ((1, 1, 1), (1, 8, 1), (2, 4, 4, 1)):
            arch = Architecture(dims)
            out = rescale_full(random_params(arch, rng))
            assert max_constraint_deviation(out) <= 1e-12

    def test_cascade_index_range(self):
        theta = ParamVector(Architecture((1, 2, 1)))
        with pytest.raises(ValueError):
            rescale_layer(theta, 2)
        with pytest.raises(ValueError):
            rescale_cascade(theta, 5)


class TestScaleSafeNorms:
    # layout of (1,2,1): (w11, w12, b11, b12, w2, w2', b2); the first hidden
    # subvector (w11, b11) = (3e-170, 4e-170) has norm 5e-170, but its squares
    # underflow to zero
    TINY = np.array([3e-170, 1.0, 4e-170, 0.0, 2.0, -1.0, 0.5])

    def test_min_subvector_norm(self):
        theta = ParamVector(Architecture((1, 2, 1)), self.TINY.copy())
        assert min_subvector_norm(theta) == pytest.approx(5e-170, rel=1e-15, abs=0)

    def test_zero_rows_counts_exact_zeros_of_finite_hidden_rows(self):
        # the tiny row is not zero, although its squares underflow
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, self.TINY.copy())
        assert zero_rows(theta) == 0
        theta.values[arch.subvector_rows[0][1]] = 0.0
        assert zero_rows(theta) == 1
        theta.values[arch.subvector_rows[1][0]] = 0.0  # the output row never counts
        assert zero_rows(theta) == 1
        theta.values[0] = np.nan
        assert zero_rows(theta) == 0

    def test_projection_is_tangent(self):
        theta = ParamVector(Architecture((1, 2, 1)), self.TINY.copy())
        raw = np.array([1.0, 2.0, -0.2, 3.0, 4.0, 5.0, 6.0])
        out = project_gradient(theta, raw)
        assert abs(0.6 * out[0] + 0.8 * out[2]) <= 1e-15
        np.testing.assert_array_equal(out[4:], raw[4:])

    def test_rescale_absorbs_the_true_norm(self):
        out = rescale_layer(ParamVector(Architecture((1, 2, 1)), self.TINY.copy()), 1)
        np.testing.assert_allclose(out.values[out.arch.subvector_rows[0][0]], [0.6, 0.8], rtol=1e-15)
        assert out.weights(2)[0, 0] == pytest.approx(1e-169, rel=1e-15, abs=0)

    def test_huge_subvector(self):
        # the squares of (3e300, 4e300) overflow
        theta = ParamVector(Architecture((1, 2, 1)), np.array([3e300, 1.0, 4e300, 0.0, 2.0, -1.0, 0.5]))
        out = rescale_layer(theta, 1)
        np.testing.assert_allclose(out.values[out.arch.subvector_rows[0][0]], [0.6, 0.8], rtol=1e-15)
        assert out.weights(2)[0, 0] == pytest.approx(1e301, rel=1e-15, abs=0)
        np.testing.assert_array_equal(renormalize(theta).values[:4], out.values[:4])


def _per_neuron_reference(theta, raw):
    """Projection, renormalization and max |psi - 1| one neuron at a time."""
    arch = theta.arch
    proj = np.array(raw, dtype=float)
    unit = theta.copy()
    devs = []
    for idx in _hidden_rows(arch):
        u = rho(_normal(theta, idx)[idx])
        proj[idx] -= (u @ proj[idx]) * u
        unit.values[idx] = rho(theta.values[idx])
        devs.append(abs(theta.values[idx] @ theta.values[idx] - 1.0))
    return proj, unit.values, float(np.max(devs))


class TestRowwiseAgainstPerNeuron:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 8, 1), (2, 4, 4, 1), (3, 2, 3, 2)]),
           st.sampled_from(["none", "zero", "nan", "inf"]))
    @settings(max_examples=60, deadline=None)
    def test_agree_within_rounding(self, seed, dims, special):
        rng = np.random.default_rng(seed)
        arch = Architecture(dims)
        theta = random_params(arch, rng, scale=rng.choice([1e-3, 1.0, 1e3]))
        raw = rng.standard_normal(arch.param_count)
        rows = _hidden_rows(arch)
        idx = rows[rng.integers(len(rows))]
        if special != "none":
            value = {"zero": 0.0, "nan": np.nan, "inf": np.inf}[special]
            theta.values[idx] = value
        proj, unit, dev = _per_neuron_reference(theta, raw)
        np.testing.assert_allclose(project_gradient(theta, raw), proj, rtol=0, atol=1e-15)
        np.testing.assert_allclose(renormalize(theta).values, unit, rtol=0, atol=1e-15)
        np.testing.assert_allclose(max_constraint_deviation(theta), dev, rtol=0, atol=1e-15)
        if special == "zero":  # stays zero and leaves the gradient alone
            assert not renormalize(theta).values[idx].any()
            np.testing.assert_array_equal(project_gradient(theta, raw)[idx], raw[idx])
        if special in ("nan", "inf"):  # nan, as from rho
            assert np.isnan(renormalize(theta).values[idx]).all()
            assert np.isnan(project_gradient(theta, raw)[idx]).all()


# how the retraction test alters one hidden row [W_k | b_k]: tiny and huge
# rows take the scaled path
_ROW_CASES = ("keep", "zero", "tiny", "huge", "inf", "nan")
_RETRACTION_DRAWS = st.sampled_from([(1, 8, 1), (2, 4, 4, 1), (1, 3, 3, 1)]).flatmap(
    lambda dims: st.tuples(st.just(dims), st.lists(st.sampled_from(_ROW_CASES), min_size=sum(dims[1:-1]),
                                                   max_size=sum(dims[1:-1]))))


class TestRowFormRetraction:
    @given(st.integers(0, 2**32 - 1), _RETRACTION_DRAWS)
    @example(0, ((1, 8, 1), ["zero", "nan"] + ["keep"] * 6))  # a nan row cancels the count
    @example(0, ((1, 3, 3, 1), ["zero", "huge", "tiny", "zero", "keep", "inf"]))
    @example(0, ((2, 4, 4, 1), ["zero", "huge", "tiny", "keep"] * 2))
    @settings(max_examples=300, deadline=None)
    def test_equals_renormalize_and_zero_rows_bit_for_bit(self, seed, draw):
        from mgflow.manifold import _retract

        dims, cases = draw
        arch = Architecture(dims)
        rng = np.random.default_rng(seed)
        theta = random_params(arch, rng)
        rows = [idx for layer in arch.subvector_rows[:-1] for idx in layer]
        for idx, case in zip(rows, cases):
            if case in ("zero", "tiny", "huge"):
                theta.values[idx] *= {"zero": 0.0, "tiny": 1e-160, "huge": 1e160}[case]
            elif case != "keep":
                theta.values[idx[rng.integers(idx.size)]] = np.inf if case == "inf" else np.nan

        values, zeros = quiet(_retract)(arch, theta.values)  # the caller sets the error state
        unit = renormalize(theta)
        assert values.tobytes() == unit.values.tobytes()
        assert zeros == zero_rows(unit)
        # independent references: rho row by row, and a zero row being one
        # with no nonzero entry, counted only when every hidden entry is finite
        expected = theta.values.copy()
        for idx in rows:
            expected[idx] = rho(theta.values[idx])
        assert values.tobytes() == expected.tobytes()
        finite = all(np.isfinite(values[idx]).all() for idx in rows)
        assert zeros == (sum(not values[idx].any() for idx in rows) if finite else 0)
        assert zeros == (0 if {"inf", "nan"} & set(cases) else cases.count("zero"))
