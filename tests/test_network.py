import numpy as np
import pytest

from mgflow import (
    Architecture,
    ParamVector,
    TargetFunction,
    abs_offset_target,
    discrete_measure,
    exact_breakpoints,
    forward,
    hidden_mean,
    random_params,
    realize,
    rescale_full,
    risk,
    uniform_measure,
)
from mgflow.quadrature import quadrature_nodes
from mgflow.smoothing import INF, smoothed_act

MU = uniform_measure(0, 1, 1)
ARCH = Architecture((1, 1, 1))


def tiny(values):
    return ParamVector(ARCH, np.asarray(values, dtype=float))


class TestForward:
    def test_positive_preactivation_passes_through(self):
        pres, acts = forward(tiny([1, 0, 1, 0]), 0.5)
        assert pres[0][0] == pytest.approx(0.5)
        assert acts[0][0] == pytest.approx(0.5)

    def test_negative_preactivation_clamped(self):
        _, acts = forward(tiny([1, -1, 1, 0]), 0.5)
        assert acts[0][0] == 0.0

    def test_two_hidden_units(self):
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, np.array([1.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
        _, acts = forward(theta, 0.25)
        np.testing.assert_allclose(acts[0][0], [0.25, 0.75])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(tiny([1, 0, 1, 0]), np.zeros((3, 2)))


class TestHiddenMean:
    def test_relu_ramp(self):
        assert hidden_mean(tiny([1, 0, 9, 9]), MU)[0] == pytest.approx(0.5)

    def test_shifted_ramp(self):
        # int_0^1 max(s - 1/2, 0) ds = 1/8
        assert hidden_mean(tiny([1, -0.5, 9, 9]), MU)[0] == pytest.approx(0.125, abs=1e-15)

    def test_zero_mass_discrete_measure(self):
        mu0 = discrete_measure(np.zeros((0, 1)), np.zeros(0))
        np.testing.assert_array_equal(hidden_mean(tiny([1, 0, 1, 0]), mu0), [0.0])

    def test_integral_not_mass_normalized(self):
        mu2 = uniform_measure(0, 2, 1)  # total mass 2
        assert hidden_mean(tiny([1, 0, 9, 9]), mu2)[0] == pytest.approx(2.0)


class TestRealize:
    def test_zero_weights_output_is_final_bias(self):
        theta = tiny([0.0, 0.7, 0.0, 5.0])
        for x in (0.0, 0.3, 1.0):
            assert realize(theta, x, MU)[0] == pytest.approx(5.0)

    def test_centered_ramp(self):
        assert realize(tiny([1, 0, 1, 0]), 0.75, MU)[0] == pytest.approx(0.25)

    def test_rescaling_agrees_at_sample_points(self):
        theta = tiny([3, 4, 2, 5])
        scaled = rescale_full(theta)
        np.testing.assert_allclose(scaled.values, [0.6, 0.8, 10.0, 5.0])
        for x in (0.0, 0.5, 1.0):
            assert realize(theta, x, MU)[0] == pytest.approx(realize(scaled, x, MU)[0])

    def test_rescaling_invariance_with_dead_neuron(self):
        arch = Architecture((1, 3, 1))
        rng = np.random.default_rng(4)
        theta = random_params(arch, rng)
        theta.values[arch.subvector_rows[0][1]] = 0.0  # hidden neuron (1, 2)
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(
            realize(theta, grid, MU), realize(rescale_full(theta), grid, MU), atol=1e-12
        )


class TestRisk:
    def test_zero_residual(self):
        theta = tiny([1, 0, 1, 0])
        grid = np.linspace(0, 1, 33)
        vals = realize(theta, grid, MU)[:, 0]
        f = TargetFunction(lambda X: np.interp(X[:, 0], grid, vals), breakpoints=grid)
        assert risk(theta, MU, f) == pytest.approx(0.0, abs=1e-12)

    def test_centered_ramp_against_zero(self):
        assert risk(tiny([1, 0, 1, 0]), MU, TargetFunction.zero()) == pytest.approx(1.0 / 12.0)

    def test_zero_output_layer(self):
        assert risk(tiny([1, 0, 0, 0]), MU, TargetFunction.zero()) == pytest.approx(0.0)

    def test_invariant_under_hidden_permutation(self):
        rng = np.random.default_rng(5)
        arch = Architecture((1, 4, 1))
        f = TargetFunction.zero()
        for _ in range(10):
            theta = random_params(arch, rng)
            perm = rng.permutation(4)
            permuted = theta.copy()
            permuted.weights(1)[:] = theta.weights(1)[perm]
            permuted.biases(1)[:] = theta.biases(1)[perm]
            permuted.weights(2)[:] = theta.weights(2)[:, perm]
            assert risk(permuted, MU, f) == pytest.approx(risk(theta, MU, f), rel=1e-12)

    def test_smoothed_risk_converges_to_exact(self):
        rng = np.random.default_rng(6)
        arch = Architecture((1, 3, 1))
        f = TargetFunction.zero()
        for _ in range(5):
            theta = random_params(arch, rng)
            exact = risk(theta, MU, f)
            gaps = [abs(risk(theta, MU, f, r=r) - exact) for r in (10.0, 1e3, 1e6)]
            assert gaps[2] <= gaps[0] + 1e-15
            assert gaps[2] <= 1e-9 * (1 + exact)

    def test_multivariate_grid_path(self):
        arch = Architecture((2, 3, 2))
        rng = np.random.default_rng(7)
        theta = random_params(arch, rng)
        mu2 = uniform_measure(0, 1, 2)
        f = TargetFunction.zero(out_dim=2)
        val = risk(theta, mu2, f, resolution=24)
        assert np.isfinite(val) and val >= 0.0


# A risk pass that folds each layer's biases itself: it joins the weight
# block W_k and the bias vector b_k of the parameter vector into [W_k | b_k],
# appends a row of ones to the layer's input, and takes one np.matmul per
# layer, the reduction the folded pass takes.  The separate form W_k h + b_k
# rounds otherwise under some OpenBLAS kernels (by 1 ulp under Haswell and
# Zen), so only the same reduction gives the same bits under every kernel.
def _ref_folded(theta: ParamVector, k: int, h: np.ndarray) -> np.ndarray:
    V = np.hstack([theta.weights(k), theta.biases(k)[:, None]])
    return V @ np.vstack([h, np.ones((1, h.shape[1]))])


def _ref_risk_pass(theta: ParamVector, X: np.ndarray, w: np.ndarray, f: TargetFunction, r) -> float:
    h = X.T
    for k in range(1, theta.arch.depth):
        h = smoothed_act(r, _ref_folded(theta, k, h))
    R = _ref_folded(theta, theta.arch.depth, h - (h @ w)[:, None]) - f(X).T
    return float(sum(np.vecdot(R * R, w)))  # vecdot: the kernel of row @ w, per row


class TestFoldedBiases:
    CASES = {
        "1,8,1 exact": ((1, 8, 1), MU, None),
        "2,4,4,1 grid 4": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 4),
        "2,4,4,1 grid 128": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 128),
        "1,3,3,1 grid 64": ((1, 3, 3, 1), MU, 64),
    }

    @pytest.mark.parametrize("r", [INF, 50.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_risk_equals_the_separate_bias_pass_bit_for_bit(self, case, r):
        dims, measure, resolution = self.CASES[case]
        if dims[0] == 1:
            f = TargetFunction.from_scalar(abs_offset_target(0.3))
        else:
            f = TargetFunction.affine_map([[0.5, -0.25]], [0.1])
        rng = np.random.default_rng(20)
        for _ in range(10):
            theta = random_params(Architecture(dims), rng)
            bp = exact_breakpoints(theta, f.breakpoints, r)
            X, w = quadrature_nodes(measure, breakpoints=bp, resolution=resolution)
            expected = _ref_risk_pass(theta, X, w, f, r)
            assert risk(theta, measure, f, r=r, resolution=resolution) == expected
