import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgflow import (
    Architecture,
    ParamVector,
    TargetFunction,
    abs_offset_target,
    discrete_measure,
    fd_gradient,
    generalized_gradient,
    gradient_convergence_flag,
    random_params,
    risk,
    risk_and_gradient,
    smoothed_act,
    smoothed_act_deriv,
    uniform_measure,
)
from mgflow.smoothing import INF, activation_knots

MU = uniform_measure(0, 1, 1)


class TestSmoothedActivation:
    def test_exact_relu(self):
        assert smoothed_act(INF, -2.0) == 0.0
        assert smoothed_act(INF, 2.0) == 2.0
        assert smoothed_act_deriv(INF, 0.0) == 0.0  # left-continuous convention

    def test_knot_matching(self):
        # C^1 at the upper knot x = 1/r
        assert smoothed_act(2, 0.5) == pytest.approx(0.5)
        assert smoothed_act_deriv(2, 0.5) == pytest.approx(1.0)
        assert smoothed_act(2, 0.0) == 0.0
        assert smoothed_act_deriv(2, 0.0) == 0.0

    def test_cubic_piece_values(self):
        assert smoothed_act(2, 0.25) == pytest.approx(3.0 / 16.0)
        assert smoothed_act_deriv(2, 0.25) == pytest.approx(5.0 / 4.0)

    def test_c1_continuity_numerically(self):
        for r in (1, 3, 50):
            for knot in activation_knots(r):
                left = smoothed_act_deriv(r, knot - 1e-9)
                right = smoothed_act_deriv(r, knot + 1e-9)
                assert abs(left - right) < 1e-6

    def test_uniform_derivative_bound(self):
        x = np.linspace(-1, 1, 20001)
        for r in (1, 2, 10, 1000):
            assert np.max(np.abs(smoothed_act_deriv(r, x))) <= 4.0 / 3.0 + 1e-12

    def test_eventually_exact_pointwise(self):
        for x in (-1.0, -1e-3, 0.0, 1e-3, 0.5, 2.0):
            r_big = 1.0 / abs(x) + 1 if x != 0 else 1
            assert smoothed_act(r_big * 2, x) == pytest.approx(max(x, 0.0), abs=0)
            assert smoothed_act_deriv(r_big * 2, x) == (1.0 if x > 0 else 0.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            smoothed_act(0.5, 1.0)


class TestGeneralizedGradient:
    def test_dead_network_has_zero_hidden_gradient(self):
        arch = Architecture((1, 2, 1))
        theta = ParamVector(arch, np.array([1.0, 0.5, -2.0, -2.0, 1.0, 1.0, 0.3]))
        # both pre-activations stay below -1 on [0, 1]
        g = generalized_gradient(theta, MU, TargetFunction.zero())
        np.testing.assert_array_equal(g[:4], 0.0)
        assert g[6] != 0.0  # output bias still sees the residual

    def test_ramp_output_weight_component(self):
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([1.0, 0.0, 1.0, 0.0]))
        g = generalized_gradient(theta, MU, TargetFunction.zero())
        assert g[2] == pytest.approx(1.0 / 6.0)

    def test_smoothing_inactive_when_preactivations_clear_the_band(self):
        # every pre-activation stays above 1/r on the support, so the smoothed
        # family coincides with exact ReLU and the gradients agree to rounding
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([0.3, 0.5, 1.2, -0.1]))
        f = TargetFunction.from_scalar(abs_offset_target(0.3))
        exact = generalized_gradient(theta, MU, f)
        smooth = generalized_gradient(theta, MU, f, r=10)
        np.testing.assert_allclose(smooth, exact, atol=1e-14)

    def test_smoothed_matches_exact_away_from_kinks(self):
        rng = np.random.default_rng(8)
        arch = Architecture((1, 4, 1))
        f = TargetFunction.from_scalar(abs_offset_target(0.3))
        for _ in range(10):
            theta = random_params(arch, rng)
            exact = generalized_gradient(theta, MU, f)
            smooth = generalized_gradient(theta, MU, f, r=1e6)
            assert np.linalg.norm(smooth - exact) <= 1e-6 * (1 + np.linalg.norm(exact))

    def test_mean_term_matters(self):
        # dropping the centering correction must change the gradient
        rng = np.random.default_rng(9)
        arch = Architecture((1, 3, 1))
        f = TargetFunction.from_scalar(abs_offset_target(0.4))
        theta = random_params(arch, rng)
        g = generalized_gradient(theta, MU, f, r=200)
        fd = fd_gradient(theta, MU, f, r=200, h=1e-6)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_convergence_flag_on_smooth_region(self):
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([1.0, 0.5, 1.0, 0.0]))  # active everywhere
        assert gradient_convergence_flag(theta, MU, TargetFunction.zero())


class TestFiniteDifferences:
    def test_exact_on_output_layer_coordinates(self):
        # the risk is a quadratic in the output-layer parameters, so central
        # differences there are exact to rounding
        rng = np.random.default_rng(10)
        arch = Architecture((1, 2, 1))
        f = TargetFunction.from_scalar(abs_offset_target(0.3))
        theta = random_params(arch, rng)
        g = generalized_gradient(theta, MU, f, r=50)
        fd = fd_gradient(theta, MU, f, r=50, h=1e-5)
        np.testing.assert_allclose(fd[4:], g[4:], atol=1e-9)

    def test_matches_analytic_at_default_tolerance(self):
        rng = np.random.default_rng(11)
        arch = Architecture((1, 3, 1))
        f = TargetFunction.from_scalar(abs_offset_target(0.6))
        worst = 0.0
        for _ in range(10):
            theta = random_params(arch, rng)
            g = generalized_gradient(theta, MU, f, r=100)
            fd = fd_gradient(theta, MU, f, r=100, h=1e-5)
            worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
        assert worst <= 1e-4

    def test_rejects_exact_relu(self):
        theta = ParamVector(Architecture((1, 1, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            fd_gradient(theta, MU, TargetFunction.zero(), r=math.inf, h=1e-5)

    def test_rejects_bad_step(self):
        theta = ParamVector(Architecture((1, 1, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            fd_gradient(theta, MU, TargetFunction.zero(), r=10, h=0.0)


class TestQuadratureConsistency:
    def test_gradient_uses_same_nodes_as_risk(self):
        # the gradient must be the exact gradient of the discretized risk,
        # including on the fixed-grid path
        rng = np.random.default_rng(12)
        arch = Architecture((2, 3, 1))
        mu2 = uniform_measure(0, 1, 2)
        f = TargetFunction.zero()
        theta = random_params(arch, rng)
        g = generalized_gradient(theta, mu2, f, r=100, resolution=16)
        fd = fd_gradient(theta, mu2, f, r=100, h=1e-5, resolution=16)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_deep_network_gradient_finite(self):
        rng = np.random.default_rng(13)
        arch = Architecture((1, 3, 2, 1))
        theta = random_params(arch, rng)
        g = generalized_gradient(theta, MU, TargetFunction.zero(), resolution=256)
        assert np.all(np.isfinite(g)) and g.shape == (theta.arch.param_count,)
        val = risk(theta, MU, TargetFunction.zero(), resolution=256)
        assert np.isfinite(val)

    def test_deep_network_fd_consistency(self):
        rng = np.random.default_rng(14)
        arch = Architecture((1, 3, 2, 1))
        f = TargetFunction.from_scalar(abs_offset_target(0.4))
        worst = 0.0
        for _ in range(5):
            theta = random_params(arch, rng)
            g = generalized_gradient(theta, MU, f, r=100, resolution=128)
            fd = fd_gradient(theta, MU, f, r=100, h=1e-5, resolution=128)
            worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
        assert worst <= 1e-4

    def test_discrete_measure_gradient_is_exact_sum_gradient(self):
        rng = np.random.default_rng(15)
        arch = Architecture((1, 3, 1))
        pts = rng.uniform(0, 1, 9)[:, None]
        mu = discrete_measure(pts, rng.uniform(0.1, 1.0, 9))
        f = TargetFunction.from_scalar(abs_offset_target(0.5))
        theta = random_params(arch, rng)
        g = generalized_gradient(theta, mu, f, r=50)
        fd = fd_gradient(theta, mu, f, r=50, h=1e-5)
        assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))


class TestRiskAndGradient:
    SETUPS = {
        "1,8,1 exact ReLU": ((1, 8, 1), MU, None, INF),
        "1,8,1 r = 100": ((1, 8, 1), MU, None, 100.0),
        "2,3,1 composite grid": ((2, 3, 1), uniform_measure(0, 1, 2), 32, INF),
        "discrete measure": ((1, 4, 1), discrete_measure([[0.1], [0.35], [0.8]], [0.5, 1.0, 2.0]),
                             None, INF),
    }

    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SETUPS)))
    @settings(max_examples=40, deadline=None)
    def test_one_pass_equals_the_separate_passes(self, seed, setup):
        dims, measure, resolution, r = self.SETUPS[setup]
        if dims[0] == 1:
            f = TargetFunction.from_scalar(abs_offset_target(0.3))
        else:
            f = TargetFunction.affine_map([[0.5, -0.25]], [0.1])
        theta = random_params(Architecture(dims), np.random.default_rng(seed))
        value, grad = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
        assert np.array_equal(value, risk(theta, measure, f, r=r, resolution=resolution))
        assert np.array_equal(grad, generalized_gradient(theta, measure, f, r=r, resolution=resolution))
