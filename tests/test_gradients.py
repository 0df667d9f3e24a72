import math
import tracemalloc

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
    forward,
    gd_run,
    generalized_gradient,
    hidden_mean,
    random_params,
    risk,
    risk_and_gradient,
    smoothed_act,
    smoothed_act_deriv,
    uniform_measure,
)
from mgflow import network
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

    @pytest.mark.parametrize("r", [1.0, 3.0, 100.0, INF])
    def test_pieces_match_the_reference_formulas(self, r):
        # bit for bit, signed zeros and nan included, with and without `out`,
        # also in place
        x = np.concatenate([np.random.default_rng(8).normal(0.0, 0.5, 400),
                            [0.0, -0.0, 1.0 / r, np.nan, np.inf, -np.inf]]).reshape(2, -1)
        with np.errstate(invalid="ignore"):
            if math.isinf(r):
                refs = np.maximum(x, 0.0), (x > 0.0).astype(float)
            else:
                refs = (np.where(x >= 1.0 / r, x, np.where(x <= 0.0, 0.0, 2.0 * r * x**2 - r**2 * x**3)),
                        np.where(x >= 1.0 / r, 1.0, np.where(x <= 0.0, 0.0, 4.0 * r * x - 3.0 * r**2 * x**2)))
        for fn, ref in zip((smoothed_act, smoothed_act_deriv), refs):
            buf, inplace = np.empty_like(x), x.copy()
            for got in (fn(r, x), fn(r, x, out=buf), fn(r, inplace, out=inplace)):
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert fn(r, x, out=buf) is buf

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


class TestWorkspace:
    """The passes reuse cached node-sized buffers, one set per architecture
    and node count: no call may see another call's state."""

    CASES = {
        "2,4,4,1 grid 16": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 16),
        "2,4,4,1 grid 24": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 24),
        "1,8,1 exact": ((1, 8, 1), MU, None),
        "3,2,5,2 grid 8": ((3, 2, 5, 2), uniform_measure(0, 1, 3), 8),
        "1,8,1 discrete": ((1, 8, 1), discrete_measure([[0.1], [0.35], [0.8]], [0.5, 1.0, 2.0]), None),
    }
    KINDS = ("gradient", "risk", "hidden_mean", "forward")

    @staticmethod
    def setup(case, seed=0):
        dims, measure, resolution = TestWorkspace.CASES[case]
        theta = random_params(Architecture(dims), np.random.default_rng(seed))
        if dims[0] == 1:
            f = TargetFunction.from_scalar(abs_offset_target(0.3))
        else:
            m, d = dims[-1], dims[0]
            f = TargetFunction.affine_map(np.linspace(-0.5, 0.5, m * d).reshape(m, d), np.zeros(m))
        return theta, measure, f, resolution

    def call(self, case, r, kind):
        theta, measure, f, resolution = self.setup(case)
        if kind == "gradient":
            value, grad = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
            return [np.array(value), grad]
        if kind == "risk":
            return [np.array(risk(theta, measure, f, r=r, resolution=resolution))]
        if kind == "hidden_mean":
            return [hidden_mean(theta, measure, r=r, resolution=resolution)]
        dim = theta.arch.layer_dims[0]
        pres, acts = forward(theta, np.linspace(0.0, 1.0, 7 * dim).reshape(7, dim), r=r)
        return pres + acts

    def test_interleaved_calls_match_a_fresh_workspace(self):
        keys = [(case, r, kind) for case in self.CASES for r in (INF, 100.0) for kind in self.KINDS]
        fresh = {}
        for key in keys:
            network._workspace.cache_clear()
            fresh[key] = self.call(*key)
        # every call twice in a shuffled order, across more (dims, n) pairs
        # than the cache holds; no later call may change an earlier result
        order = np.random.default_rng(0).permutation(2 * len(keys)) % len(keys)
        kept = [(keys[i], self.call(*keys[i])) for i in order]
        for key, got in kept:
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh[key], strict=True)), key

    def test_returned_gradients_share_no_memory(self):
        theta, measure, f, resolution = self.setup("2,4,4,1 grid 16")
        other = self.setup("2,4,4,1 grid 16", seed=1)[0]
        first = risk_and_gradient(theta, measure, f, resolution=resolution)[1]
        expected = first.copy()
        second = risk_and_gradient(other, measure, f, resolution=resolution)[1]
        assert np.array_equal(first, expected) and not np.array_equal(second, expected)
        first[:] = np.nan
        second[:] = np.nan
        assert np.array_equal(risk_and_gradient(theta, measure, f, resolution=resolution)[1], expected)

    @pytest.mark.parametrize("r", [INF, 100.0])
    def test_a_warm_pass_allocates_less_than_one_node_array(self, r):
        # 2,4,4,1 on a 128 x 128 grid: 16,384 nodes, widest layer 4
        theta = random_params(Architecture((2, 4, 4, 1)), np.random.default_rng(3))
        measure, f = uniform_measure(0, 1, 2), TargetFunction.affine_map([[0.5, 0.5]], [0.0])
        risk_and_gradient(theta, measure, f, r=r, resolution=128)
        tracemalloc.start()
        try:
            risk_and_gradient(theta, measure, f, r=r, resolution=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16384 * 8
        # the cached workspace: 23 node rows (nodes and two hidden layers with
        # their ones rows, two pre-activation arrays, residual and scratch);
        # `_X` is the caller's grid, not a buffer of the workspace
        ws = network._workspace((2, 4, 4, 1), 16384)
        arrays = [a for name, v in vars(ws).items() if name != "_X"
                  for a in (v if isinstance(v, list) else [v])]
        owned = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
        assert sum(b.nbytes for b in owned.values()) <= 23 * 16384 * 8

    def test_a_warm_descent_run_allocates_less_than_one_node_array(self):
        # runs share the cached workspace: a second descent run on the same
        # 128 x 128 grid takes no node-sized buffer of its own (a run that
        # built its own 23 node rows would take 3 MB); it evaluates the target
        # on the grid once, a single (1, 16384) row and its temporaries
        xi = random_params(Architecture((2, 4, 4, 1)), np.random.default_rng(5))
        measure, f = uniform_measure(0, 1, 2), TargetFunction.affine_map([[0.5, 0.5]], [0.0])
        gd_run(xi, measure, f, 2, 1e-2, resolution=128)
        tracemalloc.start()
        try:
            gd_run(xi, measure, f, 2, 1e-2, resolution=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16384 * 8


class TestTextbookBackprop:
    """The fused pass against node-major reverse mode written out term by
    term: the centered readout, every weighted sum over the nodes and the
    chain rule through the subtracted mean, with no workspace."""

    DIMS = [(1, 8, 1), (2, 4, 4, 1), (3, 2, 5, 2), (1, 3, 3, 3, 1), (2, 4, 1, 1)]
    MEASURES = ("uniform [0, 1]", "uniform [0, 2]", "discrete, mass 3.5")

    @staticmethod
    def problem(dims, measure_name, seed):
        rng = np.random.default_rng(seed)
        d, m = dims[0], dims[-1]
        if measure_name == "discrete, mass 3.5":
            measure = discrete_measure(rng.uniform(0, 1, (7, d)), [0.25, 0.5, 0.25, 1.0, 0.5, 0.75, 0.25])
        else:
            measure = uniform_measure(0, 1 if measure_name == "uniform [0, 1]" else 2, d)
        if d == 1 and m == 1:
            f = TargetFunction.from_scalar(abs_offset_target(0.3))
        else:
            f = TargetFunction.affine_map(rng.uniform(-1, 1, (m, d)), rng.uniform(-1, 1, m))
        return random_params(Architecture(dims), rng), measure, f

    @staticmethod
    def textbook(theta, X, w, f, r):
        layers = [(theta.values[ws].reshape(shape), theta.values[bs]) for ws, shape, bs in theta.arch.layer_table]
        zs, hs = [], [X]
        for W, b in layers[:-1]:
            zs.append(hs[-1] @ W.T + b)
            hs.append(smoothed_act(r, zs[-1]))
        mean = sum(wi * hi for wi, hi in zip(w, hs[-1]))  # int h dmu
        WL, bL = layers[-1]
        R = (hs[-1] - mean) @ WL.T + bL - f(X)  # (n, out)
        value = sum(wi * ri @ ri for wi, ri in zip(w, R))

        dO = 2.0 * w[:, None] * R  # d risk / d output, per node
        grads = [(dO.T @ (hs[-1] - mean), dO.sum(axis=0))]
        # each node's activations reach the risk directly and through the mean
        dH = dO @ WL - w[:, None] * (dO.sum(axis=0) @ WL)[None, :]
        for k in range(len(layers) - 2, -1, -1):
            dZ = dH * smoothed_act_deriv(r, zs[k])
            grads.append((dZ.T @ hs[k], dZ.sum(axis=0)))
            dH = dZ @ layers[k][0]
        grad = np.concatenate([np.concatenate((gW.ravel(), gb)) for gW, gb in reversed(grads)])
        return value, grad

    @pytest.mark.parametrize("measure_name", MEASURES)
    @pytest.mark.parametrize("r", [INF, 100.0, 3.0])
    @pytest.mark.parametrize("dims", DIMS, ids=lambda dims: ",".join(map(str, dims)))
    def test_fused_pass_matches(self, dims, r, measure_name):
        for seed in range(3):
            theta, measure, f = self.problem(dims, measure_name, seed)
            resolution = None if dims[0] == 1 else 12
            rows = network._layer_rows(theta.arch, theta.values)
            ws, w, _ = network._NodePlan(theta.arch, measure, f, r, resolution).load(rows)
            X = ws.nodes[:-1].T.copy()  # the pass below overwrites the workspace
            ref_value, ref_grad = self.textbook(theta, X, w, f, r)
            value, grad = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
