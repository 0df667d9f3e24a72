from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import LINEAR_TARGETS, shallow_exact, shallow_exact_gradient

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
    risk_and_gradient,
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

    @pytest.mark.parametrize("dims, measure, f", [
        ((2, 3, 1), discrete_measure([[0.2], [0.7]], [1.0, 1.0]), TargetFunction.zero()),
        ((1, 3, 1), discrete_measure([[0.2, 0.5], [0.7, 0.1]], [1.0, 1.0]), TargetFunction.zero()),
        ((1, 3, 1), uniform_measure(0, 1, 2), TargetFunction.zero()),
        ((1, 4, 2), MU, TargetFunction.from_scalar(abs_offset_target(0.3))),
        ((1, 3, 1), MU, TargetFunction.zero(out_dim=3)),
    ], ids=["1-column points on 2 inputs", "2-column points on 1 input", "2-d uniform on 1 input",
            "scalar target on 2 outputs", "3-output target on 1 output"])
    def test_a_measure_or_target_that_does_not_fit_the_architecture_raises(self, dims, measure, f):
        # the pass broadcast one coordinate into both input rows, fitted both
        # outputs to one scalar target, or failed in numpy's broadcasting
        theta = random_params(Architecture(dims), np.random.default_rng(8))
        for call in (risk, risk_and_gradient):
            with pytest.raises(ValueError, match="network needs a"):
                call(theta, measure, f)

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


class TestExactOracle:
    """The exact shallow path against `oracle.shallow_exact`, the risk and
    hidden mean in rational arithmetic, under a worst-case rounding bound.

    With u = eps / 2, X = max(|a|, |b|) = 1 and mass b - a = 1, every term
    the pass forms at a node is bounded over the whole domain: neuron i's
    pre-activation terms by H_i = |w_i| X + |b_i|, its mean by mass H_i, and
    the target's Horner terms by F = max |f0| + |f1| X over its pieces.  The
    residual at a node sums terms of total magnitude at most
    S = sum_i |v_i| (H_i + mass H_i) + |c| + F, and the risk sums products of
    two such terms, of total magnitude at most T = mass S^2.

    To first order in u, with N nodes: a node moves by at most 8 u X (kink
    division, the segment rule's 4 roundings, the reference node's own
    error, which `gauss_legendre(12)` keeps under 2.4 u), so a pre-activation
    by 8 u |w_i| X; it rounds twice more.  The mean sums N products with
    weights good to 6 u (two roundings and the reference weights), so it is
    off by at most (N + 16) u mass H_i.  Centering, the (n + 1)-term output
    and the target (8 u F with the node move) and its subtraction bring the
    residual's error to at most d = (N + n + 22) u S.  Squaring, the weights
    and the N-term sum then give |risk error| <= sum_j w_j (2 S d + (N + 8) u S^2)
    <= (3 N + 2 n + 64) u T.  These are the stated bounds; none is fitted
    to the results.  Over 600 random draws the largest errors were 0.5%
    (risk) and 5% (hidden mean) of their bounds.

    The gradient (`oracle.shallow_exact_gradient`) sums, over the nodes,
    weighted products of the residual e with h_i - m_i (for v_i), with the
    centered residual e - ebar times 1_i x or 1_i (for w_i and b_i, times
    2 v_i), or with 1 (for c).  |e - ebar| <= 2 S and |h_i - m_i| <= 2 H_i,
    so the components' term magnitudes are T_w = T_b = 4 |v_i| S,
    T_v = 4 S H_i and T_c = 2 S.  ebar is an N-term weighted sum of
    residuals, so e - ebar is off by at most 2 d + (N + 9) u S, and
    h_i - m_i by (N + 28) u H_i; the weights (6 u), the node (8 u X), the
    product, the N-term sum and the factor 2 v_i add N + 16 more.  In units
    of its T each component is then off by at most (5 N + 2 n + 85) u / 2,
    within the risk's multiple (3 N + 2 n + 64) u, which is the bound.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 8, 32]), LINEAR_TARGETS)
    def test_risk_and_hidden_mean_within_the_rounding_bound(self, seed, width, target):
        theta = ParamVector(Architecture((1, width, 1)), np.random.default_rng(seed).standard_normal(3 * width + 1))
        exact_risk, exact_mean = shallow_exact(theta, target)
        u = np.finfo(float).eps / 2
        n_nodes = quadrature_nodes(MU, breakpoints=exact_breakpoints(theta, target.breaks))[0].shape[0]
        H = np.abs(theta.weights(1)[:, 0]) + np.abs(theta.biases(1))
        F = max(abs(f0) + abs(f1) for f0, f1 in target.coeffs)  # every piece is linear
        S = np.abs(theta.weights(2)[0]) @ (2.0 * H) + abs(theta.biases(2)[0]) + F

        got = risk(theta, MU, TargetFunction.from_scalar(target))
        assert abs(Fraction(got) - exact_risk) <= (3 * n_nodes + 2 * width + 64) * u * S * S
        for m, exact, h in zip(hidden_mean(theta, MU), exact_mean, H):
            assert abs(Fraction(float(m)) - exact) <= (n_nodes + 16) * u * h

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 8, 32]), LINEAR_TARGETS)
    def test_gradient_within_the_rounding_bound(self, seed, width, target):
        theta = ParamVector(Architecture((1, width, 1)), np.random.default_rng(seed).standard_normal(3 * width + 1))
        u = np.finfo(float).eps / 2
        n_nodes = quadrature_nodes(MU, breakpoints=exact_breakpoints(theta, target.breaks))[0].shape[0]
        H = np.abs(theta.weights(1)[:, 0]) + np.abs(theta.biases(1))
        F = max(abs(f0) + abs(f1) for f0, f1 in target.coeffs)
        v = np.abs(theta.weights(2)[0])
        S = v @ (2.0 * H) + abs(theta.biases(2)[0]) + F
        T = np.concatenate((4.0 * v * S, 4.0 * v * S, 4.0 * S * H, [2.0 * S]))

        got = risk_and_gradient(theta, MU, TargetFunction.from_scalar(target))[1]
        for g, exact, t in zip(got, shallow_exact_gradient(theta, target), T):
            assert abs(Fraction(float(g)) - exact) <= (3 * n_nodes + 2 * width + 64) * u * t
