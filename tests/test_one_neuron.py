import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgflow import (
    PiecewisePolynomial,
    abs_offset_target,
    affine_target,
    constant_target,
    integrate,
    piecewise_linear_target,
    uniform_measure,
)
from mgflow import one_neuron as on
from mgflow.dynamics import DIVERGENCE_GUARD
from mgflow.quadrature import quiet
from mgflow.verify import LYAPUNOV_TARGETS

MU = uniform_measure(0, 1, 1)
INV_SQRT2 = 2.0**-0.5
ZERO = on.as_problem(constant_target(0.0))
# the stage kernels leave the floating-point error state to their caller
_intervals, _one_pass = quiet(on._intervals), quiet(on._one_pass)


def _mean(theta):
    """m = int_0^1 max(t1 s + t2, 0) ds from the kernel's interval ends and moments."""
    t1, t2 = theta[..., 0], theta[..., 1]
    M = ZERO.f.lookup_moments(_intervals(t1, t2)[0])
    return t1 * M[1] + t2 * M[0]


def circle_point(q, sign_t1, t3):
    t1 = sign_t1 / math.sqrt(1.0 + q * q)
    return np.array([t1, -q * t1, t3])


class TestBreakpointAndRegimes:
    def test_breakpoint_values(self):
        q = on._regime_codes(np.array([1.0, 0.0, -2.0]), np.array([-0.5, 0.3, 1.0]))[1]
        assert q[0] == pytest.approx(0.5)
        assert q[1] == math.inf
        assert q[2] == pytest.approx(0.5)

    def test_regime_classification(self):
        code, _ = on._regime_codes(np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0]),
                                   np.array([-0.5, 0.5, -1.0, 1.0, 0.5, -2.0]))
        # the last two rows have q < 0 (full) and q > 1 (empty)
        assert [on.REGIME_TAGS[c] for c in code] == ["right", "left", "empty", "full", "full", "empty"]

    def test_edge_rows_scalar_and_batch_regime_codes_agree(self):
        # q = 1e-17 lies in (0, 1) although 1 - q rounds to 1; rows with a
        # nan coordinate have no activity interval
        rows = [(1.0, -1e-17, "right"), (-1.0, 1e-17, "left"), (math.nan, 0.5, "empty"),
                (1.0, math.nan, "empty"), (0.0, math.nan, "empty"), (math.nan, math.nan, "empty")]
        t1, t2, tags = zip(*rows)
        code, _ = on._regime_codes(np.array(t1), np.array(t2))
        assert [on.REGIME_TAGS[c] for c in code] == list(tags)
        # closed_integrals and closed_gradient look up one state at a time
        scalar = [on._regime_codes(np.float64(a), np.float64(b))[0] for a, b, _ in rows]
        assert [on.REGIME_TAGS[int(c)] for c in scalar] == list(tags)

    def test_left_boundary_breakpoint_is_full(self):
        # q = 1 with negative slope: active on [0, 1)
        theta = np.array([-INV_SQRT2, INV_SQRT2, 0.0])
        assert on.REGIME_TAGS[int(on._regime_codes(theta[0], theta[1])[0])] == "full"
        assert _mean(theta) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_mean_examples(self):
        m = _mean(np.array([[1.0, -0.5, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]))
        assert m[0] == pytest.approx(0.125)
        assert m[1] == 0.0
        assert m[2] == pytest.approx(0.5)

    def test_mean_matches_quadrature_all_regimes(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            t1, t2 = rng.standard_normal(2) * 2.0
            ref = integrate(
                lambda X: np.maximum(t1 * X[:, 0] + t2, 0.0),
                MU, breakpoints=[float(_intervals(t1, t2)[1])],
            )
            assert _mean(np.array([t1, t2, 0.0])) == pytest.approx(ref, abs=1e-14)


class TestRiskAndGradient:
    def test_centered_ramp_risk(self):
        assert on.risk_batch(np.array([1.0, 0.0, 1.0]), ZERO) == pytest.approx(1.0 / 12.0)

    def test_gradient_at_ramp(self):
        g = on.grad_1n((1.0, 0.0, 1.0), constant_target(0.0))
        np.testing.assert_allclose(g, [0.0, 0.0, 1.0 / 6.0], atol=1e-15)

    def test_zero_output_weight_kills_angular_components(self):
        g = on.grad_1n(circle_point(0.4, 1.0, 0.0), affine_target(0.0, 1.0))
        assert g[0] == 0.0 and g[1] == 0.0

    def test_empty_regime_gradient_vanishes(self):
        g = on.grad_1n((0.0, -1.0, 2.0), abs_offset_target(0.3))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            on.grad_1n((2.0, 0.0, 1.0), constant_target(0.0))
        with pytest.raises(ValueError):
            on.grad_1n((0.0, 0.0, 1.0), constant_target(0.0))

    def test_risk_matches_quadrature(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            theta = circle_point(rng.uniform(0.1, 0.9), rng.choice((1.0, -1.0)), rng.standard_normal())
            knots = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]))
            f = piecewise_linear_target(knots, rng.standard_normal(4))
            problem = on.as_problem(f)
            fbar = f.mean()
            m = _mean(theta)
            q = _intervals(theta[0], theta[1])[1]
            ref = integrate(
                lambda X: (
                    theta[2] * (np.maximum(theta[0] * X[:, 0] + theta[1], 0.0) - m)
                    + fbar - f(X[:, 0])
                ) ** 2,
                MU, breakpoints=np.concatenate((f.interior_breaks(), [q])),
            )
            assert on.risk_batch(theta, problem) == pytest.approx(ref, abs=1e-13)

    def test_gradient_matches_explicit_integrands(self):
        # angular factors (t2^2 s - t1 t2) and (t1^2 - t1 t2 s) on the
        # activity set, residual factor (max - m) for the output weight
        rng = np.random.default_rng(52)
        for _ in range(100):
            t = circle_point(rng.uniform(0.05, 0.95), rng.choice((1.0, -1.0)), rng.standard_normal())
            t1, t2, t3 = t
            f = abs_offset_target(rng.uniform(0.2, 0.8))
            fbar, m = f.mean(), _mean(t)
            q = _intervals(t1, t2)[1]
            bp = np.concatenate((f.interior_breaks(), [q]))

            def resid(s):
                return t3 * (np.maximum(t1 * s + t2, 0.0) - m) + fbar - f(s)

            active = lambda s: (t1 * s + t2 > 0.0).astype(float)
            g1 = 2 * t3 * integrate(
                lambda X: resid(X[:, 0]) * (t2**2 * X[:, 0] - t1 * t2) * active(X[:, 0]),
                MU, breakpoints=bp)
            g2 = 2 * t3 * integrate(
                lambda X: resid(X[:, 0]) * (t1**2 - t1 * t2 * X[:, 0]) * active(X[:, 0]),
                MU, breakpoints=bp)
            g3 = 2 * integrate(
                lambda X: resid(X[:, 0]) * (np.maximum(t1 * X[:, 0] + t2, 0.0) - m),
                MU, breakpoints=bp)
            np.testing.assert_allclose(on.grad_1n(t, f), [g1, g2, g3], atol=1e-13)

    def test_projected_raw_gradient_matches_closed_form_on_circle(self):
        rng = np.random.default_rng(53)
        f = abs_offset_target(0.35)
        problem = on.as_problem(f)
        for _ in range(100):
            t = circle_point(rng.uniform(0.05, 0.95), rng.choice((1.0, -1.0)), rng.standard_normal())
            raw = _one_pass(t, problem)[1]
            # remove the component along the circle normal (t1, t2, 0)
            normal = np.array([t[0], t[1], 0.0])
            proj = raw - (normal @ raw) / (normal @ normal) * normal
            np.testing.assert_allclose(proj, on.grad_1n(t, f), atol=1e-12)

    def test_mean_term_contribution_integrates_to_zero(self):
        # int of the full residual over [0, 1] vanishes, which is what lets
        # the mean's chain-rule terms drop out of the explicit gradient
        rng = np.random.default_rng(54)
        for _ in range(50):
            t = circle_point(rng.uniform(0.1, 0.9), rng.choice((1.0, -1.0)), rng.standard_normal())
            f = abs_offset_target(rng.uniform(0.2, 0.8))
            fbar, m = f.mean(), _mean(t)
            q = _intervals(t[0], t[1])[1]
            val = integrate(
                lambda X: t[2] * (np.maximum(t[0] * X[:, 0] + t[1], 0.0) - m) + fbar - f(X[:, 0]),
                MU, breakpoints=np.concatenate((f.interior_breaks(), [q])),
            )
            assert val == pytest.approx(0.0, abs=1e-14)


class TestClosedIntegrals:
    def test_right_regime_example(self):
        ci = on.closed_integrals((1.0, -0.5, 0.0))
        assert ci["m"] == pytest.approx(0.125)
        assert ci["centered_first_moment"] == pytest.approx(0.0625)
        assert ci["centered_second_moment"] == pytest.approx(5.0 / 192.0)

    def test_left_regime_example_off_circle(self):
        ci = on.closed_integrals((-1.0, 0.5, 0.0))
        assert ci["m"] == pytest.approx(0.125)  # sign-corrected: nonnegative
        assert ci["centered_second_moment"] == pytest.approx(5.0 / 192.0)

    def test_left_mean_is_nonnegative(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            q = rng.uniform(0.01, 0.99)
            t1 = -rng.uniform(0.1, 2.0)
            ci = on.closed_integrals((t1, -q * t1, 0.0))
            assert ci["m"] >= 0.0 and ci["centered_first_moment"] >= 0.0

    def test_degenerate_breakpoint_limit(self):
        ci = on.closed_integrals((1.0, -0.999999, 0.0))
        for v in ci.values():
            assert abs(v) < 1e-11

    def test_rejects_full_and_empty(self):
        with pytest.raises(ValueError):
            on.closed_integrals((1.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            on.closed_integrals((0.0, -1.0, 0.0))

    def test_closed_gradient_matches_direct_form(self):
        # covers the corrected left-regime angular polynomial
        rng = np.random.default_rng(56)
        f = piecewise_linear_target([0.0, 0.5, 1.0], [0.2, -0.4, 0.6])
        for _ in range(200):
            t = circle_point(rng.uniform(0.02, 0.98), rng.choice((1.0, -1.0)), rng.standard_normal())
            np.testing.assert_allclose(on.closed_gradient(t, f), on.grad_1n(t, f), atol=1e-13)


class TestAffineIntegralBound:
    def test_equality_at_centered_line(self):
        assert on.affine_integral_bound_check(1.0, -0.5, (0.0, 1.0))

    def test_degenerate_slope(self):
        assert on.affine_integral_bound_check(0.0, 3.0, (0.0, 1.0))
        assert on.affine_integral_bound_check(0.0, 0.0, (-2.0, 2.0))

    def test_short_interval_case(self):
        # int_0^{1/2} (2x+3)^2 dx = 37/6, bound is (4/12)(1/2)^3 = 1/24
        lhs = 4.0 / 3.0 * 0.125 + 2.0 * 3.0 * 0.25 + 9.0 * 0.5
        assert lhs == pytest.approx(37.0 / 6.0)
        assert on.affine_integral_bound_check(2.0, 3.0, (0.0, 0.5))

    def test_unbounded_interval_rejected(self):
        with pytest.raises(ValueError):
            on.affine_integral_bound_check(1.0, 0.0, (0.0, math.inf))

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-50, 50), st.floats(-50, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_violated(self, alpha, beta, c, d):
        assert on.affine_integral_bound_check(alpha, beta, (c, d))


class TestLyapunovValues:
    def test_plug_in_values(self):
        states = np.array([[0.0, 1.0, 2.0], [INV_SQRT2, -INV_SQRT2, 1.5], [0.0, 1.0, 0.0]])
        E, V_right, V_left = on.lyapunov_values(states)
        assert E[0] == pytest.approx(4.0)
        assert not np.isnan(E[0])
        assert V_right[1] == pytest.approx(1.5**2)
        assert V_left[2] == pytest.approx(0.0)

    def test_undefined_conserved_quantity_flagged(self):
        E, _, _ = on.lyapunov_values(np.array([1.0, 0.0, 1.0]))
        assert np.isnan(E)

    def test_applicability_reported_with_target(self):
        problem = on.as_problem(affine_target(0.0, 1.0))
        # the target rises (right_sign = 1), so the v_right window has t3 < 0
        states = np.array([circle_point(0.99, 1.0, -0.5), circle_point(0.99, 1.0, 0.5),
                           circle_point(0.5, 1.0, -0.5)])
        v_right = on.applicability_masks(states, problem)["v_right"]
        np.testing.assert_array_equal(v_right, [True, False, False])


class TestWindows:
    def test_affine_target_windows(self):
        w = on.scan_windows(affine_target(0.0, 1.0))
        assert w.right_sign == 1 and w.left_sign == -1
        assert 0.45 < w.eps_right_plain <= 0.5
        assert 0.045 < w.eps_right_band <= 0.05
        assert w.lipschitz == pytest.approx(1.0)

    def test_endpoint_matching_mean_gives_zero_sign(self):
        # f(1) equals the mean for f = |s - 1/2| + linear correction? use a
        # target built to hit the mean at the right endpoint
        f = piecewise_linear_target([0.0, 1.0], [-0.5, 0.5])  # mean 0, f(1)=0.5
        w = on.scan_windows(f)
        assert w.right_sign == 1
        f2 = piecewise_linear_target([0.0, 0.5, 1.0], [0.5, -0.25, 0.125])
        # mean of f2: pieces (0.5->-0.25), (-0.25->0.125): 0.125/2 + (-0.0625)/2
        fbar = f2.mean()
        assert f2(1.0) != fbar  # sanity: generic target has a signed window


class TestFlow:
    def test_empty_regime_is_frozen(self):
        cfg = on.OneNeuronConfig(t_end=1.0, step=1e-2)
        batch = on.flow_batch(np.array([[0.0, -1.0, 2.0]]), abs_offset_target(0.3), cfg)
        np.testing.assert_array_equal(batch.states[0], batch.states[-1])
        assert not batch.aborted[0]

    def test_circle_invariance_without_renormalization(self):
        cfg = on.OneNeuronConfig(t_end=2.0, step=1e-3, renormalize=False)
        inits = on.random_circle_states(np.random.default_rng(57), 8, t3_scale=1.0)
        batch = on.flow_batch(inits, affine_target(0.0, 1.0), cfg)
        assert batch.psi_max_dev.max() <= 1e-6

    def test_risk_non_increasing(self):
        cfg = on.OneNeuronConfig(t_end=2.0, step=1e-3)
        inits = on.random_circle_states(np.random.default_rng(58), 8, t3_scale=1.0)
        batch = on.flow_batch(inits, abs_offset_target(0.3), cfg)
        assert np.max(np.diff(batch.risk, axis=0)) <= 1e-8

    def test_matched_target_stays_put(self):
        # zero output weight, target mean-matched: gradient vanishes
        cfg = on.OneNeuronConfig(t_end=0.5, step=1e-2)
        batch = on.flow_batch(np.array([[1.0, 0.0, 0.0]]), constant_target(0.7), cfg)
        np.testing.assert_allclose(batch.states[-1], batch.states[0], atol=1e-14)

    def test_output_weight_decays_toward_zero_on_zero_target(self):
        cfg = on.OneNeuronConfig(t_end=50.0, step=1e-2)
        inits = on.random_circle_states(np.random.default_rng(59), 6, t3_scale=1.0)
        batch = on.flow_batch(inits, constant_target(0.0), cfg)
        sup0 = np.linalg.norm(batch.states[0], axis=-1)
        assert np.all(np.abs(batch.states[-1, :, 2]) <= np.abs(batch.states[0, :, 2]) + 1e-9)
        assert np.all(np.linalg.norm(batch.states, axis=-1).max(axis=0) <= sup0 + 1e-6)

    def test_simple_case_bound_along_trajectories(self):
        # wherever the activity measure is in [eps, 1), the output weight obeys
        # |t3| <= sqrt(24) (sqrt(risk_0) + |f - fbar|_L2) eps^(-3/2)
        f = abs_offset_target(0.3)
        problem = on.as_problem(f)
        cfg = on.OneNeuronConfig(t_end=5.0, step=1e-3)
        inits = on.random_circle_states(np.random.default_rng(60), 10, t3_scale=2.0)
        batch = on.flow_batch(inits, problem, cfg)
        (lo, hi), _ = _intervals(batch.states[..., 0], batch.states[..., 1])
        measure_active = hi - lo
        C = math.sqrt(problem.centered_square)
        for eps in (0.1, 0.3, 0.6):
            mask = (measure_active >= eps) & (measure_active < 1.0)
            if not mask.any():
                continue
            bound = math.sqrt(24.0) * (np.sqrt(batch.risk[0]) + C) * eps**-1.5
            assert np.all(np.abs(batch.states[..., 2])[mask] <= bound[np.newaxis, :].repeat(batch.states.shape[0], 0)[mask])

    def test_divergence_guard_freezes_trajectory(self):
        # an enormous constant step factor blows the state up immediately; a
        # lone row ends the run, while beside a row in the empty regime (zero
        # gradient) it stays frozen at its start until the horizon
        cfg = on.OneNeuronConfig(t_end=1.0, step=0.5, integrator="euler", gamma=1e15, renormalize=False)
        for inits, aborted, rows in (
            ([[0.6, 0.8, 1.0]], [True], 2),
            ([[0.0, -1.0, 2.0], [0.6, 0.8, 1.0]], [False, True], 3),
        ):
            batch = on.flow_batch(np.array(inits), affine_target(0.0, 1.0), cfg)
            np.testing.assert_array_equal(batch.aborted, aborted)
            np.testing.assert_array_equal(batch.stopped, np.array(aborted, dtype=int))
            assert batch.states.shape == (rows, len(inits), 3)
            np.testing.assert_array_equal(batch.states, np.broadcast_to(inits, batch.states.shape))

    def test_record_every_not_dividing_the_steps(self):
        cfg = on.OneNeuronConfig(t_end=0.5, step=1e-2, record_every=15)
        inits = on.random_circle_states(np.random.default_rng(62), 3)
        batch = on.flow_batch(inits, abs_offset_target(0.3), cfg)
        np.testing.assert_allclose(batch.times, np.array([0, 15, 30, 45, 50]) * 1e-2)
        assert batch.states.shape == (5, 3, 3) and batch.grad_norm.shape == (5, 3)


class TestMonitors:
    def test_conservation_in_full_regime(self):
        problem = on.as_problem(affine_target(0.0, 1.0))
        init = np.array([[0.6, 0.8, 0.5]])
        cfg = on.OneNeuronConfig(t_end=1.0, step=1e-4, renormalize=False)
        batch = on.flow_batch(init, problem, cfg)
        rep = on.monitor_report(batch, problem, conservation_rate=1e-6)["conserved_full"]
        assert rep["checked_pairs"] > 0 and rep["violations"] == 0

    def test_theta3_monitor_engages_and_holds(self):
        problem = on.as_problem(affine_target(0.0, 1.0))
        w = problem.windows
        q = 1.0 - 0.5 * w.eps_right_plain
        init = circle_point(q, 1.0, -0.5)[None, :]
        cfg = on.OneNeuronConfig(t_end=2.0, step=1e-3)
        batch = on.flow_batch(init, problem, cfg)
        rep = on.monitor_report(batch, problem, slack=1e-6)["theta3_sq"]
        assert rep["checked_pairs"] > 0 and rep["violations"] == 0

    def test_endpoint_lipschitz_monitor(self):
        # target whose right endpoint equals its mean: the boundary-sign
        # windows are empty and the |t3| >= 4 * Lipschitz threshold governs
        f = piecewise_linear_target([0.0, 0.5, 1.0], [1.0, -0.2, 0.2])
        problem = on.as_problem(f)
        w = problem.windows
        assert f(1.0) == pytest.approx(w.fbar)
        assert w.right_sign == 0 and w.eps_right_plain == 0.0
        assert w.lipschitz == pytest.approx(2.4)
        state = circle_point(0.7, 1.0, 4.0 * w.lipschitz + 3.0)
        masks = on.applicability_masks(state[None, :], problem)
        assert masks["theta3_sq"][0]
        below = circle_point(0.7, 1.0, 4.0 * w.lipschitz - 1.0)
        assert not on.applicability_masks(below[None, :], problem)["theta3_sq"][0]
        cfg = on.OneNeuronConfig(t_end=1.0, step=1e-3)
        batch = on.flow_batch(state[None, :], problem, cfg)
        rep = on.monitor_report(batch, problem, slack=1e-6)["theta3_sq"]
        assert rep["checked_pairs"] > 0 and rep["violations"] == 0

    def test_report_structure(self):
        problem = on.as_problem(abs_offset_target(0.3))
        cfg = on.OneNeuronConfig(t_end=0.2, step=1e-2)
        batch = on.flow_batch(on.random_circle_states(np.random.default_rng(61), 4), problem, cfg)
        rep = on.monitor_report(batch, problem, slack=1e-6, conservation_rate=1e-6)
        assert set(rep) == {"theta3_sq", "v_right", "v_left", "conserved_full"}


class TestBoundednessExperiment:
    def test_empty_regime_init_constant(self):
        cfg = on.OneNeuronConfig(t_end=1.0, step=1e-2)
        batch = on.flow_batch(np.array([[0.0, -1.0, 3.0]]), constant_target(0.0), cfg)
        assert np.linalg.norm(batch.states, axis=-1).max() == pytest.approx(np.sqrt(10.0))

    def test_report_fields_and_determinism(self):
        cfg = on.OneNeuronConfig(t_end=5.0, step=1e-2)
        rep1 = on.boundedness_experiment(affine_target(0.0, 1.0), 7, cfg, n_trajectories=5)
        rep2 = on.boundedness_experiment(affine_target(0.0, 1.0), 7, cfg, n_trajectories=5)
        assert rep1 == rep2
        assert rep1["aborted"] == 0
        assert set(rep1["regime_occupancy"]) == set(on.REGIME_TAGS)
        assert rep1["sup_norm"] >= 1.0


def _reference_kernel(states, f):
    """The explicit J1/J2/J3 forms (tangent gradient, raw gradient, risk) on
    moments taken independently of the target's primitive table."""
    t1, t2, t3 = states[:, 0], states[:, 1], states[:, 2]
    (lo, hi), _ = _intervals(t1, t2)
    P0, P1, P2 = hi - lo, (hi**2 - lo**2) / 2.0, (hi**3 - lo**3) / 3.0
    x, w = np.polynomial.legendre.leggauss(6)
    fbar, A, B = f.mean(), np.zeros(len(states)), np.zeros(len(states))
    for j, c in enumerate(f.coeffs):
        a, b = np.maximum(lo, f.breaks[j]), np.minimum(hi, f.breaks[j + 1])
        b = np.maximum(a, b)
        s = (a + b)[:, None] / 2.0 + (b - a)[:, None] / 2.0 * x
        r = (b - a)[:, None] / 2.0 * w * (fbar - np.polynomial.polynomial.polyval(s, c))
        A, B = A + r.sum(axis=1), B + (r * s).sum(axis=1)
    m = t1 * P1 + t2 * P0
    d = t2 - m
    J1 = t1 * t2**2 * P2 + (d * t2**2 - t1**2 * t2) * P1 - d * t1 * t2 * P0
    J2 = -(t1**2 * t2) * P2 + (t1**3 - d * t1 * t2) * P1 + d * t1**2 * P0
    J3 = t1**2 * P2 + 2.0 * t1 * d * P1 + d * d * P0 + m * m * (1.0 - P0)
    tangent = np.stack([2.0 * t3 * (t3 * J1 + t2**2 * B - t1 * t2 * A),
                        2.0 * t3 * (t3 * J2 + t1**2 * A - t1 * t2 * B),
                        2.0 * (t3 * J3 + t1 * B + t2 * A)], axis=1)
    raw = np.stack([2.0 * t3 * (t3 * (t1 * P2 + d * P1) + B),
                    2.0 * t3 * (t3 * (t1 * P1 + d * P0) + A),
                    tangent[:, 2]], axis=1)
    centered = on.as_problem(f).centered_square
    return tangent, raw, t3**2 * J3 + 2.0 * t3 * (t1 * B + t2 * A) + centered


class TestKernelAgainstExplicitForms:
    TARGETS = (
        affine_target(0.0, 1.0),
        abs_offset_target(0.3),
        piecewise_linear_target(np.linspace(0.0, 1.0, 9), np.sin(np.arange(9.0))),
        PiecewisePolynomial((0.0, 0.4, 1.0), ((0.3, -2.0, 5.0, 1.0, -3.0, 2.0), (1.0, 0.5))),
    )

    @pytest.mark.parametrize("radius", [1.0, 0.4, 1.7])
    @pytest.mark.parametrize("target", range(len(TARGETS)))
    def test_gradients_and_risk_match(self, target, radius):
        f = self.TARGETS[target]
        problem = on.as_problem(f)
        states = on.random_circle_states(np.random.default_rng(70 + target), 500, t3_scale=2.0)
        states[:, :2] *= radius
        states[:3] = [[0.0, radius, 1.0], [0.0, -radius, 1.0], [radius, 0.0, -0.5]]  # t1 = 0, q = 0
        tangent, raw, risk = _reference_kernel(states, f)
        # rounding grows with the size of the state, not of the (possibly tiny) result
        scale = (1.0 + states[:, 2] ** 2) * (1.0 + radius**2) ** 2
        for got, ref in ((on.gradient_batch(states, problem), tangent),
                         (_one_pass(states, problem)[1], raw)):
            assert np.all(np.abs(got - ref) <= 1e-12 * scale[:, None])
        assert np.all(np.abs(on.risk_batch(states, problem) - risk) <= 1e-12 * scale)

    def test_one_moments_pass_per_rhs_evaluation(self, monkeypatch):
        # gamma="rescaled" needs the raw and the tangent gradient at every
        # RK4 stage, and a recorded state its risk too; all come from one
        # pass, so a step costs 4 passes and the final state 1 more
        calls = []
        lookup = PiecewisePolynomial.lookup_moments
        monkeypatch.setattr(PiecewisePolynomial, "lookup_moments",
                            lambda self, ends: calls.append(1) or lookup(self, ends))
        problem = on.as_problem(abs_offset_target(0.3))
        counts = []
        for steps in (10, 20):
            calls.clear()
            cfg = on.OneNeuronConfig(t_end=steps * 1e-2, step=1e-2, gamma="rescaled")
            on.flow_batch(on.random_circle_states(np.random.default_rng(71), 4), problem, cfg)
            counts.append(len(calls))
        assert counts == [4 * 10 + 1, 4 * 20 + 1]


# The two-pass kernel that `_one_pass` replaced, verbatim but for the names.
# Every element of G, R and the risk must see the same IEEE operations in the
# same order in both, so they agree byte for byte.

def _ref_intervals(t1, t2):
    """Activity interval [lo, hi] per batch row (lo = hi when empty)."""
    q = np.divide(-t2, t1, out=np.full(np.shape(t1), np.inf), where=t1 != 0.0)
    c = np.minimum(np.maximum(q, 0.0), 1.0)
    lo = np.where(t1 > 0.0, c, 0.0)
    hi = np.where(t1 < 0.0, c, (t1 > 0.0) | ((t1 == 0.0) & (t2 > 0.0)))
    return lo, hi, q


def _ref_moments(states, problem):
    """(P0, P1, P2, m, A, B) over the activity interval, from one table lookup."""
    t1, t2 = states[..., 0], states[..., 1]
    lo, hi, _ = _ref_intervals(t1, t2)
    P0, P1, P2, F0, F1 = problem.f.interval_moments(lo, hi)
    return P0, P1, P2, t1 * P1 + t2 * P0, problem.fbar * P0 - F0, problem.fbar * P1 - F1


def _ref_raw_and_j3(states, problem):
    """Unprojected risk gradient and J3 = int_0^1 (max(t1 s + t2, 0) - m)^2 ds
    from one moments pass."""
    t1, t2, t3 = states[..., 0], states[..., 1], states[..., 2]
    P0, P1, P2, m, A, B = _ref_moments(states, problem)
    d = t2 - m
    a = t1 * P2 + d * P1
    b = t1 * P1 + d * P0
    J3 = t1 * a + d * b + m * m * (1.0 - P0)
    raw = np.empty(states.shape)
    raw[..., 0] = 2.0 * t3 * (t3 * a + B)
    raw[..., 1] = 2.0 * t3 * (t3 * b + A)
    raw[..., 2] = 2.0 * (t3 * J3 + t1 * B + t2 * A)
    return raw, J3


def _ref_tangent(states, raw):
    """(t2 w, -t1 w, R2) with w = t2 R0 - t1 R1."""
    t1, t2 = states[..., 0], states[..., 1]
    w = t2 * raw[..., 0] - t1 * raw[..., 1]
    out = np.empty(raw.shape)
    out[..., 0] = t2 * w
    out[..., 1] = -t1 * w
    out[..., 2] = raw[..., 2]
    return out


def _ref_risk_batch(states, problem):
    states = np.asarray(states, dtype=float)
    t3 = states[..., 2]
    raw, J3 = _ref_raw_and_j3(states, problem)
    return t3 * raw[..., 2] - t3 * t3 * J3 + problem.centered_square


BITWISE_TARGETS = (  # the circle_batch benchmark's targets and a degree-5 piece
    affine_target(0.0, 1.0),
    abs_offset_target(0.3),
    affine_target(1.0, -1.0),
    piecewise_linear_target(np.linspace(0.0, 1.0, 9), np.random.default_rng(5).uniform(-1.0, 1.0, 9)),
    PiecewisePolynomial((0.0, 0.55, 1.0), ((0.2, -1.0, 3.0, 0.5, -2.0, 1.5), (0.4, 1.0, -0.5))),
)
# (t1, t2) rows: t1 = 0 with t2 > 0, < 0 and = 0 (and t1 = -0), q exactly 0
# and exactly 1, and a nan in either slot
EDGE_ROWS = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0], [-0.0, 0.5], [0.6, 0.0], [-0.6, -0.0],
                      [0.6, -0.6], [-INV_SQRT2, INV_SQRT2], [np.nan, 0.5], [0.5, np.nan]])


def _same_bits(got, ref):
    """Equal bytes wherever ref is a number, and nan exactly where ref is."""
    got, ref = np.asarray(got), np.asarray(ref)
    nan = np.isnan(ref)
    return (got.shape == ref.shape and np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, ref).tobytes())


@given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (34,), (3, 17)]),
       st.integers(0, len(BITWISE_TARGETS) - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_one_pass_matches_the_two_pass_formulas_bit_for_bit(seed, shape, target, on_circle):
    # states of shape (3,), (B, 3) and (R, B, 3); off the circle the radius
    # ranges over [0.05, 3]
    rng = np.random.default_rng(seed)
    problem = on.as_problem(BITWISE_TARGETS[target])
    n = math.prod(shape)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = 1.0 if on_circle else rng.uniform(0.05, 3.0, n)
    rows = np.column_stack([radius * np.cos(angle), radius * np.sin(angle), 3.0 * rng.standard_normal(n)])
    edge = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
    rows[edge, :2] = EDGE_ROWS[rng.integers(0, len(EDGE_ROWS), len(edge))]
    if rng.random() < 0.2:
        rows[rng.integers(n), 2] = np.nan
    states = rows.reshape(shape + (3,))
    with np.errstate(invalid="ignore"):
        raw = _ref_raw_and_j3(states, problem)[0]
        tangent, risk = _ref_tangent(states, raw), _ref_risk_batch(states, problem)
    G, R, L = _one_pass(states, problem, True)
    assert _same_bits(G, tangent) and _same_bits(R, raw) and _same_bits(L, risk)
    assert _same_bits(on.gradient_batch(states, problem), tangent)
    assert _same_bits(on.risk_batch(states, problem), risk)


class TestRecordedRisk:
    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("gamma", [1.0, "rescaled"])
    def test_recorded_risk_is_risk_batch_of_the_recorded_states(self, gamma, integrator, renormalize):
        # every third of 50 steps and the last; row 2 starts over the
        # divergence guard and is frozen at its start after one step
        problem = on.as_problem(abs_offset_target(0.3))
        inits = on.random_circle_states(np.random.default_rng(64), 5, t3_scale=2.0)
        inits[2, 2] = 2.0 * DIVERGENCE_GUARD
        cfg = on.OneNeuronConfig(t_end=0.5, step=1e-2, integrator=integrator,
                                 renormalize=renormalize, gamma=gamma, record_every=3)
        batch = on.flow_batch(inits, problem, cfg)
        np.testing.assert_array_equal(batch.stopped, [0, 0, 1, 0, 0])
        np.testing.assert_allclose(batch.times, np.r_[0:49:3, 50] * 1e-2)
        assert batch.risk.tobytes() == on.risk_batch(batch.states, problem).tobytes()


def _monitor_rates(states, problem):
    """Exact time derivatives of theta3_sq, V_right and V_left along the
    circle flow d theta/dt = -G."""
    G = on.gradient_batch(states, problem)
    t1, t3 = states[:, 0], states[:, 2]
    return {
        "theta3_sq": -2.0 * t3 * G[:, 2],
        "v_right": -(2.0 * t3 * G[:, 2] - 1.25 * (t1 - INV_SQRT2) * G[:, 0]),
        "v_left": -(2.0 * t3 * G[:, 2] + 1.25 * t1 * G[:, 0]),
    }


RANDOM_PIECEWISE_LINEAR = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5).map(
    lambda y: piecewise_linear_target(np.linspace(0.0, 1.0, 5), y))


@given(st.integers(0, 2**32 - 1),
       st.one_of(st.sampled_from([f for _, f in LYAPUNOV_TARGETS]), RANDOM_PIECEWISE_LINEAR))
@settings(max_examples=40, deadline=None)
def test_monitors_non_increasing_inside_their_windows(seed, f):
    # circle states near both boundary regimes (q close to 1 and to 0),
    # where the windows lie, with t3 of either sign
    rng = np.random.default_rng(seed)
    n = 1000
    q = np.concatenate([rng.uniform(0.85, 1.0, n), rng.uniform(0.0, 0.15, n)])
    t1 = np.repeat([1.0, -1.0], n) / np.sqrt(1.0 + q * q)
    states = np.column_stack([t1, -q * t1, rng.uniform(-4.0, 4.0, 2 * n)])
    problem = on.as_problem(f)
    masks = on.applicability_masks(states, problem)
    tol = 1e-12 * (1.0 + states[:, 2] ** 2)  # rounding of the exact rate
    for name, rate in _monitor_rates(states, problem).items():
        inside = masks[name]
        assert np.all(rate[inside] <= tol[inside]), name
