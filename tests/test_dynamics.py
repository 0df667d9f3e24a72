import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgflow import (
    Architecture,
    FlowConfig,
    ParamVector,
    QuadratureError,
    TargetFunction,
    TrajectoryRecord,
    abs_offset_target,
    affine_target,
    discrete_measure,
    exact_breakpoints,
    forward,
    gd_run,
    generalized_gradient,
    hidden_mean,
    integrate_flow,
    max_constraint_deviation,
    piecewise_linear_target,
    project_gradient,
    quadrature_nodes,
    random_on_manifold,
    random_params,
    risk,
    risk_and_gradient,
    uniform_measure,
)
from mgflow import one_neuron as on
from mgflow.dynamics import GAMMA_CAP, ConfigError, _network_field, fixed_step, step_factor
from mgflow.quadrature import quiet
from mgflow.verify import LYAPUNOV_TARGETS

MU = uniform_measure(0, 1, 1)
F = TargetFunction.from_scalar(abs_offset_target(0.3))


def _record(states):
    states = np.asarray(states, dtype=float)
    rows = np.zeros(len(states))
    return TrajectoryRecord(rows, states, rows, rows, rows, stopped=np.array(0))


class TestSupNorm:
    def test_equals_the_per_row_norm_loop(self):
        states = np.random.default_rng(4).normal(size=(50, 13)) * np.logspace(-150, 150, 50)[:, None]
        rec = _record(states)
        assert rec.sup_norm == max(float(np.linalg.norm(s)) for s in states)

    def test_a_nan_row_gives_nan_in_any_order(self):
        # max over a Python generator skipped a nan that came after a number
        for states in ([[3.0, 4.0], [np.nan, 0.0]], [[np.nan, 0.0], [3.0, 4.0]]):
            assert np.isnan(_record(states).sup_norm)

    @pytest.mark.parametrize("state, norm", [([0.6, 0.8, 1e200], 1e200), ([3e-170, 4e-170, 0.0], 5e-170)])
    def test_a_state_whose_squares_overflow_or_underflow_keeps_its_norm(self, state, norm):
        # the squared norm is inf at 1e200 and 0 at 5e-170; the record gave inf and 0
        assert _record([[0.0, 0.0, 0.0], state]).sup_norm == norm

    def test_a_nan_state_beside_a_huge_one_gives_nan(self):
        for states in ([[0.6, 0.8, 1e200], [np.nan, 0.8, 1.0]], [[np.nan, 0.8, 1.0], [3e-170, 4e-170, 0.0]]):
            assert np.isnan(_record(states).sup_norm)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([3, 25, 37]))
@settings(max_examples=60, deadline=None)
def test_recorded_grad_norm_is_linalg_norm_bit_for_bit(seed, B, P):
    # rows of G over 200 orders of magnitude, some with zeros
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((B, P)) * 10.0 ** rng.uniform(-100, 100, (B, 1))
    G[rng.random((B, P)) < 0.1] = 0.0
    cfg = FlowConfig(t_end=1.0, step=1.0, integrator="euler", gamma=0.0)
    record = fixed_step(lambda Y, record: (G, G, np.zeros(B), np.zeros(B)), np.zeros((B, P)), cfg, 0,
                        lambda Y: (Y, 0))
    assert record.grad_norm[0].tobytes() == np.linalg.norm(G, axis=-1).tobytes()


def test_field_failure_at_a_stage_state_makes_the_step_non_finite():
    # the field fails everywhere but at the start: RK4's stage 2 makes the
    # first step non-finite, so both rows freeze at the start; an Euler step
    # reaches a new state, which is recorded, and the failure there propagates
    start = np.ones((2, 3))

    def field(Y, record):
        if not np.array_equal(Y, start):
            raise QuadratureError("risk or gradient has non-finite components")
        return np.ones_like(Y), np.ones_like(Y), np.zeros(len(Y)), np.zeros(len(Y))

    record = fixed_step(field, start, FlowConfig(t_end=0.3, step=0.1), 3, lambda Y: (Y, 0))
    assert record.termination.tolist() == ["nonfinite"] * 2 and record.stopped.tolist() == [1, 1]
    np.testing.assert_array_equal(record.states, [start, start])
    with pytest.raises(QuadratureError):
        fixed_step(field, start, FlowConfig(t_end=0.3, step=0.1, integrator="euler"), 3, lambda Y: (Y, 0))


@pytest.mark.parametrize("rk4", [False, True])
def test_field_failure_at_a_first_stage_propagates_recorded_or_not(rk4):
    # the field evaluates only the first step and only every fifth state is
    # recorded: under gamma = 0 every stage state of step 0 is the start, the
    # retraction moves it to state 1, which is not recorded, and the failure
    # at its first stage (Euler's only stage) propagates
    start = np.ones((2, 3))
    calls = []

    def field(Y, record):
        calls.append(record)
        if len(calls) > (4 if rk4 else 1):
            raise QuadratureError("risk or gradient has non-finite components")
        return np.ones_like(Y), np.ones_like(Y), np.zeros(len(Y)), np.zeros(len(Y))

    cfg = FlowConfig(t_end=1.0, step=0.1, integrator="rk4" if rk4 else "euler", gamma=0.0, record_every=5)
    with pytest.raises(QuadratureError):
        fixed_step(field, start, cfg, 10, lambda Y: (Y + 1.0, 0))
    assert calls == [True] + [False] * (4 if rk4 else 1)


class TestStepperGammaRule:
    """`fixed_step` applies the schedule's gamma rule to the (G, raw) rows a
    field returns; a field that returns fixed rows has a constant rate."""

    Y = np.random.default_rng(5).standard_normal((3, 4))
    h = 0.01

    def step(self, G, raw, integrator, gamma):
        cfg = FlowConfig(t_end=self.h, step=self.h, integrator=integrator, gamma=gamma)
        return fixed_step(lambda Y, record: (G, raw, np.zeros(len(Y)), np.zeros(len(Y))), self.Y, cfg, 1,
                          lambda Y: (Y, 0)).states[-1]

    def expected(self, integrator, k):
        Y, h = self.Y, self.h
        return Y + h * k if integrator == "euler" else Y + h / 6.0 * (k + 2.0 * k + 2.0 * k + k)

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 3.0])
    def test_a_number_scales_every_row(self, gamma, integrator):
        G = np.random.default_rng(6).standard_normal(self.Y.shape)
        got = self.step(G, np.full_like(G, np.nan), integrator, gamma)  # raw is not read
        assert got.tobytes() == self.expected(integrator, -gamma * G).tobytes()

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_rescaled_scales_each_row_by_its_step_factor(self, integrator):
        # |raw|^2 / |G|^2 of about 1e10 (clipped to GAMMA_CAP), of 4, and G = 0 (factor 0)
        raw = np.array([[1e4, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        G = np.array([[0.0, 0.1, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        got = self.step(G, raw, integrator, "rescaled")
        factor = quiet(step_factor)(raw, G)
        np.testing.assert_array_equal(factor, [[GAMMA_CAP], [4.0], [0.0]])
        assert got.tobytes() == self.expected(integrator, -factor * G).tobytes()


class TestFlowConfig:
    def test_one_schedule_serves_the_three_dynamics(self):
        names = [f.name for f in dataclasses.fields(FlowConfig)]
        assert names == ["t_end", "step", "integrator", "renormalize", "gamma", "record_every"]
        assert on.OneNeuronConfig is FlowConfig
        # the keywords bench/workloads.py builds the circle flow's schedule with
        cfg = on.OneNeuronConfig(t_end=0.5, step=1e-2, integrator="rk4", renormalize=True, gamma=1.0)
        assert (cfg.t_end, cfg.step, cfg.integrator, cfg.renormalize, cfg.gamma, cfg.record_every) == (
            0.5, 1e-2, "rk4", True, 1.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(t_end=0.0)
        with pytest.raises(ValueError):
            FlowConfig(step=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            FlowConfig(integrator="rk5")
        with pytest.raises(ValueError):
            FlowConfig(gamma="adaptive")
        with pytest.raises(ValueError):
            FlowConfig(record_every=0)

    @pytest.mark.parametrize("t_end, step", [
        (1.0, 0.6), (1.0, 0.4), (0.02, 0.003), (1.0 + 1e-8, 1e-3),
    ])
    def test_a_horizon_between_steps_is_refused(self, t_end, step):
        # the run ended at round(t_end / step) steps: t = 1.2 for (1, 0.6), 0.8 for (1, 0.4)
        for config in (FlowConfig, on.OneNeuronConfig):
            with pytest.raises(ConfigError, match="config field 'step': .* whole number of steps"):
                config(t_end=t_end, step=step)

    @pytest.mark.parametrize("t_end, step", [
        (20 * 1e-3, 1e-3), (40 * 1e-2, 1e-2), (0.005, 1e-3), (0.05, 1e-3), (0.5, 1e-2), (1.0, 1e-3),
        (2.0, 1e-4), (10.0, 1e-3), (100.0, 1e-2), (0.3, 0.1), (0.7, 0.1), (1.0 + 1e-11, 1e-3),
    ])
    def test_a_float_rounded_multiple_of_the_step_is_kept(self, t_end, step):
        FlowConfig(t_end=t_end, step=step)
        on.OneNeuronConfig(t_end=t_end, step=step)


class TestIntegrateFlow:
    def test_stationary_at_matched_target(self):
        # dead hidden unit and zero output weight: gradient vanishes at a
        # zero target, so the trajectory is constant
        arch = Architecture((1, 1, 1))
        xi = ParamVector(arch, np.array([0.0, -1.0, 0.0, 0.0]))
        rec = integrate_flow(xi, MU, TargetFunction.zero(), FlowConfig(t_end=0.5, step=1e-2))
        assert rec.termination == "stationary"
        np.testing.assert_array_equal(rec.states[0], rec.states[-1])
        assert rec.times[-1] == pytest.approx(0.5)

    def test_record_structure(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(31))
        # start, every k-th of 50 steps, and the last step when k does not divide 50
        for k, steps in ((10, [0, 10, 20, 30, 40, 50]), (15, [0, 15, 30, 45, 50])):
            rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.05, step=1e-3, record_every=k))
            assert all(len(getattr(rec, name)) == len(rec.times)
                       for name in ("states", "risk", "psi_max_dev", "grad_norm"))
            assert np.all(np.diff(rec.times) > 0)
            np.testing.assert_allclose(rec.times, np.array(steps) * 1e-3)

    def test_initial_state_is_rescaled(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(32))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.01, step=1e-2))
        assert rec.psi_max_dev[0] <= 1e-12

    def test_psi_invariance_without_reprojection(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(33))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.2, step=1e-3, renormalize=False))
        assert max(rec.psi_max_dev) <= 1e-8

    def test_risk_monotone_euler_and_rk4(self):
        arch = Architecture((1, 3, 1))
        xi = random_params(arch, np.random.default_rng(34))
        for integ in ("euler", "rk4"):
            rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.2, step=1e-3, integrator=integ))
            assert np.max(np.diff(rec.risk)) <= 1e-8

    def test_tangency_along_trajectory(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(35))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.05, step=1e-3, record_every=10))
        for state in rec.states:
            theta = ParamVector(arch, state)
            G = project_gradient(theta, generalized_gradient(theta, MU, F))
            for rows in arch.subvector_rows[:-1]:
                for idx in rows:  # grad psi is 2V on the hidden row V, zero elsewhere
                    assert abs(G[idx] @ (2.0 * theta.values[idx])) <= 1e-12


    def test_a_stage_whose_risk_alone_overflows_freezes_under_the_guard(self):
        # an output bias of 1e150 (risk 1e300): RK4's stage states push the risk
        # past overflow while their raw gradients stay finite, and an unrecorded
        # stage computes no risk, so the step completes, over the guard
        xi = random_params(Architecture((1, 8, 1)), np.random.default_rng(0))
        xi.values[-1] = 1e150
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.01, step=0.01, gamma=1e7))
        assert rec.termination == "divergence_guard" and rec.stopped == 1

    def test_one_node_set_per_rhs_evaluation(self, monkeypatch):
        # RK4 evaluates the field 4 times per step plus once at the last state;
        # the recorded risk comes from the first of them, without a node set of
        # its own; each node set is one segment rule over the stage's edges
        from mgflow import quadrature

        calls = []
        build = quadrature.segment_rule
        monkeypatch.setattr(quadrature, "segment_rule", lambda *a, **k: calls.append(1) or build(*a, **k))
        xi = random_params(Architecture((1, 8, 1)), np.random.default_rng(12))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.01, step=1e-3, record_every=1))
        assert len(rec.times) == 11
        assert len(calls) == 4 * 10 + 1


class TestGradientDescent:
    def test_zero_step_size_is_fixed_point(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(36))
        rec = gd_run(xi, MU, F, steps=5, gamma=0.0)
        for state in rec.states[1:]:
            np.testing.assert_array_equal(state, rec.states[0])

    def test_stationary_start_closes_the_run(self):
        # the flow's stationary start (dead neuron, zero output weight, zero
        # target) closes descent too: its start, again at n = steps
        xi = ParamVector(Architecture((1, 1, 1)), np.array([0.0, -1.0, 0.0, 0.0]))
        rec = gd_run(xi, MU, TargetFunction.zero(), steps=7, gamma=0.5)
        assert rec.termination == "stationary" and rec.stopped == 0
        np.testing.assert_array_equal(rec.times, [0.0, 7.0])
        np.testing.assert_array_equal(rec.states[1], rec.states[0])

    def test_unit_constraints_after_every_step(self):
        arch = Architecture((1, 4, 1))
        xi = random_params(arch, np.random.default_rng(37))
        rec = gd_run(xi, MU, F, steps=20, gamma=0.05)
        for state in rec.states:
            assert max_constraint_deviation(ParamVector(arch, state)) <= 1e-12

    def test_risk_decreases_with_small_constant_step(self):
        arch = Architecture((1, 8, 1))
        xi = random_params(arch, np.random.default_rng(38))
        rec = gd_run(xi, MU, F, steps=1000, gamma=1e-3, record_every=100)
        assert rec.risk[-1] < rec.risk[0]

    def test_risk_decreases_on_one_neuron_problem(self):
        # tiny network, output bias started at the target mean
        arch = Architecture((1, 1, 1))
        fbar = 0.3**2 / 2 + 0.7**2 / 2  # mean of |s - 0.3| on [0, 1]
        xi = ParamVector(arch, np.array([0.6, 0.8, 1.5, fbar]))
        rec = gd_run(xi, MU, F, steps=1000, gamma=1e-3, record_every=250)
        assert rec.risk[-1] < rec.risk[0]

    def test_rescaled_schedule_descends(self):
        arch = Architecture((1, 3, 1))
        xi = random_params(arch, np.random.default_rng(44))
        rec = gd_run(xi, MU, F, steps=200, gamma="rescaled", record_every=50)
        assert rec.risk[-1] < rec.risk[0]
        for state in rec.states:
            assert max_constraint_deviation(ParamVector(arch, state)) <= 1e-12

    def test_flow_with_smoothed_activation(self):
        # constraint invariance is a property of the projection, not of the
        # activation: it holds for the smoothed family too
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(45))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.2, step=1e-3, renormalize=False), r=100.0)
        assert max(rec.psi_max_dev) <= 1e-8
        assert np.max(np.diff(rec.risk)) <= 1e-8

    @pytest.mark.parametrize("gamma", ["adaptive", -0.1, [0.1, 0.1], None, float("nan"), "0.1"])
    def test_rejects_unknown_schedule(self, gamma):
        # descent takes the flow's gamma rule: a negative gamma would run
        # gradient ascent, and a per-step list is not a step factor
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(40))
        with pytest.raises(ValueError, match="'gamma'"):
            gd_run(xi, MU, F, steps=5, gamma=gamma)

    def test_divergence_ends_with_last_valid_state(self):
        # the first step overshoots the guard; the record closes with the
        # state before it, for descent and for the flow alike
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(46))
        cfg = FlowConfig(t_end=0.05, step=1e-2, integrator="euler", gamma=1e15)
        for rec in (gd_run(xi, MU, F, steps=5, gamma=1e15), integrate_flow(xi, MU, F, cfg)):
            assert rec.termination == "divergence_guard"
            assert len(rec.states) == 2 and np.all(np.isfinite(rec.risk))
            np.testing.assert_array_equal(rec.states[-1], rec.states[0])

    def test_nan_row_beside_a_zero_row_is_not_a_degenerate_event(self):
        # the first step overflows hidden row 1 into nan while row 2 stays
        # zero: the run ends non-finite, and the zero row counts only on
        # finite states, so only the (finite) start counts it
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(42))
        xi.values[arch.subvector_rows[0][1]] = 0.0
        f = TargetFunction.from_scalar(affine_target(0.0, 100.0))
        with pytest.warns(RuntimeWarning, match="zero hidden subvector"):
            rec = gd_run(xi, MU, f, steps=3, gamma=1.7e308)
        assert rec.termination == "nonfinite"
        assert rec.degenerate_events == 1

    @pytest.mark.parametrize("gamma, word", [(1e15, "divergence_guard"), (1e308, "nonfinite")])
    def test_termination_names_the_freeze_reason(self, gamma, word):
        # a huge finite step leaves finite components above the guard; a step
        # near the float limit overflows the state, and the retraction turns
        # inf into nan.  Descent and the one-neuron circle flow say the same.
        xi = random_params(Architecture((1, 2, 1)), np.random.default_rng(46))
        f = affine_target(0.0, 100.0)
        cfg = on.OneNeuronConfig(t_end=1.0, step=0.5, integrator="euler", gamma=gamma)
        rec = gd_run(xi, MU, TargetFunction.from_scalar(f), steps=3, gamma=gamma)
        batch = on.flow_batch([[0.6, 0.8, 1.0], [0.0, -1.0, 2.0]], f, cfg)
        assert rec.termination == word
        assert batch.termination.tolist() == [word, "completed"]
        assert batch.row(0).termination == word and batch.row(1).termination == "completed"

    def test_degenerate_start_warns(self):
        arch = Architecture((1, 2, 1))
        xi = ParamVector(arch, np.zeros(arch.param_count))
        with pytest.warns(RuntimeWarning, match="zero hidden subvector"):
            integrate_flow(xi, MU, TargetFunction.zero(), FlowConfig(t_end=0.01, step=1e-2))

    def test_degenerate_events_count_zero_rows_after_each_retraction(self):
        # neuron (1, 2) starts and stays at zero (its gradient vanishes), so
        # the start and each of the 5 retracted states count once
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(47))
        xi.values[arch.subvector_rows[0][1]] = 0.0
        with pytest.warns(RuntimeWarning, match="zero hidden subvector"):
            rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.05, step=1e-2, integrator="euler"))
        assert rec.degenerate_events == 6
        nonzero = random_params(arch, np.random.default_rng(48))
        assert integrate_flow(nonzero, MU, F, FlowConfig(t_end=0.05, step=1e-2)).degenerate_events == 0

    def test_flow_and_descent_count_every_zero_row_of_the_start(self):
        # both hidden rows start and stay at zero: the rescaled start and
        # each retracted state count 2, for the flow and for descent alike
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(49))
        for i in (1, 2):
            xi.values[arch.subvector_rows[0][i - 1]] = 0.0
        with pytest.warns(RuntimeWarning, match="zero hidden subvector"):
            rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.05, step=1e-2, integrator="euler"))
        assert rec.degenerate_events == 2 + 5 * 2
        with pytest.warns(RuntimeWarning, match="zero hidden subvector"):
            rec = gd_run(xi, MU, F, steps=3, gamma=0.1)
        assert rec.degenerate_events == 2 + 3 * 2


class TestRescaledGamma:
    def test_tangent_gradient_gives_unit_factor(self):
        # with zero output weights the gradient lives on output-layer
        # coordinates only, so it is already tangent and the factor is 1
        rng = np.random.default_rng(41)
        arch = Architecture((1, 3, 1))
        theta = random_on_manifold(arch, rng)
        theta.weights(2)[:] = 0.0
        theta.biases(2)[:] = 2.0
        raw = generalized_gradient(theta, MU, F)
        proj = project_gradient(theta, raw)
        np.testing.assert_array_equal(proj, raw)
        assert step_factor(raw, proj) == pytest.approx(1.0)

    def test_factor_at_least_one_generically(self):
        rng = np.random.default_rng(43)
        arch = Architecture((1, 3, 1))
        theta = random_on_manifold(arch, rng)
        raw = generalized_gradient(theta, MU, F)
        assert step_factor(raw, project_gradient(theta, raw)) >= 1.0

    def test_synthetic_decomposition(self):
        rng = np.random.default_rng(42)
        arch = Architecture((1, 3, 1))
        theta = random_on_manifold(arch, rng)
        tangent = project_gradient(theta, rng.standard_normal(arch.param_count))
        normal = np.zeros(arch.param_count)
        for rows in arch.subvector_rows[:-1]:
            normal[rows] += 0.7 * theta.values[rows]
        mix = tangent + normal
        cos2 = (tangent @ tangent) / (mix @ mix)
        got = (mix @ mix) / (project_gradient(theta, mix) @ project_gradient(theta, mix))
        assert got == pytest.approx(1.0 / cos2)

    def test_vanishing_projection_signals_stationary(self):
        # gradient with only normal components projects to zero, and a
        # vanishing projection gives the factor 0: the state is stationary
        arch = Architecture((1, 1, 1))
        theta = ParamVector(arch, np.array([0.0, -1.0, 0.0, 0.0]))
        raw = generalized_gradient(theta, MU, TargetFunction.zero())
        proj = project_gradient(theta, raw)
        assert not proj.any()
        assert quiet(step_factor)(raw, proj) == 0.0  # the caller sets the error state

    def test_gamma_cap_clips_the_factor_per_row(self):
        # per-row ratios |raw|^2 / |proj|^2 of about 1e10, of 4, and over a
        # zero projection: clipped to GAMMA_CAP, passed, and 0
        raw = np.array([[1e4, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        proj = np.array([[0.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        factor = quiet(step_factor)(raw, proj)
        np.testing.assert_array_equal(factor, [[GAMMA_CAP], [4.0], [0.0]])


class TestRecordedRowsAreASubsample:
    """A record with record_every = 3 holds the rows of the record_every = 1
    record at the same steps, bit for bit in every column: a field stage that
    is not recorded (and computes no risk) moves the state exactly as a
    recorded one does."""

    N_STEPS = 20  # not a multiple of 3: the last step is recorded on its own

    def assert_subsample(self, run):
        every3, every1 = run(3), run(1)
        steps = [n for n in range(self.N_STEPS + 1) if n % 3 == 0 or n == self.N_STEPS]
        assert len(every1.times) == self.N_STEPS + 1
        for name in ("times", "states", "risk", "psi_max_dev", "grad_norm"):
            got, want = getattr(every3, name), getattr(every1, name)[steps]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert np.array_equal(every3.stopped, every1.stopped)
        assert np.array_equal(every3.termination, every1.termination)
        assert every3.degenerate_events == every1.degenerate_events

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("gamma", [1.0, "rescaled"])
    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    def test_flow(self, integrator, gamma, renormalize):
        xi = random_params(Architecture((1, 4, 1)), np.random.default_rng(41))
        self.assert_subsample(lambda k: integrate_flow(xi, MU, F, FlowConfig(
            t_end=self.N_STEPS * 1e-3, step=1e-3, integrator=integrator, renormalize=renormalize,
            gamma=gamma, record_every=k)))

    @pytest.mark.parametrize("gamma", [0.05, "rescaled"])
    @pytest.mark.parametrize("dims, resolution", [((1, 4, 1), None), ((1, 3, 3, 1), 32)])
    def test_descent(self, dims, resolution, gamma):
        xi = random_params(Architecture(dims), np.random.default_rng(42))
        self.assert_subsample(lambda k: gd_run(xi, MU, F, steps=self.N_STEPS, gamma=gamma,
                                               resolution=resolution, record_every=k))

    @pytest.mark.parametrize("gamma", [1.0, "rescaled"])
    def test_circle_flow(self, gamma):
        inits = on.random_circle_states(np.random.default_rng(43), 4, t3_scale=1.0)
        self.assert_subsample(lambda k: on.flow_batch(inits, abs_offset_target(0.3), on.OneNeuronConfig(
            t_end=self.N_STEPS * 1e-2, step=1e-2, gamma=gamma, record_every=k)))


class TestNetworkField:
    """The network field projects the per-layer gradients against the rows
    its pass gathered; it must give what the flat functions give."""

    SETUPS = {
        "1,8,1 exact ReLU": ((1, 8, 1), MU, None, float("inf")),
        "1,8,1 r = 50": ((1, 8, 1), MU, None, 50.0),
        "2,4,4,1 grid 16": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 16, float("inf")),
        # the output delta a matrix product (two outputs); a rank-one hidden delta (width 1)
        "2,3,2 grid 16": ((2, 3, 2), uniform_measure(0, 1, 2), 16, float("inf")),
        "2,4,1,1 grid 16": ((2, 4, 1, 1), uniform_measure(0, 1, 2), 16, float("inf")),
        "1,3,3,1 grid 32": ((1, 3, 3, 1), MU, 32, float("inf")),
        "1,4,1 discrete": ((1, 4, 1), discrete_measure([[0.1], [0.35], [0.8]], [0.5, 1.0, 2.0]),
                           None, float("inf")),
    }

    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SETUPS)),
           st.sampled_from(["manifold", "off", "zero row"]))
    @settings(max_examples=60, deadline=None)
    def test_field_equals_the_flat_projection_bit_for_bit(self, seed, setup, start):
        dims, measure, resolution, r = self.SETUPS[setup]
        arch = Architecture(dims)
        f = self.targets(dims)[0]
        rng = np.random.default_rng(seed)
        theta = random_on_manifold(arch, rng) if start == "manifold" else random_params(arch, rng)
        if start == "zero row":
            theta.values[arch.subvector_rows[0][-1]] = 0.0
        field = quiet(_network_field(arch, measure, f, r, resolution))  # as in fixed_step
        G, field_raw, (value,), (deviation,) = field(theta.values[None, :], True)
        expected_value, raw = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
        proj = project_gradient(theta, raw)
        assert G.shape == field_raw.shape == (1, arch.param_count)
        assert np.array_equal(G[0], proj) and np.array_equal(field_raw[0], raw)
        # the field's rows give a (1, 1) factor where the flat call gives (1,)
        assert np.array_equal(step_factor(field_raw, G)[0], step_factor(raw, proj))
        assert value == expected_value and deviation == max_constraint_deviation(theta)
        # an unrecorded stage gives the same gradients and no risk or psi
        G, field_raw, value, deviation = field(theta.values[None, :], False)
        assert np.array_equal(G[0], proj) and np.array_equal(field_raw[0], raw)
        assert value is None and deviation is None

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("setup", ["1,8,1 exact ReLU", "2,4,4,1 grid 16"])
    def test_field_refuses_a_nonfinite_raw_gradient(self, setup, record):
        # output weights of 1e300: the hidden deltas overflow, and so does the risk
        dims, measure, resolution, r = self.SETUPS[setup]
        arch = Architecture(dims)
        theta = random_on_manifold(arch, np.random.default_rng(5))
        theta.weights(arch.depth)[:] = 1e300
        field = quiet(_network_field(arch, measure, self.targets(dims)[0], r, resolution))
        with pytest.raises(QuadratureError):
            field(theta.values[None, :], record)

    @pytest.mark.parametrize("setup", ["1,8,1 exact ReLU", "2,4,4,1 grid 16"])
    def test_only_a_recorded_stage_refuses_an_overflowing_risk(self, setup):
        # an output bias of 1e160: the risk overflows, while the centered
        # residual keeps the gradient finite; an unrecorded stage computes no risk
        dims, measure, resolution, r = self.SETUPS[setup]
        arch = Architecture(dims)
        theta = random_on_manifold(arch, np.random.default_rng(6))
        theta.biases(arch.depth)[:] = 1e160
        field = quiet(_network_field(arch, measure, self.targets(dims)[0], r, resolution))
        G, raw, value, deviation = field(theta.values[None, :], False)
        assert np.isfinite(raw).all() and np.isfinite(G).all() and value is None
        with pytest.raises(QuadratureError):
            field(theta.values[None, :], True)

    @staticmethod
    def targets(dims):
        """The run's target and another one, for passes between field calls."""
        if dims[0] == 1:
            return F, TargetFunction.from_scalar(affine_target(0.2, -0.5))
        if dims[-1] == 2:
            return (TargetFunction.affine_map([[0.5, -0.25], [0.3, 0.8]], [0.1, -0.2]),
                    TargetFunction.affine_map([[-1.0, 2.0], [0.4, 0.0]], [0.3, 0.5]))
        return TargetFunction.affine_map([[0.5, -0.25]], [0.1]), TargetFunction.affine_map([[-1.0, 2.0]], [0.3])

    @staticmethod
    def direct_nodes(theta, measure, f, r, resolution):
        """A pass's nodes and weights built without a node plan."""
        bp = exact_breakpoints(theta, None if f is None else f.breakpoints, r) if measure.kind == "uniform" else None
        return quadrature_nodes(measure, breakpoints=bp, resolution=resolution)

    def direct_risk(self, theta, measure, f, r, resolution):
        """The risk pass on nodes and target values built without the run's
        node plan: on a discrete measure at those nodes and weights."""
        X, w = self.direct_nodes(theta, measure, f, r, resolution)
        return risk(theta, discrete_measure(X, w, measure.a, measure.b), f, r=r)

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_one_plan_serves_a_sequence_of_states(self, setup):
        # one field (one node plan) over several states, with a risk pass for
        # another target on the same node set and a hidden_mean pass between
        # its calls; every result equals a fresh one, and the risks equal a
        # pass on nodes and target values built without any plan
        dims, measure, resolution, r = self.SETUPS[setup]
        arch = Architecture(dims)
        f, other = self.targets(dims)
        rng = np.random.default_rng(31)
        field = _network_field(arch, measure, f, r, resolution)
        for _ in range(4):
            theta = random_on_manifold(arch, rng)
            G, field_raw, (value,), (deviation,) = field(theta.values[None, :], True)
            expected_value, raw = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
            proj = project_gradient(theta, raw)
            assert np.array_equal(G[0], proj) and np.array_equal(field_raw[0], raw)
            assert np.array_equal(step_factor(field_raw, G)[0], step_factor(raw, proj))
            assert value == expected_value == self.direct_risk(theta, measure, f, r, resolution)
            assert deviation == max_constraint_deviation(theta)
            assert (risk(theta, measure, other, r=r, resolution=resolution)
                    == self.direct_risk(theta, measure, other, r, resolution))
            X, w = self.direct_nodes(theta, measure, None, r, resolution)
            assert np.array_equal(hidden_mean(theta, measure, r=r, resolution=resolution),
                                  forward(theta, X, r=r)[1][-1].T @ w)

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_target_evaluated_once_per_run_on_a_fixed_node_set(self, setup):
        # a grid or a discrete measure: one evaluation per descent run; the
        # exact path: one per field call (3 steps and the last state)
        dims, measure, resolution, r = self.SETUPS[setup]
        arch = Architecture(dims)
        f = self.targets(dims)[0]
        calls = []
        counting = TargetFunction(lambda x: calls.append(len(x)) or f(x), f.out_dim, f.breakpoints)
        xi = random_params(arch, np.random.default_rng(32))
        rec = gd_run(xi, measure, counting, 3, 1e-2, r=r, resolution=resolution)
        fixed = measure.kind == "discrete" or dims != (1, 8, 1)
        assert len(calls) == (1 if fixed else 4)
        expected = gd_run(xi, measure, f, 3, 1e-2, r=r, resolution=resolution)
        assert np.array_equal(rec.states, expected.states) and np.array_equal(rec.risk, expected.risk)


# The network flow on 1,1,1 from [t1, t2, t3, fbar] against the circle flow
# from (t1, t2, t3): one dynamics, computed by quadrature and in closed form.
CIRCLE_TARGETS = [f for _, f in LYAPUNOV_TARGETS] + [
    piecewise_linear_target(np.linspace(0.0, 1.0, 9), [0.5, -0.6, 0.3, 0.9, -0.2, 0.8, -0.7, 0.4, 0.6])]
# arcs of the angle a of (t1, t2) = (cos a, sin a) in each regime of the neuron
REGIME_ARCS = {"empty": (np.pi, 1.75 * np.pi), "full": (0.0, 0.75 * np.pi),
               "left": (0.75 * np.pi, np.pi), "right": (1.75 * np.pi, 2.0 * np.pi)}
# (gamma, integrator, retraction); Euler without the retraction leaves the
# circle, where the two fields differ (the circle's angular part is
# |(t1, t2)|^2 times the network's)
CIRCLE_SCHEMES = [(gamma, integrator, retract) for gamma in (1.0, "rescaled")
                  for integrator in ("rk4", "euler") for retract in (True, False)
                  if (integrator, retract) != ("euler", False)]
# RK4's inner stage states leave the circle by (h |G|)^2 / 4 even with the
# retraction, so the same difference of fields reaches every RK4 run; it
# stays below 1e-12 relative over 500 steps of h = 1e-3 (at most 8.9e-13 on
# grad_norm seen; 6.1e-15 with the circle field divided by |(t1, t2)|^2)
SCHEME_TOL = {"euler": 1e-13, "rk4": 1e-11}


@given(st.sampled_from(sorted(REGIME_ARCS)), st.floats(0.02, 0.98), st.floats(-2.0, 2.0),
       st.integers(0, len(CIRCLE_TARGETS) - 1))
@example("empty", 0.5, 1.5, 0)
@example("full", 0.3, -1.2, 1)
@example("left", 0.7, 0.8, 2)
@example("right", 0.4, -1.9, 3)
@settings(max_examples=8, deadline=None)
def test_network_flow_on_1_1_1_is_the_circle_flow(regime, frac, t3, target):
    lo, hi = REGIME_ARCS[regime]
    angle = lo + frac * (hi - lo)
    start = np.array([np.cos(angle), np.sin(angle), t3])
    f = CIRCLE_TARGETS[target]
    problem = on.as_problem(f)
    xi = ParamVector(Architecture((1, 1, 1)), np.r_[start, problem.fbar])
    for gamma, integrator, retract in CIRCLE_SCHEMES:
        net = integrate_flow(xi, MU, TargetFunction.from_scalar(f),
                             FlowConfig(t_end=0.5, step=1e-3, integrator=integrator, renormalize=retract, gamma=gamma))
        circle = on.flow_batch(start, problem, on.OneNeuronConfig(
            t_end=0.5, step=1e-3, integrator=integrator, renormalize=retract, gamma=gamma)).row(0)
        scheme, tol = (gamma, integrator, retract), SCHEME_TOL[integrator]
        assert len(net.times) == len(circle.times) and net.termination == circle.termination, scheme
        np.testing.assert_array_equal(net.times, circle.times)
        # an inactive neuron stops both at their first row; the rest run all 500 steps
        assert len(net.times) == (2 if regime == "empty" else 501), scheme
        gap = np.linalg.norm(net.states[:, :3] - circle.states, axis=1)
        assert np.all(gap <= tol * np.linalg.norm(circle.states, axis=1)), scheme
        assert np.all(np.abs(net.states[:, 3] - problem.fbar) <= tol * abs(problem.fbar)), scheme
        # the closed forms round relative to their terms, not to their sum: the
        # risk t3^2 J3 + 2 t3 (t1 B + t2 A) + int (f - fbar)^2 to the risk plus
        # its value at t3 = 0, and the gradient (moments such as A and B,
        # bounded by Cauchy-Schwarz) to the square root of that
        scale = circle.risk + problem.centered_square
        assert np.all(np.abs(net.risk - circle.risk) <= tol * scale), scheme
        assert np.all(np.abs(net.grad_norm - circle.grad_norm) <= tol * np.sqrt(scale)), scheme
