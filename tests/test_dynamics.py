import numpy as np
import pytest
from hypothesis import given, settings
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
    network,
    project_gradient,
    quadrature_nodes,
    random_on_manifold,
    random_params,
    risk,
    risk_and_gradient,
    uniform_measure,
)
from mgflow import one_neuron as on
from mgflow.dynamics import _network_field, fixed_step, step_factor
from mgflow.quadrature import quiet

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


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([3, 25, 37]))
@settings(max_examples=60, deadline=None)
def test_recorded_grad_norm_is_linalg_norm_bit_for_bit(seed, B, P):
    # rows of G over 200 orders of magnitude, some with zeros
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((B, P)) * 10.0 ** rng.uniform(-100, 100, (B, 1))
    G[rng.random((B, P)) < 0.1] = 0.0
    record, _ = fixed_step(lambda Y, record: (G, 0.0, None), np.zeros((B, P)), 1.0, 0,
                           False, lambda Y: (Y, 0), 1)
    assert record.grad_norm[0].tobytes() == np.linalg.norm(G, axis=-1).tobytes()


def test_field_failure_at_a_stage_state_makes_the_step_non_finite():
    # the field fails everywhere but at the start: RK4's stage 2 makes the
    # first step non-finite, so both rows freeze at the start; an Euler step
    # reaches a new state, which is recorded, and the failure there propagates
    start = np.ones((2, 3))

    def field(Y, record):
        if not np.array_equal(Y, start):
            raise QuadratureError("risk or gradient has non-finite components")
        return np.ones_like(Y), 1.0, None

    record, _ = fixed_step(field, start, 0.1, 3, True, lambda Y: (Y, 0), 1)
    assert record.termination.tolist() == ["nonfinite"] * 2 and record.stopped.tolist() == [1, 1]
    np.testing.assert_array_equal(record.states, [start, start])
    with pytest.raises(QuadratureError):
        fixed_step(field, start, 0.1, 3, False, lambda Y: (Y, 0), 1)


class TestFlowConfig:
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
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.2, step=1e-3, reproject=False))
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


    def test_one_node_set_per_rhs_evaluation(self, monkeypatch):
        # RK4 evaluates the field 4 times per step plus once at the last state;
        # the recorded risk comes from the first of them, without a node set of
        # its own
        from mgflow import network

        calls = []
        build = network.quadrature_nodes
        monkeypatch.setattr(network, "quadrature_nodes", lambda *a, **k: calls.append(1) or build(*a, **k))
        xi = random_params(Architecture((1, 8, 1)), np.random.default_rng(12))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.01, step=1e-3, record_every=1))
        assert len(rec.times) == 11
        assert len(calls) == 4 * 10 + 1


class TestGradientDescent:
    def test_zero_step_size_is_fixed_point(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(36))
        rec = gd_run(xi, MU, F, steps=5, gammas=0.0)
        for state in rec.states[1:]:
            np.testing.assert_array_equal(state, rec.states[0])

    def test_unit_constraints_after_every_step(self):
        arch = Architecture((1, 4, 1))
        xi = random_params(arch, np.random.default_rng(37))
        rec = gd_run(xi, MU, F, steps=20, gammas=0.05)
        for state in rec.states:
            assert max_constraint_deviation(ParamVector(arch, state)) <= 1e-12

    def test_risk_decreases_with_small_constant_step(self):
        arch = Architecture((1, 8, 1))
        xi = random_params(arch, np.random.default_rng(38))
        rec = gd_run(xi, MU, F, steps=1000, gammas=1e-3, record_every=100)
        assert rec.risk[-1] < rec.risk[0]

    def test_risk_decreases_on_one_neuron_problem(self):
        # tiny network, output bias started at the target mean
        arch = Architecture((1, 1, 1))
        fbar = 0.3**2 / 2 + 0.7**2 / 2  # mean of |s - 0.3| on [0, 1]
        xi = ParamVector(arch, np.array([0.6, 0.8, 1.5, fbar]))
        rec = gd_run(xi, MU, F, steps=1000, gammas=1e-3, record_every=250)
        assert rec.risk[-1] < rec.risk[0]

    def test_rescaled_schedule_descends(self):
        arch = Architecture((1, 3, 1))
        xi = random_params(arch, np.random.default_rng(44))
        rec = gd_run(xi, MU, F, steps=200, gammas="rescaled", record_every=50)
        assert rec.risk[-1] < rec.risk[0]
        for state in rec.states:
            assert max_constraint_deviation(ParamVector(arch, state)) <= 1e-12

    def test_flow_with_smoothed_activation(self):
        # constraint invariance is a property of the projection, not of the
        # activation: it holds for the smoothed family too
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(45))
        rec = integrate_flow(xi, MU, F, FlowConfig(t_end=0.2, step=1e-3, reproject=False, r=100.0))
        assert max(rec.psi_max_dev) <= 1e-8
        assert np.max(np.diff(rec.risk)) <= 1e-8

    @pytest.mark.parametrize("gammas", ["adaptive", -0.1, [0.1, 0.1], None, float("nan"), "0.1"])
    def test_rejects_unknown_schedule(self, gammas):
        # descent takes the flow's gamma rule: a negative gamma would run
        # gradient ascent, and a per-step list is not a step factor
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(40))
        with pytest.raises(ValueError, match="'gamma'"):
            gd_run(xi, MU, F, steps=5, gammas=gammas)

    def test_divergence_ends_with_last_valid_state(self):
        # the first step overshoots the guard; the record closes with the
        # state before it, for descent and for the flow alike
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(46))
        cfg = FlowConfig(t_end=0.05, step=1e-2, integrator="euler", gamma=1e15)
        for rec in (gd_run(xi, MU, F, steps=5, gammas=1e15), integrate_flow(xi, MU, F, cfg)):
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
            rec = gd_run(xi, MU, f, steps=3, gammas=1.7e308)
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
        rec = gd_run(xi, MU, TargetFunction.from_scalar(f), steps=3, gammas=gamma)
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
            rec = gd_run(xi, MU, F, steps=3, gammas=0.1)
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
        assert step_factor(raw, proj, "rescaled") == pytest.approx(1.0)

    def test_factor_at_least_one_generically(self):
        rng = np.random.default_rng(43)
        arch = Architecture((1, 3, 1))
        theta = random_on_manifold(arch, rng)
        raw = generalized_gradient(theta, MU, F)
        assert step_factor(raw, project_gradient(theta, raw), "rescaled") >= 1.0

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
        assert quiet(step_factor)(raw, proj, "rescaled") == 0.0  # the caller sets the error state


class TestNetworkField:
    """The network field projects the per-layer gradients against the rows
    its pass gathered; it must give what the flat functions give."""

    SETUPS = {
        "1,8,1 exact ReLU": ((1, 8, 1), MU, None, float("inf")),
        "1,8,1 r = 50": ((1, 8, 1), MU, None, 50.0),
        "2,4,4,1 grid 16": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 16, float("inf")),
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
        f = F if dims[0] == 1 else TargetFunction.affine_map([[0.5, -0.25]], [0.1])
        rng = np.random.default_rng(seed)
        theta = random_on_manifold(arch, rng) if start == "manifold" else random_params(arch, rng)
        if start == "zero row":
            theta.values[arch.subvector_rows[0][-1]] = 0.0
        field = quiet(_network_field(arch, measure, f, r, resolution, "rescaled"))  # as in fixed_step
        G, factor, (value, deviation) = field(theta.values[None, :], True)
        expected_value, raw = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
        proj = project_gradient(theta, raw)
        assert G.shape == (1, arch.param_count)
        assert np.array_equal(G[0], proj)
        assert np.array_equal(factor, step_factor(raw, proj, "rescaled"))
        assert value == expected_value and deviation == max_constraint_deviation(theta)

    @staticmethod
    def targets(dims):
        """The run's target and another one, for passes between field calls."""
        if dims[0] == 1:
            return F, TargetFunction.from_scalar(affine_target(0.2, -0.5))
        return TargetFunction.affine_map([[0.5, -0.25]], [0.1]), TargetFunction.affine_map([[-1.0, 2.0]], [0.3])

    @staticmethod
    def direct_nodes(theta, measure, f, r, resolution):
        """A pass's nodes and weights built without a node plan."""
        bp = exact_breakpoints(theta, None if f is None else f.breakpoints, r) if measure.kind == "uniform" else None
        return quadrature_nodes(measure, breakpoints=bp, resolution=resolution)

    def direct_risk(self, theta, measure, f, r, resolution):
        """The risk pass on nodes and target values built without a node plan."""
        X, w = self.direct_nodes(theta, measure, f, r, resolution)
        rows = network._layer_rows(theta.arch, theta.values)
        return network._risk_pass(theta.arch, rows, X, w, np.array(f(X).T), r)[0]

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
        field = _network_field(arch, measure, f, r, resolution, "rescaled")
        for _ in range(4):
            theta = random_on_manifold(arch, rng)
            G, factor, (value, deviation) = field(theta.values[None, :], True)
            expected_value, raw = risk_and_gradient(theta, measure, f, r=r, resolution=resolution)
            proj = project_gradient(theta, raw)
            assert np.array_equal(G[0], proj) and np.array_equal(factor, step_factor(raw, proj, "rescaled"))
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
