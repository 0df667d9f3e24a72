import numpy as np
import pytest

from mgflow import (
    Architecture,
    FlowConfig,
    NeuronKey,
    ParamVector,
    TargetFunction,
    abs_offset_target,
    affine_target,
    gd_run,
    generalized_gradient,
    grad_psi,
    integrate_flow,
    max_constraint_deviation,
    project_gradient,
    random_on_manifold,
    random_params,
    uniform_measure,
)
from mgflow import one_neuron as on
from mgflow.dynamics import step_factor

MU = uniform_measure(0, 1, 1)
F = TargetFunction.from_scalar(abs_offset_target(0.3))


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
            for key in arch.hidden_keys():
                assert abs(G @ grad_psi(theta, key)) <= 1e-12


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

    def test_per_step_schedule(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(39))
        gammas = [1e-3] * 3 + [0.0] * 2
        rec = gd_run(xi, MU, F, steps=5, gammas=gammas)
        np.testing.assert_array_equal(rec.states[-1], rec.states[-2])

    def test_rejects_unknown_schedule(self):
        arch = Architecture((1, 2, 1))
        xi = random_params(arch, np.random.default_rng(40))
        with pytest.raises(ValueError):
            gd_run(xi, MU, F, steps=1, gammas="adaptive")
        with pytest.raises(ValueError):
            gd_run(xi, MU, F, steps=5, gammas=[0.1, 0.1])

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
        xi.values[arch.neuron_indices(NeuronKey(1, 2))] = 0.0
        f = TargetFunction.from_scalar(affine_target(0.0, 100.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(RuntimeWarning, match="zero hidden subvector"):
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
        with np.errstate(over="ignore", invalid="ignore"):
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
        xi.values[arch.neuron_indices(NeuronKey(1, 2))] = 0.0
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
        for k in (1, 2):
            xi.values[arch.neuron_indices(NeuronKey(1, k))] = 0.0
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
        for key in arch.hidden_keys():
            idx = arch.neuron_indices(key)
            normal[idx] += 0.7 * theta.values[idx]
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
        assert step_factor(raw, proj, "rescaled") == 0.0
