"""Neither a run nor a public function that reaches the stage kernels lets
numpy warn of a floating-point error: each non-finite outcome is reported
explicitly (a nan or inf result, a QuadratureError, a frozen row), and the
caller's error state is left as it was."""

import warnings

import numpy as np
import pytest

import mgflow as mg
from mgflow import one_neuron as on
from mgflow.dynamics import fixed_step

MU = mg.uniform_measure(0, 1, 1)
F = mg.TargetFunction.from_scalar(mg.abs_offset_target(0.3))
PROBLEM = on.as_problem(mg.abs_offset_target(0.3))
# one-neuron states: t1 = 0 on the circle (both signs of t2), t1 = t2 = 0, and a nan row
STATES = np.array([[0.0, 1.0, 0.5], [0.0, -1.0, -0.5], [0.0, 0.0, 0.5], [np.nan, 0.6, 1.0]])


def _network(*rows):
    """A (1, len(rows), 1) network whose hidden rows (w, b) are `rows`."""
    arch = mg.Architecture((1, len(rows), 1))
    theta = mg.ParamVector(arch, np.linspace(0.5, 1.5, arch.param_count))
    theta.values[arch.subvector_rows[0]] = rows
    return theta


def _manifold_calls(theta):
    raw = np.linspace(-1.0, 1.0, theta.arch.param_count)
    mg.project_gradient(theta, raw)
    mg.renormalize(theta)
    mg.manifold.zero_rows(theta)
    mg.min_subvector_norm(theta)
    mg.rescale_layer(theta, 1)
    mg.rescale_cascade(theta, 1)
    mg.rescale_full(theta)


def _network_calls(theta):
    mg.exact_breakpoints(theta, F.breakpoints)
    for call in (mg.risk, mg.risk_and_gradient, mg.generalized_gradient):
        call(theta, MU, F)
    mg.hidden_mean(theta, MU)
    mg.realize(theta, np.linspace(0.0, 1.0, 5), MU)


def _one_neuron_calls(states):
    on.risk_batch(states, PROBLEM)
    on.gradient_batch(states, PROBLEM)
    on.lyapunov_values(states)
    on.applicability_masks(states, PROBLEM)
    for theta in states[:2]:  # t1 = 0 is on the circle, but in no breakpoint regime
        on.grad_1n(theta, PROBLEM)
        for call in (on.closed_integrals, lambda t: on.closed_gradient(t, PROBLEM)):
            with pytest.raises(ValueError, match="breakpoint regime"):
                call(theta)


def test_public_functions_on_degenerate_inputs_do_not_warn():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (np.zeros(3), [1e200, -1e200, 1e200], [np.nan, 1.0, 0.0]):
            mg.rho(np.asarray(v))
        # a zero row, a zero input weight, rows near 1e200 and a nan row
        _manifold_calls(_network([0.0, 0.0], [0.0, 0.5], [0.6, -0.8]))
        _manifold_calls(_network([1e200, 2e200], [-3e200, 1e200], [0.6, -0.8]))
        _manifold_calls(_network([np.nan, 0.5], [0.0, 0.5], [0.6, -0.8]))
        _network_calls(_network([0.0, 0.0], [0.0, 0.5], [0.6, -0.8]))
        with pytest.raises(mg.QuadratureError):
            mg.risk(_network([np.nan, 0.5], [0.0, 0.5]), MU, F)
        _one_neuron_calls(STATES)
        with pytest.raises(ValueError, match="t1 = t2 = 0"):
            on.grad_1n(STATES[2], PROBLEM)
    assert np.geterr() == before


def test_runs_leave_the_error_state_as_it_was():
    # runs from a neuron with zero input weight, and a run whose field raises
    # at a recorded state; none warns, and the error state is restored
    before = np.geterr()
    theta = _network([0.0, 0.5], [0.6, -0.8])
    cfg = on.OneNeuronConfig(t_end=0.02, step=0.01, gamma="rescaled")

    def failing(Y, record):
        raise mg.QuadratureError("risk is non-finite")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mg.integrate_flow(theta, MU, F, mg.FlowConfig(t_end=0.02, step=0.01, gamma="rescaled"))
        mg.gd_run(theta, MU, F, steps=2, gammas="rescaled")
        batch = on.flow_batch(STATES, PROBLEM, cfg)
        on.monitor_report(batch, PROBLEM, conservation_rate=1e-6)
        assert np.geterr() == before
        with pytest.raises(mg.QuadratureError):
            fixed_step(failing, np.zeros((1, 3)), 0.01, 2, True, lambda Y: (Y, 0), 1)
    assert np.geterr() == before


def test_monitors_of_overflowing_states_do_not_warn():
    # states near 1e200 overflow the monitors' squares: inf or nan, not a warning
    states = np.array([[0.6, 0.8, 1e200], [1e200, -1e200, 1.0], [0.6, -0.8, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, V_right, V_left = on.lyapunov_values(states)
        on.applicability_masks(states, PROBLEM)
    assert np.isinf(V_right[:2]).all() and np.isfinite(V_right[2])
