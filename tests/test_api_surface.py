"""The public API of `mgflow`, pinned: adding or removing a name changes this
list, so every change to the surface shows up in the diff."""

import mgflow

PUBLIC = [
    "Architecture", "FlowConfig", "INF", "InputMeasure", "ParamVector",
    "PiecewisePolynomial", "QuadratureError", "TargetFunction", "TrajectoryRecord",
    "abs_offset_target", "affine_target", "constant_target", "discrete_measure", "dynamics",
    "exact_breakpoints", "fd_gradient", "forward", "gd_run", "generalized_gradient",
    "gradients", "hidden_mean", "integrate", "integrate_flow", "manifold",
    "max_constraint_deviation", "min_subvector_norm", "network", "params",
    "piecewise_linear_target", "polynomial_target", "project_gradient", "quadrature",
    "quadrature_nodes", "random_on_manifold", "random_params", "realize", "renormalize",
    "rescale_cascade", "rescale_full", "rescale_layer", "rho", "risk", "risk_and_gradient",
    "smoothed_act", "smoothed_act_deriv", "smoothing", "targets", "uniform_measure",
]


def test_public_names_are_pinned():
    assert sorted(mgflow.__all__) == PUBLIC
