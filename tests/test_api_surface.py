"""The public API of `mgflow` and of `mgflow.one_neuron`, pinned: adding or
removing a name changes these lists, so every change to the surface shows up
in the diff."""

import ast
import inspect
from pathlib import Path

import mgflow
from mgflow import one_neuron

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

# the names one_neuron's own top-level statements bind (its imports excluded)
ONE_NEURON = [
    "INV_SQRT2", "MonitorWindows", "OneNeuronConfig", "OneNeuronProblem", "REGIME_TAGS", "Side",
    "affine_integral_bound_check", "applicability_masks", "as_problem", "boundedness_experiment",
    "closed_integrals", "flow_batch", "grad_1n", "gradient_batch", "lyapunov_values",
    "monitor_report", "random_circle_states", "risk_batch", "scan_windows",
]


def _defined_names(module) -> list:
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(name for name in names if not name.startswith("_"))


def test_public_names_are_pinned():
    assert sorted(mgflow.__all__) == PUBLIC


def test_one_neuron_public_names_are_pinned():
    assert _defined_names(one_neuron) == ONE_NEURON
    assert all(hasattr(one_neuron, name) for name in ONE_NEURON)


# what the network pass keeps in its workspace, and the plan's backprop bindings
PASS_STATE = {"nodes", "pres", "acts", "heads", "resid", "scratch", "deriv", "products"}


def test_only_network_reads_the_pass_state():
    readers = {}
    for path in sorted(Path(mgflow.__file__).parent.glob("*.py")):
        if path.name != "network.py":
            tree = ast.parse(path.read_text())
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            if names & PASS_STATE:
                readers[path.name] = sorted(names & PASS_STATE)
    assert readers == {}


def _named(node) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""


def test_only_the_stepper_applies_the_gamma_rule():
    # `dynamics.fixed_step` is the one caller of `step_factor`; the circle flow
    # hands its raw gradient to the stepper and reads neither the factor, the
    # cap nor the schedule's gamma
    callers = set()
    for path in sorted(Path(mgflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _named(node.func) == "step_factor":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("dynamics.py", "fixed_step")}

    tree = ast.parse(inspect.getsource(one_neuron))
    named = {_named(node) for node in ast.walk(tree)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not named & {"step_factor", "GAMMA_CAP"}
    assert "gamma" not in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_one_owner_projects_the_hidden_rows():
    # `manifold._project_rows` holds the row projection; `project_gradient` and
    # the network pass (`_NodePlan.gradient`) call it, and nothing else does
    callers = set()
    for path in sorted(Path(mgflow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _named(node.func) == "_project_rows":
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("manifold.py", "project_gradient"), ("network.py", "_NodePlan")}
