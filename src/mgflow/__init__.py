"""Manifold-constrained gradient flow for ReLU network training.

Hidden-neuron subvectors (incoming weights plus bias) are kept at unit norm:
a layer-wise rescaling cascade moves any parameter vector onto the constraint
set without changing the network's input-output map, and the training flow
follows the risk gradient projected onto the constraint set's tangent space.
Includes exact piecewise quadrature for shallow 1-d networks, a complete
closed-form treatment of the one-hidden-neuron case with Lyapunov monitors,
and a seeded experiment CLI.
"""

from .params import (
    Architecture,
    NeuronKey,
    ParamVector,
    random_params,
)
from .quadrature import (
    InputMeasure,
    QuadratureError,
    discrete_measure,
    integrate,
    quadrature_nodes,
    uniform_measure,
)
from .targets import (
    PiecewisePolynomial,
    TargetFunction,
    abs_offset_target,
    affine_target,
    constant_target,
    piecewise_linear_target,
    polynomial_target,
)
from .smoothing import INF, smoothed_act, smoothed_act_deriv
from .network import exact_breakpoints, forward, hidden_mean, realize, risk
from .gradients import fd_gradient, generalized_gradient, risk_and_gradient
from .manifold import (
    grad_psi,
    max_constraint_deviation,
    min_subvector_norm,
    project_gradient,
    psi,
    random_on_manifold,
    renormalize,
    rescale_cascade,
    rescale_full,
    rescale_layer,
    rho,
)
from .dynamics import FlowConfig, TrajectoryRecord, gd_run, integrate_flow

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
