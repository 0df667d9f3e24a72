"""Risk gradients: the smoothed-family and exact-ReLU gradients of the
network pass's backprop (`network._NodePlan.gradient`), and a
finite-difference oracle.

The generalized gradient is reverse-mode differentiation of the risk with the
indicator derivative 1_{(0,inf)} substituted at exact ReLU; it equals the
pointwise limit of the smoothed gradients wherever that limit exists.  Because
the readout centers the last hidden layer by its theta-dependent mu-integral,
the chain rule picks up a correction: the total backprop signal arriving at
the hidden mean is itself integrated against mu and fed back down the stack.
Both contributions share the same quadrature nodes, so the result is the exact
gradient of the discretized risk - finite differences of `risk` agree with it
to rounding for finite smoothing indices.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .network import _NodePlan, risk
from .network import forward  # noqa: F401  (bench/tracing.py wraps gradients.forward)
from .params import ParamVector
from .quadrature import InputMeasure, quiet
from .smoothing import INF
from .smoothing import smoothed_act_deriv  # noqa: F401  (bench/tracing.py wraps gradients.smoothed_act_deriv)
from .targets import TargetFunction


@quiet
def risk_and_gradient(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> tuple[float, np.ndarray]:
    """The risk and its gradient w.r.t. the flat parameter vector, from one
    node set, one forward pass and one target evaluation (`network._NodePlan.gradient`).

    The risk equals `network.risk` bit for bit.  With r = inf the gradient is
    the exact-ReLU generalized gradient (indicator convention at kinks); with
    finite r it is the gradient of the smoothed risk on the same nodes.
    """
    return _NodePlan(theta.arch, measure, f, r, resolution).gradient(theta.values)[:2]


def generalized_gradient(theta: ParamVector, measure: InputMeasure, f: TargetFunction,
                         r=INF, resolution: Optional[int] = None) -> np.ndarray:
    """The gradient of `risk_and_gradient` alone."""
    return risk_and_gradient(theta, measure, f, r=r, resolution=resolution)[1]


def fd_gradient(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r,
    h: float,
    resolution: Optional[int] = None,
) -> np.ndarray:
    """Central-difference gradient of the smoothed risk; requires finite r."""
    if math.isinf(float(r)):
        raise ValueError("finite smoothing index required: the exact-ReLU risk is not C^1")
    if not h > 0:
        raise ValueError("step h must be positive")
    base = theta.values
    out = np.empty(base.size)
    probe = ParamVector(theta.arch, base.copy())
    for j in range(base.size):
        probe.values[j] = base[j] + h
        up = risk(probe, measure, f, r=r, resolution=resolution)
        probe.values[j] = base[j] - h
        down = risk(probe, measure, f, r=r, resolution=resolution)
        probe.values[j] = base[j]
        out[j] = (up - down) / (2.0 * h)
    return out

