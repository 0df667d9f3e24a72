"""Risk gradients: smoothed-family backprop, the exact-ReLU limit, and a
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

from .network import _matmul, _nodes_for, _risk_pass, risk
from .network import forward  # noqa: F401  (bench/tracing.py wraps gradients.forward)
from .params import ParamVector
from .quadrature import InputMeasure, QuadratureError
from .smoothing import INF, smoothed_act, smoothed_act_deriv
from .targets import TargetFunction


def risk_and_gradient(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> tuple[float, np.ndarray]:
    """The risk and its gradient w.r.t. the flat parameter vector, from one
    node set, one forward pass and one target evaluation.

    The risk equals `network.risk` bit for bit.  With r = inf the gradient is
    the exact-ReLU generalized gradient (indicator convention at kinks); with
    finite r it is the gradient of the smoothed risk on the same nodes.  The
    backprop runs feature-major in the forward pass's workspace: deltas are
    (l_k, n), and a layer's activations are recomputed from its stored
    pre-activations when the layer above needs them.  The mean correction is
    applied once, on the residual row, which then also takes the node
    weights: every hidden delta carries them, so a layer's weight gradient is
    one matrix product and its bias gradient a row sum.
    """
    table = theta.arch.layer_table
    X, w = _nodes_for(theta, measure, f.breakpoints, r, resolution)
    grad = np.zeros(theta.arch.param_count)
    if X.shape[0] == 0:
        return 0.0, grad
    value, ws = _risk_pass(theta, X, w, f, r)
    H, R = ws.acts[-1], ws.resid  # centered last hidden activations, residual

    v = theta.values
    w_out, shape, b_out = table[-1]
    wr = np.multiply(R, w, out=ws.delta[: shape[0]])
    np.matmul(wr, H.T, out=grad[w_out].reshape(shape))
    wr.sum(axis=1, out=grad[b_out])
    grad[w_out.start : b_out.stop] *= 2.0

    # The signal routed through the subtracted mean is the same for every
    # node, so it leaves on the residual row: W^T R - (W^T Rbar) 1^T equals
    # W^T (R - Rbar 1^T), Rbar = R @ w.  The row also takes the node weights,
    # so every delta below carries them.
    R -= (R @ w)[:, None]
    R *= w
    delta = _matmul(2.0 * v[w_out].reshape(shape).T, R, ws.delta[: shape[1]])
    for k in range(len(table) - 1, 0, -1):
        # layer k's pre-activations are read for the last time: dz replaces them
        w_k, shape, b_k = table[k - 1]
        dz = smoothed_act_deriv(r, ws.pres[k - 1], out=ws.pres[k - 1])
        dz *= delta
        prev = ws.nodes_t(X) if k == 1 else smoothed_act(r, ws.pres[k - 2], out=ws.acts[k - 2])
        np.matmul(dz, prev.T, out=grad[w_k].reshape(shape))
        dz.sum(axis=1, out=grad[b_k])
        if k > 1:
            delta = _matmul(v[w_k].reshape(shape).T, dz, ws.delta[: shape[1]])

    if not (math.isfinite(value) and np.isfinite(grad).all()):
        raise QuadratureError("risk or gradient has non-finite components")
    return value, grad


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

