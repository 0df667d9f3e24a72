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

from .network import _layer_rows, _NodePlan, risk
from .network import forward  # noqa: F401  (bench/tracing.py wraps gradients.forward)
from .params import ParamVector
from .quadrature import TWO, InputMeasure, QuadratureError, quiet
from .smoothing import INF
from .smoothing import smoothed_act_deriv  # noqa: F401  (bench/tracing.py wraps gradients.smoothed_act_deriv)
from .targets import TargetFunction


def _risk_and_rows(plan: _NodePlan, values: np.ndarray):
    """(risk, rows, grads, raw) from one node set of `plan`, one forward pass
    and the target values the plan gives: per layer k = 1..L, rows[k - 1] is
    [W_k | b_k] as gathered from `values` and grads[k - 1] the risk gradient
    in that row layout; raw is the gradient scattered into the flat layout,
    checked finite (with the risk) once.

    The backprop runs feature-major in the forward pass's workspace: deltas
    are (l_k, n), and a layer's gradient is the single product
    dz @ [a_{k-1}; 1].T with the activations the forward pass kept.  The
    mean correction is applied once, on the residual row, which then also
    takes the node weights: every hidden delta carries them.
    """
    arch, L = plan.arch, plan.arch.depth
    rows = _layer_rows(arch, values)
    ws, w, fX = plan.load(rows)
    value = plan.risk(rows, ws, w, fX)
    H, R = ws.acts[-1], ws.resid  # [centered last hidden activations; 1], residual

    grads = [None] * L
    wr = np.multiply(R, w, out=ws.scratch)
    grads[-1] = wr @ H.T
    grads[-1] *= TWO

    # The signal routed through the subtracted mean is the same for every
    # node, so it leaves on the residual row: W^T R - (W^T Rbar) 1^T equals
    # W^T (R - Rbar 1^T), Rbar = R @ w.  The row also takes the node weights,
    # so every delta below carries them.
    R -= (R @ w)[:, None]
    R *= w
    delta = plan.products[L](TWO * rows[-1][:, :-1].T, R, out=ws.heads[-1])
    for k in range(L - 1, 0, -1):
        # layer k's pre-activations are read for the last time: dz replaces them
        dz = plan.deriv(ws.pres[k - 1], ws.pres[k - 1])
        dz *= delta
        prev = ws.acts[k - 2] if k > 1 else ws.nodes
        grads[k - 1] = dz @ prev.T
        if k > 1:  # layer k - 1's activations are read for the last time
            delta = plan.products[k](rows[k - 1][:, :-1].T, dz, out=ws.heads[k - 2])

    raw = np.empty(arch.param_count)
    for idx, g in zip(arch.subvector_rows, grads):
        raw[idx] = g
    if not (math.isfinite(value) and np.isfinite(raw).all()):
        raise QuadratureError("risk or gradient has non-finite components")
    return value, rows, grads, raw


@quiet
def risk_and_gradient(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> tuple[float, np.ndarray]:
    """The risk and its gradient w.r.t. the flat parameter vector, from one
    node set, one forward pass and one target evaluation (`_risk_and_rows`).

    The risk equals `network.risk` bit for bit.  With r = inf the gradient is
    the exact-ReLU generalized gradient (indicator convention at kinks); with
    finite r it is the gradient of the smoothed risk on the same nodes.
    """
    value, _, _, raw = _risk_and_rows(_NodePlan(theta.arch, measure, f, r, resolution), theta.values)
    return value, raw


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

