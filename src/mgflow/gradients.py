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

from .network import _nodes_for, forward, risk
from .params import ParamVector
from .quadrature import InputMeasure, QuadratureError
from .smoothing import INF, smoothed_act_deriv
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
    finite r it is the gradient of the smoothed risk on the same nodes.
    """
    arch = theta.arch
    L = arch.depth
    X, w = _nodes_for(theta, measure, f.breakpoints, r, resolution)
    grad = ParamVector(arch)
    if X.shape[0] == 0:
        return 0.0, grad.values
    pres, acts = forward(theta, X, r=r)
    H = acts[-1]
    mean = w @ H
    WL = theta.weights(L)
    out = (H - mean) @ WL.T + theta.biases(L)
    resid = out - f(X)
    value = float(w @ np.sum(resid**2, axis=1))

    wr = w[:, None] * resid
    grad.weights(L)[:] = 2.0 * wr.T @ (H - mean)
    grad.biases(L)[:] = 2.0 * wr.sum(axis=0)

    # Head at the last hidden activations: the direct path minus the signal
    # routed through the subtracted mean (same for every node).
    mean_head = 2.0 * (w @ resid) @ WL
    delta = 2.0 * resid @ WL - mean_head
    for k in range(L - 1, 0, -1):
        dz = delta * smoothed_act_deriv(r, pres[k - 1])
        prev = acts[k - 2] if k >= 2 else X
        grad.weights(k)[:] = (w[:, None] * dz).T @ prev
        grad.biases(k)[:] = w @ dz
        if k > 1:
            delta = dz @ theta.weights(k)

    if not (math.isfinite(value) and np.all(np.isfinite(grad.values))):
        raise QuadratureError("risk or gradient has non-finite components")
    return value, grad.values


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


def gradient_convergence_flag(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    indices=(1e3, 1e4, 1e5),
    tol: float = 1e-6,
    resolution: Optional[int] = None,
) -> bool:
    """True when the smoothed gradients along `indices` already agree.

    The exact-ReLU limit is defined only where the smoothed gradients
    converge; this probes a fixed ladder of indices and reports whether they
    match within tol * (1 + gradient norm).
    """
    grads = [
        generalized_gradient(theta, measure, f, r=r, resolution=resolution) for r in indices
    ]
    scale = 1.0 + max(np.linalg.norm(g) for g in grads)
    worst = max(
        float(np.max(np.abs(a - b))) for a, b in zip(grads[:-1], grads[1:])
    )
    return worst <= tol * scale
