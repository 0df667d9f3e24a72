"""Test-side references for the rescaling symmetry of the exact-ReLU risk.

Scale hidden row i of layer k, [W_k | b_k]_i, by alpha > 0 and column i of
W_{k+1} by 1 / alpha.  ReLU is positively homogeneous, so the realization
does not change at any input, and neither does the risk on any fixed node
set.  Differentiating at alpha = 1 gives, per hidden neuron,

    <dL/d[W_k | b_k]_i, [W_k | b_k]_i> = <dL/dW_{k+1}[:, i], W_{k+1}[:, i]>,

so along the standard, unprojected gradient flow d theta/dt = -dL/d theta the
balance |[W_k | b_k]_i|^2 - |W_{k+1}[:, i]|^2 is conserved (Du, Hu and Lee
2018, *Algorithmic regularization in learning deep homogeneous models:
layers are automatically balanced*).  `identity_sides` forms the two sides
from a flat gradient, `identity_scale` the rounding scale of their
difference, and `standard_flow` integrates the unprojected flow.
"""

from __future__ import annotations

import numpy as np

from mgflow import ParamVector, forward, risk_and_gradient
from mgflow import network
from mgflow.dynamics import FlowConfig, fixed_step
from mgflow.smoothing import INF


def identity_sides(arch, values, raw) -> list:
    """Per hidden layer k = 1..L-1, the pair (<g_row, row>, <g_col, col>) of
    the identity, one entry per neuron of the layer, for the parameters
    `values` and the flat gradient `raw`."""
    rows = [values[idx] for idx in arch.subvector_rows]
    grads = [raw[idx] for idx in arch.subvector_rows]
    return [(np.sum(grads[k] * rows[k], axis=1), np.sum(grads[k + 1][:, :-1] * rows[k + 1][:, :-1], axis=0))
            for k in range(arch.depth - 1)]


def balance(arch, values) -> np.ndarray:
    """|[W_k | b_k]_i|^2 - |W_{k+1}[:, i]|^2 for every hidden neuron, layer by layer."""
    rows = [values[idx] for idx in arch.subvector_rows]
    return np.concatenate([np.sum(rows[k] ** 2, axis=1) - np.sum(rows[k + 1][:, :-1] ** 2, axis=0)
                           for k in range(arch.depth - 1)])


def identity_scale(theta, measure, f, resolution=None) -> tuple:
    """The pass's node count n and, per hidden layer k = 1..L-1, the triple
    (S_row, S_col, C) of node-level magnitudes that bound the rounding of the
    identity (see `tests/test_balance.py`), one entry per neuron, on the
    exact-ReLU pass's own nodes, weights, pre-activations and activations.

    With dz_k the per-node delta of layer k's pre-activations (node weights
    included), A_{k-1} = [a_{k-1}; 1] and V_k = [W_k | b_k]:
    S_row = sum_x sum_c |dz_k,i| |V_k,ic| |A_{k-1},c|.  Below the last hidden
    layer S_col = sum_x |a_k,i| sum_j |W_{k+1},ji| |dz_{k+1},j|.  At the last
    hidden layer, with the residual R, rho_j = int |R_j| dmu and
    alpha_i = int |a_i| dmu, S_col = sum_x 2 w_x (|a_i| + alpha_i)
    sum_j |W_L,ji| (|R_j| + rho_j) and C = alpha_i sum_j |W_L,ji| rho_j; C is
    0 below it."""
    arch = theta.arch
    rows = network._layer_rows(arch, theta.values)
    ws, w, _ = network._NodePlan(arch, measure, f, INF, resolution).load(rows)
    X = ws.nodes[:-1].T.copy()
    pres, acts = forward(theta, X)  # (n, l_k) per hidden layer
    ones = np.ones((len(w), 1))
    A = [np.hstack([X, ones])] + [np.hstack([a, ones]) for a in acts]
    WL = rows[-1][:, :-1]
    R = (acts[-1] - w @ acts[-1]) @ WL.T + rows[-1][:, -1] - f(X)  # (n, out)
    rho, alpha = w @ np.abs(R), w @ np.abs(acts[-1])
    D = 2.0 * w[:, None] * (np.abs(R) + rho)
    S_col = [None] * (arch.depth - 1)
    S_col[-1] = np.sum((np.abs(acts[-1]) + alpha) * (D @ np.abs(WL)), axis=0)
    C = [np.zeros(a.shape[1]) for a in acts]
    C[-1] = alpha * (rho @ np.abs(WL))

    out = [None] * (arch.depth - 1)
    dh = 2.0 * w[:, None] * (R - w @ R) @ WL  # d risk / d a_{L-1}, through the centered readout
    for k in range(arch.depth - 1, 0, -1):
        dz = dh * (pres[k - 1] > 0.0)
        S_row = np.sum(np.abs(dz) * (np.abs(A[k - 1]) @ np.abs(rows[k - 1]).T), axis=0)
        if k > 1:
            W = rows[k - 1][:, :-1]
            dh = dz @ W
            S_col[k - 2] = np.sum(np.abs(acts[k - 2]) * (np.abs(dz) @ np.abs(W)), axis=0)
        out[k - 1] = (S_row, S_col[k - 1], C[k - 1])
    return len(w), out


def standard_flow(theta, measure, f, h, n_steps, resolution=None):
    """`dynamics.fixed_step`'s RK4 run of the unprojected flow
    d theta/dt = -dL/d theta from theta, with the exact-ReLU gradient of
    `risk_and_gradient`, step factor 1 and no retraction; its record holds
    the start and the last state."""
    arch = theta.arch

    def field(Y, record):
        value, raw = risk_and_gradient(ParamVector(arch, Y[0]), measure, f, resolution=resolution)
        return raw[None, :], raw[None, :], np.array([value]) if record else None, np.zeros(1) if record else None

    cfg = FlowConfig(t_end=n_steps * h, step=h, gamma=1.0, record_every=n_steps)
    return fixed_step(field, theta.values[None, :], cfg, n_steps, lambda Y: (Y, 0))
