"""Forward pass, centered readout, and risk of the ReLU network.

The realization subtracts, inside the final affine map only, the integral of
the last hidden layer's activations against the input measure:

    output(x) = W_L (h(x) - int h dmu) + b_L .

The subtracted term is the plain mu-integral of the activations, not the
mu-average; with unit total mass the two coincide.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from .params import ParamVector
from .quadrature import InputMeasure, QuadratureError, quadrature_nodes
from .smoothing import INF, activation_knots, smoothed_act
from .targets import TargetFunction


def _as_batch(x, dim: int):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar input for {dim}-dimensional network")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if dim == 1:
            return x.reshape(-1, 1), False
        if x.shape[0] == dim:
            return x.reshape(1, dim), True
        raise ValueError(f"input of shape {x.shape} does not match dim {dim}")
    if x.shape[1] != dim:
        raise ValueError(f"input of shape {x.shape} does not match dim {dim}")
    return x, False


class _Workspace:
    """Node-sized buffers for one (layer_dims, n), feature-major: row i of a
    buffer is unit i of its layer across the n nodes, so every elementwise op
    and matrix product runs along the long node axis.

    `pres` holds each hidden layer's pre-activations (backprop overwrites
    them with that layer's dz); `act` and `delta` are (max width, n) scratch
    arrays whose leading rows serve any layer; `resid` holds the output
    residual (backprop overwrites it with the weighted, centered residual).
    `_workspace` caches them, and every pass overwrites them, so no result
    may alias them and passes of one (layer_dims, n) must not overlap (one
    thread at a time).

    `nodes_t(X)` gives the nodes feature-major, (l_0, n).  For a read-only X
    (the cached composite grid) that is a C-contiguous copy, made once and
    kept while the same X returns: the first layer's products then run
    along contiguous rows.
    """

    def __init__(self, dims: tuple, n: int):
        width = max(dims[1:])
        self.pres = [np.empty((l, n)) for l in dims[1:-1]]
        self.act, self.delta = np.empty((width, n)), np.empty((width, n))
        self.acts = [self.act[:l] for l in dims[1:-1]]
        self.resid = np.empty((dims[-1], n))
        self._X = self._XT = None

    def nodes_t(self, X: np.ndarray) -> np.ndarray:
        if X is not self._X:
            self._X, self._XT = X, X.T if X.flags.writeable else np.ascontiguousarray(X.T)
        return self._XT


_workspace = functools.lru_cache(maxsize=4)(_Workspace)


def _matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ B into out.  A rank-one product (A has one column) is a broadcast
    multiply: the same single product per entry, which BLAS computes several
    times slower."""
    if A.shape[1] == 1:
        return np.multiply(A, B, out=out)
    return np.matmul(A, B, out=out)


def _forward_into(theta: ParamVector, XT: np.ndarray, r, pres, acts) -> np.ndarray:
    """Feature-major forward pass over the columns of XT, shape (l_0, n):
    layer k's pre-activations go to pres[k - 1] and its activations to
    acts[k - 1], both (l_k, n).  Returns the last hidden activations."""
    h, v = XT, theta.values
    for (w, shape, b), z, a in zip(theta.arch.layer_table, pres, acts):
        _matmul(v[w].reshape(shape), h, z)
        z += v[b][:, None]
        h = smoothed_act(r, z, out=a)
    return h


def forward(theta: ParamVector, x, r=INF):
    """Hidden pre-activations and activations, batched over x.

    Returns (pres, acts): lists over hidden layers k = 1..L-1, each entry of
    shape (n, l_k) (a transposed view of a fresh feature-major array).  The
    final affine map and the centering term are applied by `realize`, which
    needs the input measure.
    """
    X, _ = _as_batch(x, theta.arch.layer_dims[0])
    pres = [np.empty((l, X.shape[0])) for l in theta.arch.layer_dims[1:-1]]
    acts = [np.empty_like(z) for z in pres]
    _forward_into(theta, X.T, r, pres, acts)
    return [z.T for z in pres], [h.T for h in acts]


def exact_breakpoints(theta: ParamVector, f_breaks=None, r=INF) -> Optional[np.ndarray]:
    """Integrand breakpoints for the exact quadrature path.

    Only available for shallow networks (one hidden layer) with 1-d input,
    where every hidden pre-activation is affine in x: it crosses each
    activation knot at a single computable point.  Returns None otherwise.
    """
    arch = theta.arch
    if arch.depth != 2 or arch.layer_dims[0] != 1:
        return None
    w, _, b = arch.layer_table[0]
    w, b = theta.values[w], theta.values[b]
    nz = w != 0.0
    pts = ((activation_knots(r)[:, None] - b[nz]) / w[nz]).ravel()
    if f_breaks is None:
        return pts
    return np.concatenate((pts, np.asarray(f_breaks, dtype=float).ravel()))


def _nodes_for(theta, measure, f_breaks, r, resolution):
    bp = exact_breakpoints(theta, f_breaks=f_breaks, r=r) if measure.kind == "uniform" else None
    return quadrature_nodes(measure, breakpoints=bp, resolution=resolution)


def hidden_mean(
    theta: ParamVector,
    measure: InputMeasure,
    r=INF,
    resolution: Optional[int] = None,
) -> np.ndarray:
    """mu-integral of the last hidden layer's activations (not mass-normalized)."""
    X, w = _nodes_for(theta, measure, None, r, resolution)
    if X.shape[0] == 0:
        return np.zeros(theta.arch.layer_dims[-2])
    ws = _workspace(theta.arch.layer_dims, X.shape[0])
    m = _forward_into(theta, ws.nodes_t(X), r, ws.pres, ws.acts) @ w
    if not np.all(np.isfinite(m)):
        raise QuadratureError("hidden mean is non-finite")
    return m


def realize(
    theta: ParamVector,
    x,
    measure: InputMeasure,
    r=INF,
    resolution: Optional[int] = None,
):
    """Network output at x."""
    arch = theta.arch
    X, squeeze = _as_batch(x, arch.layer_dims[0])
    mean = hidden_mean(theta, measure, r=r, resolution=resolution)
    _, acts = forward(theta, X, r=r)
    L = arch.depth
    out = (acts[-1] - mean) @ theta.weights(L).T + theta.biases(L)
    return out[0] if squeeze else out


def _risk_pass(theta: ParamVector, X: np.ndarray, w: np.ndarray, f: TargetFunction, r):
    """The risk on the nodes X (n, l_0) with weights w, in the workspace of
    (layer_dims, n); returns (risk, workspace).

    The workspace is left holding what backprop reads: the hidden
    pre-activations in `pres`, the centered last hidden activations
    h - int h dmu in `acts[-1]` and the output residual in `resid`.
    """
    fX = f(X)  # first: a target may itself run a pass in this workspace
    ws = _workspace(theta.arch.layer_dims, X.shape[0])
    H = _forward_into(theta, ws.nodes_t(X), r, ws.pres, ws.acts)
    H -= (H @ w)[:, None]
    w_out, shape, b_out = theta.arch.layer_table[-1]
    R = _matmul(theta.values[w_out].reshape(shape), H, ws.resid)
    R += theta.values[b_out][:, None]
    R -= fX.T
    sq = np.multiply(R, R, out=ws.delta[: len(R)])
    return float(sum(np.vecdot(sq, w))), ws  # vecdot: the kernel of row @ w, per row


def risk(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> float:
    """mu-integral of the squared output error against the target."""
    X, w = _nodes_for(theta, measure, f.breakpoints, r, resolution)
    if X.shape[0] == 0:
        return 0.0
    value = _risk_pass(theta, X, w, f, r)[0]
    if not math.isfinite(value):
        raise QuadratureError("risk is non-finite")
    return value
