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
from .quadrature import InputMeasure, QuadratureError, quadrature_nodes, quiet
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

    `nodes` holds the nodes as (l_0 + 1, n) and `acts[k - 1]` layer k's
    activations as (l_k + 1, n); the last row of each is ones and no pass
    writes it, so layer k's map is the single product V_k @ [a_{k-1}; 1]
    with V_k = [W_k | b_k], and its gradient the single product
    dz @ [a_{k-1}; 1].T, already in that row layout.  `pres` holds each
    hidden layer's pre-activations (backprop overwrites them with that
    layer's dz); backprop writes each delta into the activation rows of the
    layer it reaches once that layer's gradient is taken.  `resid` holds the
    output residual (backprop overwrites it with the weighted, centered
    residual) and, in `scratch`, one more residual-sized array.
    `_workspace` caches them, and every pass overwrites them, so no result
    may alias them and passes of one (layer_dims, n) must not overlap (one
    thread at a time).

    `load(X)` copies the nodes X (n, l_0) into `nodes`.  A read-only X (the
    nodes of a `_NodePlan` off the exact path) is copied once and kept while
    the same X returns.
    """

    def __init__(self, dims: tuple, n: int):
        self.nodes = np.ones((dims[0] + 1, n))
        self.pres = [np.empty((l, n)) for l in dims[1:-1]]
        self.acts = [np.ones((l + 1, n)) for l in dims[1:-1]]
        self.resid, self.scratch = np.empty((2, dims[-1], n))
        self._X = None

    def load(self, X: np.ndarray) -> np.ndarray:
        if X is not self._X:
            self.nodes[:-1] = X.T
            self._X = None if X.flags.writeable else X
        return self.nodes


_workspace = functools.lru_cache(maxsize=4)(_Workspace)


def _matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ B into out.  A rank-one product (A has one column) is a broadcast
    multiply: the same single product per entry, which BLAS computes several
    times slower."""
    if A.shape[1] == 1:
        return np.multiply(A, B, out=out)
    return np.matmul(A, B, out=out)


def _layer_rows(arch, values: np.ndarray) -> list:
    """Per layer k = 1..L, the rows [W_k | b_k] of `values`, (l_k, l_{k-1} + 1)."""
    return [values[idx] for idx in arch.subvector_rows]


def _forward_into(rows, nodes: np.ndarray, r, pres, acts) -> np.ndarray:
    """Feature-major forward pass over the columns of nodes, (l_0 + 1, n)
    with a last row of ones: layer k's pre-activations V_k @ [a_{k-1}; 1] go
    to pres[k - 1], (l_k, n), and its activations to the leading rows of
    acts[k - 1], (l_k + 1, n), whose last row stays ones.  Returns the last
    hidden activations with their row of ones."""
    h = nodes
    for V, z, a in zip(rows, pres, acts):
        np.matmul(V, h, out=z)
        smoothed_act(r, z, out=a[:-1])
        h = a
    return h


def forward(theta: ParamVector, x, r=INF):
    """Hidden pre-activations and activations, batched over x.

    Returns (pres, acts): lists over hidden layers k = 1..L-1, each entry of
    shape (n, l_k) (a transposed view of a fresh feature-major array).  The
    final affine map and the centering term are applied by `realize`, which
    needs the input measure.
    """
    dims = theta.arch.layer_dims
    X, _ = _as_batch(x, dims[0])
    ws = _Workspace(dims, X.shape[0])
    _forward_into(_layer_rows(theta.arch, theta.values), ws.load(X), r, ws.pres, ws.acts)
    return [z.T for z in ws.pres], [a[:-1].T for a in ws.acts]


def _breakpoints(V1: np.ndarray, f_breaks, r) -> np.ndarray:
    """The kinks (knot - b) / w of the first layer's rows V1 = [W_1 | b_1],
    knot-major, then the 1-d array f_breaks.  A row with w = 0 gives +-inf or
    nan (the caller sets the error state), which the node build drops."""
    w, b = V1[:, 0], V1[:, 1]
    pts = (0.0 - b) / w if r == INF else ((activation_knots(r)[:, None] - b) / w).ravel()
    return pts if f_breaks is None else np.concatenate((pts, f_breaks))


@quiet
def exact_breakpoints(theta: ParamVector, f_breaks=None, r=INF) -> Optional[np.ndarray]:
    """Integrand breakpoints for the exact quadrature path.

    Only available for shallow networks (one hidden layer) with 1-d input,
    where every hidden pre-activation is affine in x: it crosses each
    activation knot at a single computable point (a neuron with zero input
    weight gives +-inf or nan, which `quadrature_nodes` drops).  The target
    breaks f_breaks follow.  Returns None otherwise.
    """
    arch = theta.arch
    if arch.depth != 2 or arch.layer_dims[0] != 1:
        return None
    f_breaks = None if f_breaks is None else np.asarray(f_breaks, dtype=float).ravel()
    return _breakpoints(theta.values[arch.subvector_rows[0]], f_breaks, r)


class _NodePlan:
    """The nodes X (n, l_0), weights w and target values fX, (out_dim, n) or a
    (n,) row for a scalar target (None without a target), of a run's passes.
    A discrete measure's points and the composite grid (input dim > 1 or
    depth > 2) do not depend on the state: X is read-only, so the workspace
    loads it once, and fX is evaluated here once, before any pass runs, so a
    target must be a pure function of x.  On the exact shallow 1-d path,
    `nodes` adds the kinks of the rows it gets to the target breaks inside
    (a, b), read here once, and evaluates the target at the new nodes."""

    def __init__(self, arch, measure: InputMeasure, f: Optional[TargetFunction], r=INF,
                 resolution: Optional[int] = None):
        self.arch, self.measure, self.f, self.r, self._fixed = arch, measure, f, r, None
        if measure.kind == "uniform" and arch.depth == 2 and arch.layer_dims[0] == 1:
            bp = None if f is None or f.breakpoints is None else np.asarray(f.breakpoints, float).ravel()
            self._f_breaks = None if bp is None else bp[(bp > measure.a) & (bp < measure.b)]
            return
        X, w = quadrature_nodes(measure, resolution=resolution)
        if X.flags.writeable:  # a discrete measure's points: the run keeps a read-only copy
            X = np.array(X)
            X.flags.writeable = False
        self._fixed = X, w, None if f is None or not len(X) else np.array(f(X).T, order="C")

    def nodes(self, rows):
        """(X, w, fX) for a pass over the layer rows `rows`."""
        if self._fixed:
            return self._fixed
        X, w = quadrature_nodes(self.measure, breakpoints=_breakpoints(rows[0], self._f_breaks, self.r))
        if self.f is None:
            return X, w, None
        p = self.f.piecewise  # a scalar target, evaluated without the TargetFunction wrapper
        return X, w, self.f(X).T if p is None else p(X[:, 0])


@quiet
def hidden_mean(
    theta: ParamVector,
    measure: InputMeasure,
    r=INF,
    resolution: Optional[int] = None,
) -> np.ndarray:
    """mu-integral of the last hidden layer's activations (not mass-normalized)."""
    arch = theta.arch
    rows = _layer_rows(arch, theta.values)
    X, w, _ = _NodePlan(arch, measure, None, r, resolution).nodes(rows)
    if X.shape[0] == 0:
        return np.zeros(arch.layer_dims[-2])
    ws = _workspace(arch.layer_dims, X.shape[0])
    m = _forward_into(rows, ws.load(X), r, ws.pres, ws.acts)[:-1] @ w
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


def _risk_pass(arch, rows, X: np.ndarray, w: np.ndarray, fX: np.ndarray, r):
    """The risk on the nodes X (n, l_0) with weights w against the target
    values fX at X, (out_dim, n) or a (n,) row, in the workspace of
    (layer_dims, n); returns (risk, workspace).

    The workspace is left holding what backprop reads: the hidden
    pre-activations in `pres`, the centered last hidden activations
    h - int h dmu in `acts[-1]` (above its row of ones) and the output
    residual in `resid`.  fX comes first (`_NodePlan`): a target may itself
    run a pass in this workspace.
    """
    ws = _workspace(arch.layer_dims, X.shape[0])
    H = _forward_into(rows, ws.load(X), r, ws.pres, ws.acts)
    h = H[:-1]
    h -= (h @ w)[:, None]
    R = np.matmul(rows[-1], H, out=ws.resid)
    R -= fX
    sq = np.multiply(R, R, out=ws.scratch)
    return float(sum(np.vecdot(sq, w))), ws  # vecdot: the kernel of row @ w, per row


@quiet
def risk(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> float:
    """mu-integral of the squared output error against the target."""
    arch = theta.arch
    rows = _layer_rows(arch, theta.values)
    X, w, fX = _NodePlan(arch, measure, f, r, resolution).nodes(rows)
    if X.shape[0] == 0:
        return 0.0
    value = _risk_pass(arch, rows, X, w, fX, r)[0]
    if not math.isfinite(value):
        raise QuadratureError("risk is non-finite")
    return value
