"""Forward pass, centered readout, risk and backprop of the ReLU network.

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

from .manifold import _project_rows
from .params import ParamVector
from . import quadrature
from .quadrature import TWO, ZERO, InputMeasure, QuadratureError, _segment_edges, constant, quadrature_nodes, quiet
from .smoothing import INF, activation, activation_knots
from .smoothing import smoothed_act  # noqa: F401  (bench/tracing.py wraps network.smoothed_act)
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
    dz @ [a_{k-1}; 1].T, already in that row layout; `heads[k - 1]` views
    the activation rows of `acts[k - 1]`.  `pres` holds each
    hidden layer's pre-activations (backprop overwrites them with that
    layer's dz); backprop writes each delta into the activation rows of the
    layer it reaches once that layer's gradient is taken.  `resid` holds the
    output residual (backprop overwrites it with the weighted, centered
    residual) and, in `scratch`, one more residual-sized array.
    `_workspace` caches them, and every pass overwrites them, so no result
    may alias them and passes of one (layer_dims, n) must not overlap (one
    thread at a time).

    `load(X)` copies the nodes X (n, l_0), or (n,) for l_0 = 1, into
    `nodes`.  A read-only X (the nodes of a `_NodePlan` off the exact path)
    is copied once and kept while the same X returns.
    """

    def __init__(self, dims: tuple, n: int):
        self.nodes = np.ones((dims[0] + 1, n))
        self.pres = [np.empty((l, n)) for l in dims[1:-1]]
        self.acts = [np.ones((l + 1, n)) for l in dims[1:-1]]
        self.heads = [a[:-1] for a in self.acts]  # the activation rows, as views
        self.resid, self.scratch = np.empty((2, dims[-1], n))
        self._X = None

    def load(self, X: np.ndarray) -> None:
        if X is not self._X:
            self.nodes[:-1] = X.T
            self._X = None if X.flags.writeable else X


_workspace = functools.lru_cache(maxsize=4)(_Workspace)


def _layer_rows(arch, values: np.ndarray) -> list:
    """Per layer k = 1..L, the rows [W_k | b_k] of `values`, (l_k, l_{k-1} + 1)."""
    return [values[idx] for idx in arch.subvector_rows]


def _forward_into(rows, ws: _Workspace, act) -> None:
    """Feature-major forward pass over the columns of ws.nodes, (l_0 + 1, n)
    with a last row of ones: layer k's pre-activations V_k @ [a_{k-1}; 1] go
    to ws.pres[k - 1], (l_k, n), and its activations act(z, out)
    (`smoothing.activation`) to ws.heads[k - 1], the leading rows of
    ws.acts[k - 1], (l_k + 1, n), whose last row stays ones."""
    h = ws.nodes
    for V, z, a, head in zip(rows, ws.pres, ws.acts, ws.heads):
        np.matmul(V, h, out=z)
        act(z, head)
        h = a


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
    ws.load(X)
    _forward_into(_layer_rows(theta.arch, theta.values), ws, activation(r)[0])
    return [z.T for z in ws.pres], [a.T for a in ws.heads]


def _breakpoints(V1: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """The kinks (knot - b) / w of the first layer's rows V1 = [W_1 | b_1] at the activation
    knots (`activation_knots`), knot-major.  A row with w = 0 gives +-inf or nan (the caller
    sets the error state), which the node build drops."""
    w, b = V1[:, 0], V1[:, 1]
    return (ZERO - b) / w if knots.size == 1 else ((knots[:, None] - b) / w).ravel()


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
    pts = _breakpoints(theta.values[arch.subvector_rows[0]], activation_knots(r))
    return pts if f_breaks is None else np.concatenate((pts, np.asarray(f_breaks, dtype=float).ravel()))


class _NodePlan:
    """The nodes X (n, l_0), weights w and target values fX, (out_dim, n) or a
    (n,) row for a scalar target (None without a target), of a run's passes,
    and the run's fixed choices, bound once: the activation, its derivative
    and knots for r, and per layer k whether W_k^T @ dz is a broadcast
    multiply (l_k = 1: a rank-one product, which BLAS computes several times
    slower) or a matrix product.  A pass takes its workspace from the cache all
    runs share, through the plan's dict by node count.  It raises ValueError
    unless the measure's dim is the input width and the target's outputs the output width.
    A discrete measure's points and the composite grid (input dim > 1 or
    depth > 2) do not depend on the state: X is read-only, so the workspace
    loads it once, and fX is evaluated here once, before any pass runs, so a
    target must be a pure function of x.  On the exact shallow 1-d path the
    domain ends and the target breaks inside (a, b) are read here once, and
    `load` merges them with the kinks of the rows it gets into the segment
    edges, calls `quadrature.segment_rule` through its module and evaluates
    the target (a scalar one without its wrappers) at the new 1-d nodes."""

    def __init__(self, arch, measure: InputMeasure, f: Optional[TargetFunction], r=INF,
                 resolution: Optional[int] = None):
        dims = arch.layer_dims
        if measure.dim != dims[0] or f is not None and f.out_dim != dims[-1]:
            raise ValueError(f"a {dims} network needs a {dims[0]}-d measure and a {dims[-1]}-output target")
        self.arch, self._fixed, self._spaces = arch, None, {}
        self.act, self.deriv = activation(r)
        self._knots = activation_knots(r)
        self.products = tuple(np.multiply if l == 1 else np.matmul for l in dims)
        if measure.kind == "uniform" and arch.depth == 2 and dims[0] == 1:
            a, b = measure.a, measure.b
            bp = np.asarray(() if f is None or f.breakpoints is None else f.breakpoints, float).ravel()
            self._edges = constant(a), constant(b), np.concatenate(([a], bp[(bp > a) & (bp < b)], [b]))
            self._target = (None if f is None else f.piecewise._values if f.piecewise is not None
                            else lambda x: f(x[:, None]).T)
            return
        X, w = quadrature_nodes(measure, resolution=resolution)
        self._fixed = X, w, None if f is None else np.array(f(X).T, order="C")

    def load(self, rows):
        """(workspace holding the nodes, w, fX) for a pass over the layer rows
        `rows`.  fX comes first: a target may itself run a pass there."""
        if self._fixed:
            X, w, fX = self._fixed
        else:
            X, w = quadrature.segment_rule(_segment_edges(_breakpoints(rows[0], self._knots), *self._edges))
            fX = None if self._target is None else self._target(X)
        ws = self._spaces.get(w.size) or self._spaces.setdefault(w.size, _workspace(self.arch.layer_dims, w.size))
        ws.load(X)
        return ws, w, fX

    def hidden_mean(self, values: np.ndarray):
        """(m, rows, ws, w, fX): the layer rows gathered from `values`, `load`'s
        (ws, w, fX) with the forward pass over those rows run in ws, and the
        mu-integral m = int h dmu of the last hidden activations h."""
        rows = _layer_rows(self.arch, values)
        ws, w, fX = self.load(rows)
        _forward_into(rows, ws, self.act)
        return ws.heads[-1] @ w, rows, ws, w, fX

    def risk(self, values: np.ndarray, record: bool = True):
        """(risk or, unless `record`, None, rows, ws, w) of the pass over
        `values`, with ws left holding what `gradient` reads: the hidden
        pre-activations in `pres`, the centered last hidden activations
        h - int h dmu in `acts[-1]` (above its row of ones) and the residual in `resid`."""
        m, rows, ws, w, fX = self.hidden_mean(values)
        ws.heads[-1] -= m[:, None]
        R = np.matmul(rows[-1], ws.acts[-1], out=ws.resid)
        R -= fX
        value = float(sum(np.vecdot(np.multiply(R, R, out=ws.scratch), w))) if record else None  # row @ w per row
        return value, rows, ws, w

    def gradient(self, values: np.ndarray, record: bool = True):
        """(risk, raw, G, squares) from one node set, one forward pass and
        the target values the plan gives (`risk`; None unless `record`): raw
        is the flat risk gradient, G `manifold.project_gradient(theta, raw)`
        bit for bit, squares the hidden rows' squared norms per layer; raw and
        a risk are checked finite once.

        The backprop runs feature-major in the forward pass's workspace:
        deltas are (l_k, n), and a layer's gradient is the single product
        dz @ [a_{k-1}; 1].T with the activations the forward pass kept; a
        hidden layer's is projected as it is taken (`manifold._project_rows`).
        The mean correction is applied once, on the residual row, which then
        also takes the node weights: every hidden delta carries them.
        """
        arch, L = self.arch, self.arch.depth
        value, rows, ws, w = self.risk(values, record)
        H, R = ws.acts[-1], ws.resid  # [centered last hidden activations; 1], residual

        idx = arch.subvector_rows  # the flat layout of each layer's rows
        raw, G, squares = np.empty(arch.param_count), np.empty(arch.param_count), [None] * (L - 1)
        wr = np.multiply(R, w, out=ws.scratch)
        g = wr @ H.T
        g *= TWO
        raw[idx[-1]] = G[idx[-1]] = g

        # The signal routed through the subtracted mean is the same for every
        # node, so it leaves on the residual row: W^T R - (W^T Rbar) 1^T equals
        # W^T (R - Rbar 1^T), Rbar = R @ w.  The row also takes the node weights,
        # so every delta below carries them.
        R -= (R @ w)[:, None]
        R *= w
        delta = self.products[L](TWO * rows[-1][:, :-1].T, R, out=ws.heads[-1])
        for k in range(L - 1, 0, -1):
            # layer k's pre-activations are read for the last time: dz replaces them
            dz = self.deriv(ws.pres[k - 1], ws.pres[k - 1])
            dz *= delta
            prev = ws.acts[k - 2] if k > 1 else ws.nodes
            raw[idx[k - 1]] = g = dz @ prev.T
            G[idx[k - 1]], squares[k - 1] = _project_rows(rows[k - 1], g)
            if k > 1:  # layer k - 1's activations are read for the last time
                delta = self.products[k](rows[k - 1][:, :-1].T, dz, out=ws.heads[k - 2])

        if not (np.isfinite(raw).all() and (value is None or math.isfinite(value))):
            raise QuadratureError("risk or gradient has non-finite components")
        return value, raw, G, squares


@quiet
def hidden_mean(
    theta: ParamVector,
    measure: InputMeasure,
    r=INF,
    resolution: Optional[int] = None,
) -> np.ndarray:
    """mu-integral of the last hidden layer's activations (not mass-normalized)."""
    m = _NodePlan(theta.arch, measure, None, r, resolution).hidden_mean(theta.values)[0]
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


@quiet
def risk(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> float:
    """mu-integral of the squared output error against the target."""
    value = _NodePlan(theta.arch, measure, f, r, resolution).risk(theta.values)[0]
    if not math.isfinite(value):
        raise QuadratureError("risk is non-finite")
    return value
