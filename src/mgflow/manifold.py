"""Unit-norm constraints on hidden neurons and the associated projections.

Each hidden neuron's incoming weights plus bias form a row V of [W_k | b_k]
(`Architecture.subvector_rows`); its constraint value is psi = |V|^2, with
gradient 2V on the row and zero elsewhere, and the constraint set is the
joint level set {psi = 1}, a product of spheres (the oblique manifold).  Rows
of distinct neurons are disjoint, so removing the components of a raw gradient
along their unit normals is an orthogonal projection onto the tangent space.
"""

from __future__ import annotations

import numpy as np

from .params import Architecture, ParamVector, random_params
from .quadrature import ONE, quiet


@quiet
def rho(x: np.ndarray) -> np.ndarray:
    """x / |x| for nonzero x, zero for zero x, nan for non-finite x (see `_unit_rows`)."""
    x = np.asarray(x, dtype=float)
    return _unit_rows(x.reshape(1, -1))[0].reshape(x.shape)


def _unit_rows(V: np.ndarray):
    """(rows of V divided by their norms, the norms, the squares
    vecdot(V, V)), as `rho` does per row: zero rows stay zero, non-finite
    rows become nan.  Rows whose norm lies outside [1e-140, 1e140], where the
    squares lose precision, are scaled by their largest |entry| first, one
    fresh row at a time as in `rho` (Blue 1978; LAPACK dnrm2); the squares
    returned stay unscaled.

    The caller sets the error state.  Row dot products here and below use
    np.vecdot, the kernel of `a @ b`: each equals the per-vector one bit for
    bit at the same address (OpenBLAS's SSE2 `Prescott` dot rounds by alignment)."""
    sq = np.vecdot(V, V)
    n = np.sqrt(sq)
    if 1e-140 < n.min() and n.max() < 1e140:  # false for nan too
        return V / n[:, None], n, sq
    U = V / n[:, None]
    for i in np.flatnonzero(~((n > 1e-140) & (n < 1e140))):
        s = np.max(np.abs(V[i]), initial=0.0)
        x = V[i] / s
        m = np.sqrt(np.vecdot(x, x))
        U[i], n[i] = (0.0, 0.0) if s == 0.0 else (x / m, s * m)
    return U, n, sq


def _max_deviation(squares) -> float:
    """max |psi - 1| over the hidden rows, from their squared norms psi (one
    array per hidden layer)."""
    return float(np.abs(np.concatenate(squares) - ONE).max())


def max_constraint_deviation(theta: ParamVector) -> float:
    """max over hidden neurons of |psi - 1|."""
    hidden = [theta.values[idx] for idx in theta.arch.subvector_rows[:-1]]
    return _max_deviation([np.vecdot(V, V) for V in hidden])


def _project_rows(arch, values: np.ndarray, G: np.ndarray) -> list:
    """Project the flat gradient G in place, as `project_gradient` does, against
    the hidden rows of `values`; returns the rows' squared norms psi, one array
    per hidden layer.  The caller sets the error state."""
    squares = []
    for idx in arch.subvector_rows[:-1]:
        U, _, sq = _unit_rows(values[idx])
        g = G[idx]
        G[idx] = g - np.vecdot(U, g)[:, None] * U
        squares.append(sq)
    return squares


@quiet
def project_gradient(theta: ParamVector, raw_grad: np.ndarray) -> np.ndarray:
    """Remove raw_grad's components along each hidden neuron's unit normal.

    On each hidden row V the normal of psi = |V|^2 is 2V, with unit form
    V/|V|; these are orthonormal (disjoint rows), so this is an orthogonal
    projection; subtracting <2V, g> 2V / |2V|^2 instead is algebraically the
    same map wherever V is nonzero.  Rows with V = 0 contribute nothing.
    """
    out = np.array(raw_grad, dtype=float)
    if out.shape != (theta.arch.param_count,):
        raise ValueError("raw gradient length must match the parameter count")
    _project_rows(theta.arch, theta.values, out)
    return out


def _retract(arch, values: np.ndarray):
    """(a copy of `values` with every hidden row [W_k | b_k] divided by its
    norm, the number of zero hidden rows), for `renormalize` and `zero_rows`.
    A row's norm is 0 exactly when every entry is, and nan exactly when the
    row holds a nan or an inf (and its unit row is then nan), so the count is
    read off the norms, and is 0 when any norm is nan."""
    out = values.copy()
    zeros, finite = 0, True
    for idx in arch.subvector_rows[:-1]:
        out[idx], n, _ = _unit_rows(values[idx])
        lo = n.min()
        if lo == 0.0:
            zeros += int(np.count_nonzero(n == 0.0))
        finite = finite and lo == lo
    return out, zeros if finite else 0


@quiet
def renormalize(theta: ParamVector) -> ParamVector:
    """Map every hidden subvector V to V/|V| (zero stays zero); output layer untouched."""
    return ParamVector(theta.arch, _retract(theta.arch, theta.values)[0])


@quiet
def rescale_layer(theta: ParamVector, k: int) -> ParamVector:
    """One cascade step: normalize layer k's subvectors, absorb their norms
    into layer k+1's incoming weights (biases of layer k+1 unchanged)."""
    arch = theta.arch
    if not 1 <= k <= arch.depth - 1:
        raise ValueError(f"cascade layer {k} out of range 1..{arch.depth - 1}")
    out = theta.copy()
    idx = arch.subvector_rows[k - 1]
    U, norms, _ = _unit_rows(out.values[idx])
    out.values[idx] = U
    out.weights(k + 1)[:] = out.weights(k + 1) * norms[None, :]  # the caller reports a non-finite result
    return out


def rescale_cascade(theta: ParamVector, k: int) -> ParamVector:
    """Composition of the single-layer steps 1..k (k = 0 is the identity)."""
    if k < 0 or k > theta.arch.depth - 1:
        raise ValueError(f"cascade index {k} out of range 0..{theta.arch.depth - 1}")
    out = theta
    for j in range(1, k + 1):
        out = rescale_layer(out, j)
    return out.copy() if out is theta else out


def rescale_full(theta: ParamVector) -> ParamVector:
    """Full cascade through all hidden layers; preserves the realization and
    leaves every nonzero hidden subvector with unit norm."""
    return rescale_cascade(theta, theta.arch.depth - 1)


@quiet
def min_subvector_norm(theta: ParamVector) -> float:
    norms = [_unit_rows(theta.values[idx])[1] for idx in theta.arch.subvector_rows[:-1]]
    return float(np.min(np.concatenate(norms)))


@quiet
def zero_rows(theta: ParamVector) -> int:
    """How many hidden rows [W_k | b_k] have no nonzero entry (a row's norm is 0
    exactly when every entry is); 0 on a state with a non-finite hidden entry."""
    return _retract(theta.arch, theta.values)[1]


def random_on_manifold(arch: Architecture, rng: np.random.Generator) -> ParamVector:
    """Standard normal draw pushed onto the constraint set by the cascade."""
    return rescale_full(random_params(arch, rng))
