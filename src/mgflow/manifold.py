"""Unit-norm constraints on hidden neurons and the associated projections.

Each hidden neuron's incoming weights plus bias form a subvector V; the
constraint value is psi = |V|^2 and the constraint set is the joint level set
{psi = 1}.  Constraint gradients of distinct neurons live on disjoint
coordinates, so removing the components of a raw gradient along their unit
normals is an orthogonal projection onto the common tangent space.
"""

from __future__ import annotations

import numpy as np

from .params import Architecture, NeuronKey, ParamVector, random_params


def rho(x: np.ndarray) -> np.ndarray:
    """x / |x| for nonzero x, zero for zero x, nan for non-finite x (see `_unit_rows`)."""
    x = np.asarray(x, dtype=float)
    return _unit_rows(x.reshape(1, -1))[0].reshape(x.shape)


def psi(theta: ParamVector, key: NeuronKey) -> float:
    """Squared norm of the neuron's subvector (defined for every layer)."""
    v = theta.neuron_subvector(key)
    return float(v @ v)


def grad_psi(theta: ParamVector, key: NeuronKey) -> np.ndarray:
    """Gradient of psi: 2V on the neuron's coordinates, zero elsewhere."""
    out = np.zeros(theta.arch.param_count)
    idx = theta.arch.neuron_indices(key)
    out[idx] = 2.0 * theta.values[idx]
    return out


def _unit_rows(V: np.ndarray):
    """(rows of V divided by their norms, the norms), as `rho` does per row:
    zero rows stay zero, non-finite rows become nan.  Rows whose norm lies
    outside [1e-140, 1e140], where the squares lose precision, are scaled by
    their largest |entry| first (Blue 1978; LAPACK dnrm2).

    Row dot products here and below use np.vecdot, which runs the kernel of
    `a @ b`: each equals the per-vector dot product bit for bit."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = np.sqrt(np.vecdot(V, V))
        if 1e-140 < n.min() and n.max() < 1e140:  # false for nan too
            return V / n[:, None], n
        off = ~((n > 1e-140) & (n < 1e140))
        U = V / n[:, None]
        s = np.max(np.abs(V[off]), axis=1, keepdims=True, initial=0.0)
        X = V[off] / s
        m = np.sqrt(np.vecdot(X, X))[:, None]
        U[off] = np.where(s == 0.0, 0.0, X / m)
        n[off] = np.where(s == 0.0, 0.0, s * m)[:, 0]
    return U, n


def max_constraint_deviation(theta: ParamVector) -> float:
    """max over hidden neurons of |psi - 1|."""
    hidden = [theta.values[idx] for idx in theta.arch.subvector_rows[:-1]]
    psis = np.concatenate([np.vecdot(V, V) for V in hidden])
    return float(np.max(np.abs(psis - 1.0)))


def project_gradient(theta: ParamVector, raw_grad: np.ndarray) -> np.ndarray:
    """Remove raw_grad's components along each hidden neuron's unit normal.

    The normal directions rho(grad psi) = V/|V| are orthonormal (disjoint
    supports), so this is an orthogonal projection; subtracting
    <grad psi, g> grad psi / |grad psi|^2 instead is algebraically the same
    map wherever V is nonzero.  Neurons with V = 0 contribute nothing.
    """
    out = np.array(raw_grad, dtype=float)
    if out.shape != (theta.arch.param_count,):
        raise ValueError("raw gradient length must match the parameter count")
    for idx in theta.arch.subvector_rows[:-1]:
        U = _unit_rows(theta.values[idx])[0]
        G = out[idx]
        out[idx] = G - np.vecdot(U, G)[:, None] * U
    return out


def renormalize(theta: ParamVector) -> ParamVector:
    """Map every hidden subvector V to V/|V| (zero stays zero); output layer untouched."""
    out = theta.copy()
    for idx in theta.arch.subvector_rows[:-1]:
        out.values[idx] = _unit_rows(out.values[idx])[0]
    return out


def rescale_layer(theta: ParamVector, k: int) -> ParamVector:
    """One cascade step: normalize layer k's subvectors, absorb their norms
    into layer k+1's incoming weights (biases of layer k+1 unchanged)."""
    arch = theta.arch
    if not 1 <= k <= arch.depth - 1:
        raise ValueError(f"cascade layer {k} out of range 1..{arch.depth - 1}")
    out = theta.copy()
    idx = arch.subvector_rows[k - 1]
    U, norms = _unit_rows(out.values[idx])
    out.values[idx] = U
    out.weights(k + 1)[:] = out.weights(k + 1) * norms[None, :]
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


def min_subvector_norm(theta: ParamVector) -> float:
    norms = [_unit_rows(theta.values[idx])[1] for idx in theta.arch.subvector_rows[:-1]]
    return float(np.min(np.concatenate(norms)))


def zero_rows(theta: ParamVector) -> int:
    """How many hidden rows [W_k | b_k] have no nonzero entry (a row's norm is 0
    exactly when every entry is); 0 on a state with a non-finite hidden entry."""
    hidden = [theta.values[idx] for idx in theta.arch.subvector_rows[:-1]]
    finite = all(np.isfinite(V).all() for V in hidden)
    return sum(int((~V.any(axis=1)).sum()) for V in hidden) if finite else 0


def random_on_manifold(arch: Architecture, rng: np.random.Generator, scale: float = 1.0) -> ParamVector:
    """Standard normal draw pushed onto the constraint set by the cascade."""
    return rescale_full(random_params(arch, rng, scale))
