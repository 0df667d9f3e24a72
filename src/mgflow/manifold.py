"""Unit-norm constraints on hidden neurons and the associated projections.

Each hidden neuron's incoming weights plus bias form a subvector V; the
constraint value is psi = |V|^2 and the constraint set is the joint level set
{psi = 1}.  Constraint gradients of distinct neurons live on disjoint
coordinates, so removing the components of a raw gradient along their unit
normals is an orthogonal projection onto the common tangent space.
"""

from __future__ import annotations

import numpy as np

from .params import Architecture, NeuronKey, ParamVector


def rho(x: np.ndarray) -> np.ndarray:
    """x / |x| for nonzero x, zero vector otherwise.  Outside [1e-140, 1e140]
    the squares in |x| would underflow or overflow, so x is first scaled by its
    largest |entry| (Blue 1978; LAPACK dnrm2)."""
    x = np.asarray(x, dtype=float)
    n = np.linalg.norm(x)
    if not 1e-140 < n < 1e140:
        scale = np.max(np.abs(x), initial=0.0)
        if scale == 0.0:
            return np.zeros_like(x)
        x = x / scale
        n = np.linalg.norm(x)
    return x / n


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


def constraint_values(theta: ParamVector) -> dict[NeuronKey, float]:
    """psi over the full hidden-neuron key set."""
    return {key: psi(theta, key) for key in theta.arch.hidden_keys()}


def max_constraint_deviation(theta: ParamVector) -> float:
    """max over hidden neurons of |psi - 1|."""
    vals = np.array([psi(theta, key) for key in theta.arch.hidden_keys()])
    return float(np.max(np.abs(vals - 1.0)))


def project_gradient(theta: ParamVector, raw_grad: np.ndarray) -> np.ndarray:
    """Remove raw_grad's components along each hidden neuron's unit normal.

    The normal directions rho(grad psi) = V/|V| are orthonormal (disjoint
    supports), so this is an orthogonal projection; subtracting
    <grad psi, g> grad psi / |grad psi|^2 instead is algebraically the same
    map wherever V is nonzero.  Neurons with V = 0 contribute nothing.
    """
    raw_grad = np.asarray(raw_grad, dtype=float)
    if raw_grad.shape != (theta.arch.param_count,):
        raise ValueError("raw gradient length must match the parameter count")
    out = raw_grad.copy()
    for key in theta.arch.hidden_keys():
        idx = theta.arch.neuron_indices(key)
        v = theta.values[idx]
        n = np.linalg.norm(v)
        if n > 0.0:
            u = v / n
            out[idx] -= (u @ out[idx]) * u
    return out


def renormalize(theta: ParamVector) -> ParamVector:
    """Map every hidden subvector V to V/|V| (zero stays zero); output layer untouched."""
    out = theta.copy()
    for key in theta.arch.hidden_keys():
        idx = out.arch.neuron_indices(key)
        out.values[idx] = rho(out.values[idx])
    return out


def rescale_layer(theta: ParamVector, k: int) -> ParamVector:
    """One cascade step: normalize layer k's subvectors, absorb their norms
    into layer k+1's incoming weights (biases of layer k+1 unchanged)."""
    arch = theta.arch
    if not 1 <= k <= arch.depth - 1:
        raise ValueError(f"cascade layer {k} out of range 1..{arch.depth - 1}")
    out = theta.copy()
    norms = np.empty(arch.layer_dims[k])
    for i in range(1, arch.layer_dims[k] + 1):
        idx = arch.neuron_indices(NeuronKey(k, i))
        v = out.values[idx]
        norms[i - 1] = np.linalg.norm(v)
        out.values[idx] = rho(v)
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
    return min(
        float(np.linalg.norm(theta.neuron_subvector(key))) for key in theta.arch.hidden_keys()
    )


def random_on_manifold(arch: Architecture, rng: np.random.Generator, scale: float = 1.0) -> ParamVector:
    """Standard normal draw pushed onto the constraint set by the cascade."""
    theta = ParamVector(arch, scale * rng.standard_normal(arch.param_count))
    return rescale_full(theta)
