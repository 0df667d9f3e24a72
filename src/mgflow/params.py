"""Flat parameter layout for fully connected ReLU networks.

A network with layer widths (l_0, ..., l_L) stores all weights and biases in
one flat vector.  Layer k occupies a contiguous block: first the weight matrix
in row-major order, then the biases.  All public index maps are 1-based (the
usual mathematical convention); slicing helpers used internally are 0-based.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Architecture:
    """Layer widths (l_0, ..., l_L) of a network with L affine maps, L >= 2."""

    layer_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 3:
            raise ValueError(f"need at least 2 affine maps, got layer_dims={dims}")
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer widths must be >= 1, got {dims}")

    @property
    def depth(self) -> int:
        """Number of affine maps L."""
        return len(self.layer_dims) - 1

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(dims[k] * (dims[k - 1] + 1) for k in range(1, len(dims)))

    def layer_offset(self, k: int) -> int:
        """0-based start of layer k's block, k in 1..L."""
        self._check_layer(k)
        dims = self.layer_dims
        return sum(dims[h] * (dims[h - 1] + 1) for h in range(1, k))

    def hidden_keys(self) -> list["NeuronKey"]:
        """All hidden-neuron keys (k, i), k in 1..L-1, i in 1..l_k."""
        return [
            NeuronKey(k, i)
            for k in range(1, self.depth)
            for i in range(1, self.layer_dims[k] + 1)
        ]

    @functools.cached_property
    def subvector_rows(self) -> tuple[np.ndarray, ...]:
        """Per layer k = 1..L, the 0-based flat positions of [W_k | b_k]: row
        i - 1 holds neuron (k, i)'s incoming weights, then its bias (read-only)."""
        rows = []
        for k in range(1, self.depth + 1):
            n_out, n_in, off = self.layer_dims[k], self.layer_dims[k - 1], self.layer_offset(k)
            idx = np.column_stack((off + np.arange(n_out * n_in).reshape(n_out, n_in),
                                   off + n_out * n_in + np.arange(n_out)))
            idx.flags.writeable = False
            rows.append(idx)
        return tuple(rows)

    def neuron_indices(self, key: "NeuronKey") -> np.ndarray:
        """0-based flat positions of neuron (k, i)'s incoming weights + bias."""
        self._check_neuron(key.layer, key.index)
        return self.subvector_rows[key.layer - 1][key.index - 1].copy()

    def _check_layer(self, k: int):
        if not 1 <= k <= self.depth:
            raise ValueError(f"layer index {k} out of range 1..{self.depth}")

    def _check_neuron(self, k: int, i: int):
        self._check_layer(k)
        if not 1 <= i <= self.layer_dims[k]:
            raise ValueError(
                f"neuron index {i} out of range 1..{self.layer_dims[k]} in layer {k}"
            )


@dataclass(frozen=True)
class NeuronKey:
    """Identifies neuron i (1-based) in layer k (1-based)."""

    layer: int
    index: int


def weight_index(arch: Architecture, k: int, i: int, j: int) -> int:
    """1-based flat position of weight (i, j) of layer k."""
    arch._check_neuron(k, i)
    n_in = arch.layer_dims[k - 1]
    if not 1 <= j <= n_in:
        raise ValueError(f"input index {j} out of range 1..{n_in} in layer {k}")
    return (i - 1) * n_in + j + arch.layer_offset(k)


def bias_index(arch: Architecture, k: int, i: int) -> int:
    """1-based flat position of bias i of layer k."""
    arch._check_neuron(k, i)
    dims = arch.layer_dims
    return dims[k] * dims[k - 1] + i + arch.layer_offset(k)


@dataclass
class ParamVector:
    """A flat parameter vector tied to its architecture.

    `values` always has length arch.param_count; every accessor validates
    shapes against `arch`, which is where flat-layout bugs get caught.
    """

    arch: Architecture
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.values is None:
            self.values = np.zeros(self.arch.param_count)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.arch.param_count,):
            raise ValueError(
                f"expected {self.arch.param_count} parameters for "
                f"{self.arch.layer_dims}, got shape {self.values.shape}"
            )

    def copy(self) -> "ParamVector":
        return ParamVector(self.arch, self.values.copy())

    def weights(self, k: int) -> np.ndarray:
        """Writable (l_k, l_{k-1}) view of layer k's weight matrix."""
        self.arch._check_layer(k)
        dims = self.arch.layer_dims
        off = self.arch.layer_offset(k)
        n = dims[k] * dims[k - 1]
        return self.values[off : off + n].reshape(dims[k], dims[k - 1])

    def biases(self, k: int) -> np.ndarray:
        """Writable (l_k,) view of layer k's bias vector."""
        self.arch._check_layer(k)
        dims = self.arch.layer_dims
        off = self.arch.layer_offset(k) + dims[k] * dims[k - 1]
        return self.values[off : off + dims[k]]

    def neuron_subvector(self, key: NeuronKey) -> np.ndarray:
        """Incoming weights followed by the bias of one neuron (a copy)."""
        return self.values[self.arch.neuron_indices(key)]

    def set_neuron_subvector(self, key: NeuronKey, sub) -> None:
        idx = self.arch.neuron_indices(key)
        sub = np.asarray(sub, dtype=float)
        if sub.shape != idx.shape:
            raise ValueError(f"subvector for {key} must have length {idx.size}")
        self.values[idx] = sub


def random_params(arch: Architecture, rng: np.random.Generator, scale: float = 1.0) -> ParamVector:
    """Standard normal initialization (times `scale`)."""
    return ParamVector(arch, scale * rng.standard_normal(arch.param_count))
