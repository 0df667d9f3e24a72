"""Flat parameter layout for fully connected ReLU networks.

A network with layer widths (l_0, ..., l_L) stores all weights and biases in
one flat vector.  Layer k occupies a contiguous block: first the weight matrix
in row-major order, then the biases.  Layer and neuron numbers are 1-based
(`NeuronKey`, the k of `layer(k)`); flat positions, as `neuron_indices` and
`subvector_rows` return them, are 0-based.
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
        # depth L, param_count and `layer_table`: per layer k = 1..L, at row
        # k - 1, the (weight slice, weight shape, bias slice) of [W_k | b_k]
        table, off = [], 0
        for n_in, n_out in zip(dims, dims[1:]):
            end = off + n_out * n_in
            table.append((slice(off, end), (n_out, n_in), slice(end, end + n_out)))
            off = end + n_out
        object.__setattr__(self, "depth", len(dims) - 1)
        object.__setattr__(self, "param_count", off)
        object.__setattr__(self, "layer_table", tuple(table))

    def layer(self, k: int) -> tuple[slice, tuple[int, int], slice]:
        """Layer k's row of `layer_table`, k in 1..L."""
        if not 1 <= k <= self.depth:
            raise ValueError(f"layer index {k} out of range 1..{self.depth}")
        return self.layer_table[k - 1]

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
        for w, shape, b in self.layer_table:
            idx = np.column_stack((np.arange(w.start, w.stop).reshape(shape),
                                   np.arange(b.start, b.stop)))
            idx.flags.writeable = False
            rows.append(idx)
        return tuple(rows)

    def neuron_indices(self, key: "NeuronKey") -> np.ndarray:
        """0-based flat positions of neuron (k, i)'s incoming weights + bias."""
        k, i = key.layer, key.index
        self.layer(k)
        if not 1 <= i <= self.layer_dims[k]:
            raise ValueError(
                f"neuron index {i} out of range 1..{self.layer_dims[k]} in layer {k}"
            )
        return self.subvector_rows[k - 1][i - 1].copy()


@dataclass(frozen=True)
class NeuronKey:
    """Identifies neuron i (1-based) in layer k (1-based)."""

    layer: int
    index: int


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
        w, shape, _ = self.arch.layer(k)
        return self.values[w].reshape(shape)

    def biases(self, k: int) -> np.ndarray:
        """Writable (l_k,) view of layer k's bias vector."""
        return self.values[self.arch.layer(k)[2]]

    def neuron_subvector(self, key: NeuronKey) -> np.ndarray:
        """Incoming weights followed by the bias of one neuron (a copy)."""
        return self.values[self.arch.neuron_indices(key)]


def random_params(arch: Architecture, rng: np.random.Generator, scale: float = 1.0) -> ParamVector:
    """Standard normal initialization (times `scale`)."""
    return ParamVector(arch, scale * rng.standard_normal(arch.param_count))
