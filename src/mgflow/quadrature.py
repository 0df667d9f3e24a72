"""Input measures on a box and the quadrature engine.

Integrals against the measure come in three flavors:

* discrete measures - exact weighted sums;
* uniform measure, 1-d input, with declared integrand breakpoints - the
  interval is split at every breakpoint and each segment gets a fixed-order
  Gauss-Legendre rule, which is exact for the piecewise-polynomial integrands
  produced by shallow ReLU networks and polynomial targets;
* everything else - a composite Gauss-Legendre tensor grid whose per-axis
  resolution is a configuration knob.

Weights always sum to the measure's total mass: integrals are against the
measure itself, never normalized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_RESOLUTION = 2048  # nodes per axis for the composite grid
SEGMENT_GL_ORDER = 12      # exact for polynomials up to degree 23
_PANEL_ORDER = 4
# The package's one floating-point error state, used only as a decorator (so the
# one instance nests): `dynamics.fixed_step` and the public functions run under it.
quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def constant(value) -> np.ndarray:
    """`value` as a read-only 0-d float64 array: a ufunc takes it as it is, while
    NumPy 2 converts a Python-float operand on every call (NEP 50)."""
    return np.broadcast_to(np.float64(value), ())


HALF, ZERO, ONE, TWO = map(constant, (0.5, 0.0, 1.0, 2.0))  # the stage loops' operands


class QuadratureError(RuntimeError):
    """Raised when an integrand produces non-finite values."""


@dataclass(frozen=True)
class InputMeasure:
    """Finite measure on [a, b]^dim: uniform (Lebesgue on the box) or discrete.
    A discrete measure keeps read-only copies of its points and weights."""

    kind: str
    a: float
    b: float
    dim: int
    points: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("uniform", "discrete"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if not self.b > self.a:
            raise ValueError("need b > a")
        if self.dim < 1:
            raise ValueError("need dim >= 1")
        if self.kind == "discrete":
            pts = np.atleast_2d(np.array(self.points, dtype=float))
            w = np.atleast_1d(np.array(self.weights, dtype=float))
            pts.flags.writeable = w.flags.writeable = False
            if pts.shape[1] != self.dim or pts.shape[0] != w.size:
                raise ValueError("points must be (n, dim) with matching weights")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if pts.size and (pts.min() < self.a - 1e-12 or pts.max() > self.b + 1e-12):
                raise ValueError(f"points must lie in [{self.a}, {self.b}]^{self.dim}")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "weights", w)
        if not np.isfinite(self.total_mass):
            raise ValueError("total mass must be finite")

    @property
    def total_mass(self) -> float:
        if self.kind == "discrete":
            return float(self.weights.sum())
        return float((self.b - self.a) ** self.dim)


def uniform_measure(a: float = 0.0, b: float = 1.0, dim: int = 1) -> InputMeasure:
    return InputMeasure("uniform", float(a), float(b), int(dim))


def discrete_measure(points, weights, a: float = 0.0, b: float = 1.0) -> InputMeasure:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return InputMeasure("discrete", float(a), float(b), pts.shape[1], pts, np.asarray(weights, float))


@functools.lru_cache(maxsize=16)
def gauss_legendre(order: int):
    """Reference Gauss-Legendre nodes and weights on [-1, 1] (cached, read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def segment_rule(edges: np.ndarray, rule=gauss_legendre(SEGMENT_GL_ORDER)):
    """Gauss-Legendre nodes/weights on each [edges[j], edges[j+1]] segment, from
    the reference `rule` (`gauss_legendre`), of order SEGMENT_GL_ORDER unless given."""
    x_ref, w_ref = rule
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) * HALF  # * 0.5 rounds as / 2 does
    nodes = (lo + hi) * HALF + half * x_ref
    return nodes.ravel(), (half * w_ref).ravel()


def composite_rule(a: float, b: float, n_nodes: int):
    """Composite Gauss-Legendre rule on [a, b] with about n_nodes nodes."""
    panels = max(1, int(n_nodes) // _PANEL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    return segment_rule(edges, gauss_legendre(_PANEL_ORDER))


def _segment_edges(points: np.ndarray, a, b, fixed: np.ndarray) -> np.ndarray:
    """`fixed` (a, b and values inside (a, b)) and the `points` strictly inside (a, b), sorted,
    without repeats; both 1-d.  Nan and infinite points fail the range test."""
    edges = np.concatenate((fixed, points[(points > a) & (points < b)]))
    edges.sort()
    step = np.not_equal(edges[1:], edges[:-1])
    return edges if step.all() else edges[np.concatenate(((True,), step))]


def quadrature_nodes(
    measure: InputMeasure,
    breakpoints=None,
    resolution: Optional[int] = None,
):
    """Nodes (n, dim) and weights (n,) realizing integration against the measure."""
    if measure.kind == "discrete":
        return measure.points, measure.weights
    if measure.dim == 1 and breakpoints is not None:
        a, b = measure.a, measure.b
        x, w = segment_rule(_segment_edges(np.asarray(breakpoints, float).ravel(), a, b, np.array([a, b])))
        return x[:, None], w
    res = DEFAULT_RESOLUTION if resolution is None else int(resolution)
    return _composite_grid(measure.a, measure.b, measure.dim, res)


@functools.lru_cache(maxsize=4)
def _composite_grid(a: float, b: float, dim: int, resolution: int):
    """Composite tensor grid on [a, b]^dim; it does not depend on the integrand,
    so it is cached (read-only)."""
    x1, w1 = composite_rule(a, b, resolution)
    X = np.stack(np.meshgrid(*([x1] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    W = functools.reduce(np.multiply.outer, [w1] * dim).ravel()
    X.flags.writeable = W.flags.writeable = False
    return X, W


def integrate(g, measure: InputMeasure, breakpoints=None, resolution: Optional[int] = None):
    """Integral of g against the measure; g maps (n, dim) arrays to (n,) or (n, m),
    also for n = 0 (a discrete measure without points), where the integral is 0."""
    X, w = quadrature_nodes(measure, breakpoints=breakpoints, resolution=resolution)
    vals = np.asarray(g(X), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand produced non-finite values")
    if vals.ndim == 1:
        return float(w @ vals)
    return w @ vals
