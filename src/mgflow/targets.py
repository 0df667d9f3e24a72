"""Target functions.

Scalar targets on [0, 1] are piecewise polynomials with declared breakpoints so
that every integral against them can be evaluated exactly (segment-wise
Gauss-Legendre, or closed-form antiderivatives).  Multivariate targets wrap an
arbitrary evaluator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import ZERO, quiet

MAX_POLY_DEGREE = 5


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on [breaks[0], breaks[-1]].

    `coeffs[j]` holds ascending-power coefficients of the polynomial on
    [breaks[j], breaks[j+1]].  Evaluation at a breakpoint uses the right piece
    (last piece at the right endpoint).
    """

    breaks: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        coeffs = tuple(tuple(float(c) for c in piece) for piece in self.coeffs)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "coeffs", coeffs)
        if not all(abs(x) < np.inf for x in breaks + sum(coeffs, ())):  # false for nan too
            raise ValueError("breakpoints and coefficients must be finite")
        if len(breaks) < 2 or any(b1 <= b0 for b0, b1 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        if len(coeffs) != len(breaks) - 1:
            raise ValueError("need one coefficient tuple per piece")
        if any(len(p) == 0 or len(p) - 1 > MAX_POLY_DEGREE for p in coeffs):
            raise ValueError(f"piece degree must be in 0..{MAX_POLY_DEGREE}")
        # for __call__: the inner breaks, and one column per power (highest first)
        # of the coefficients zero-padded to the top degree
        pad = max(len(p) for p in coeffs)
        table = np.array([p + (0.0,) * (pad - len(p)) for p in coeffs])
        object.__setattr__(self, "_inner", np.asarray(breaks[1:-1]))
        object.__setattr__(self, "_columns", tuple(np.ascontiguousarray(table[:, ::-1].T)))
        object.__setattr__(self, "_breaks", np.asarray(breaks))
        object.__setattr__(self, "_upper", self._breaks[1:])  # the primitive table's upper breaks

    @functools.cached_property
    def _primitive(self) -> np.ndarray:
        # built on first use: network runs wrap scalar targets but never integrate them
        return _primitive_table(self.breaks, self.coeffs)

    def __call__(self, s):
        """`np.polynomial.polynomial.polyval` on the padded piece of each s, bit for bit."""
        out = self._values(np.asarray(s, dtype=float))
        return out if out.ndim else float(out)

    def _values(self, s: np.ndarray):
        """`__call__` on a float array s, without its conversions."""
        # interior breaks at or below s: the piece index, clamped to the domain
        piece = self._inner.searchsorted(s, side="right")
        top, *rest = self._columns
        out = top[piece] + s * ZERO  # polyval's first step, kept for equal bits
        for c in rest:
            out = c[piece] + out * s
        return out

    def integral(self) -> float:
        """Exact integral over the full domain."""
        return float(self._primitive[0, 3, -1])

    def mean(self) -> float:
        """Integral divided by the domain length."""
        return self.integral() / (self.breaks[-1] - self.breaks[0])

    def lookup_moments(self, ends):
        """(P0, P1, P2, int f, int s f) over [ends[0], ends[1]], with P_k = int s^k ds,
        as one (5, ...) array, for ends of shape (2, ...) already inside the domain
        with ends[0] <= ends[1] (nan ends give nan moments).  Both ends are looked
        up in one pass over the primitive table."""
        piece = self._upper.searchsorted(ends, side="right")
        C = self._primitive.take(piece, axis=-1)  # (D, 5, 2, ...)
        u = ends - self._breaks[piece]
        F = C[-1]  # Horner in place on the fresh gather: F <- C[k] + u F
        for k in range(len(C) - 2, -1, -1):
            F *= u
            F += C[k]
        return F[:, 1] - F[:, 0]

    def partial_moments(self, lo, hi, fbar: float):
        """Exact (A, B) with A = int (fbar - f) ds, B = same times s, over [lo, max(lo, hi)]
        clipped to the domain: `lo`, `hi` broadcast, and an empty interval gives exact zeros."""
        ends = np.clip(np.broadcast_arrays(lo, np.maximum(lo, hi)), self.breaks[0], self.breaks[-1])
        P0, P1, _, F0, F1 = self.lookup_moments(ends)
        return fbar * P0 - F0, fbar * P1 - F1

    def lipschitz_bound(self) -> float:
        """Max of |f'| over the domain (exact: critical points of each piece)."""
        best = 0.0
        for j, c in enumerate(self.coeffs):
            d = np.polynomial.polynomial.polyder(np.asarray(c)) if len(c) > 1 else np.zeros(1)
            pts = [self.breaks[j], self.breaks[j + 1]]
            if d.size > 1:
                dd = np.polynomial.polynomial.polyder(d)
                roots = np.roots(dd[::-1]) if dd.size > 1 else np.array([])
                for r in roots:
                    if abs(r.imag) < 1e-12 and self.breaks[j] <= r.real <= self.breaks[j + 1]:
                        pts.append(r.real)
            best = max(best, float(np.max(np.abs(np.polynomial.polynomial.polyval(np.asarray(pts), d)))))
        return best

    def interior_breaks(self) -> np.ndarray:
        return np.asarray(self.breaks[1:-1])


def _primitive_table(breaks, coeffs) -> np.ndarray:
    """Antiderivatives of the columns 1, s, s^2, f, s f: entry [k, col, j] is
    the coefficient of (s - breaks[j])^k on piece j, with the integral from
    breaks[0] folded into the constant term.  Expanding about each piece's own
    break keeps steep pieces stable, unlike power differences.  An extra,
    constant piece holds the totals for s = breaks[-1].
    """
    table = np.zeros((max(4, max(len(c) for c in coeffs) + 2), 5, len(coeffs) + 1))
    for j, c in enumerate(coeffs):
        b = breaks[j]
        for col, p in enumerate(((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), c, (0.0,) + c)):
            e = np.zeros(len(p) + 1)  # p(b + u) in powers of u, by Horner's shift
            for cp in reversed(p):
                e[1:] = b * e[1:] + e[:-1]
                e[0] = b * e[0] + cp
            table[1:len(p) + 1, col, j] = e[:-1] / np.arange(1, len(p) + 1)
        table[0, :, j + 1] = np.polynomial.polynomial.polyval(breaks[j + 1] - b, table[:, :, j])
    return table


# Builders for the supported target families, all on [0, 1].

def constant_target(c: float) -> PiecewisePolynomial:
    return PiecewisePolynomial((0.0, 1.0), ((c,),))


def affine_target(intercept: float, slope: float) -> PiecewisePolynomial:
    return PiecewisePolynomial((0.0, 1.0), ((intercept, slope),))


def abs_offset_target(center: float) -> PiecewisePolynomial:
    """s -> |s - center| on [0, 1]."""
    if not 0.0 < center < 1.0:
        # single affine piece, no interior kink
        sign = 1.0 if center <= 0.0 else -1.0
        return PiecewisePolynomial((0.0, 1.0), ((-sign * center, sign),))
    return PiecewisePolynomial((0.0, center, 1.0), ((center, -1.0), (-center, 1.0)))


@quiet  # a slope that overflows is refused as a non-finite coefficient
def piecewise_linear_target(knots_s, knots_y) -> PiecewisePolynomial:
    """Continuous piecewise-linear interpolant of (s_j, y_j)."""
    s = np.asarray(knots_s, dtype=float)
    y = np.asarray(knots_y, dtype=float)
    if s.ndim != 1 or s.size < 2 or s.shape != y.shape:
        raise ValueError("need matching 1-d knot arrays, at least two knots")
    if not (np.isfinite([s, y]).all() and np.all(np.diff(s) > 0)):
        raise ValueError("knots must be finite, with strictly increasing locations")
    pieces = []
    for j in range(s.size - 1):
        slope = (y[j + 1] - y[j]) / (s[j + 1] - s[j])
        pieces.append((y[j] - slope * s[j], slope))
    return PiecewisePolynomial(tuple(s), tuple(pieces))


def polynomial_target(coeffs) -> PiecewisePolynomial:
    """Single polynomial piece on [0, 1], ascending coefficients, degree <= 5."""
    return PiecewisePolynomial((0.0, 1.0), (tuple(coeffs),))


@dataclass
class TargetFunction:
    """Target f: [a,b]^d -> R^m for the risk functional.

    `breakpoints` (1-d inputs only) lists interior kinks so the quadrature
    engine can split segments.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    out_dim: int = 1
    breakpoints: Optional[np.ndarray] = None
    piecewise: Optional[PiecewisePolynomial] = None  # the scalar target `from_scalar` wraps

    def __call__(self, x: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(x), dtype=float)
        n = x.shape[0]
        vals = vals.reshape(n, self.out_dim) if vals.ndim <= 1 else vals
        if vals.shape != (n, self.out_dim):
            raise ValueError(f"target returned shape {vals.shape}, expected ({n},{self.out_dim})")
        return vals

    @classmethod
    def from_scalar(cls, p: PiecewisePolynomial) -> "TargetFunction":
        return cls(
            evaluator=lambda x: p(x[:, 0]),
            out_dim=1,
            breakpoints=p.interior_breaks(),
            piecewise=p,
        )

    @classmethod
    def zero(cls, out_dim: int = 1) -> "TargetFunction":
        return cls(
            evaluator=lambda x: np.zeros((x.shape[0], out_dim)),
            out_dim=out_dim,
        )

    @classmethod
    def affine_map(cls, weights, offset) -> "TargetFunction":
        """x -> W x + c for multivariate inputs."""
        W = np.atleast_2d(np.asarray(weights, dtype=float))
        c = np.atleast_1d(np.asarray(offset, dtype=float))
        if W.shape[0] != c.size:
            raise ValueError("weights/offset output dims disagree")
        return cls(
            evaluator=lambda x: x @ W.T + c,
            out_dim=c.size,
        )
