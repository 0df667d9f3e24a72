"""ReLU and its C^1 smoothed family.

The smoothed activation with index r is a cubic spline supported on (0, 1/r):

    act_r(x) = 0                  x <= 0
    act_r(x) = 2 r x^2 - r^2 x^3  0 < x < 1/r
    act_r(x) = x                  x >= 1/r

It matches max(x, 0) and its derivative outside (0, 1/r), has act_r(0) = 0 and
act_r'(0) = 0, and its derivative is uniformly bounded by 4/3.  For every fixed
x the pair (value, derivative) equals the exact ReLU pair (max(x,0), 1_{x>0})
for all r > 1/|x| (for all r when x <= 0), so the family becomes pointwise
exact as r grows.  r = inf selects exact ReLU with the left-continuous
derivative convention relu'(0) = 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quadrature import ZERO

INF = math.inf


def _check_index(r) -> float:
    r = float(r)
    if not (r >= 1):
        raise ValueError(f"smoothing index must be >= 1 or inf, got {r}")
    return r


def _evaluate(r, x, out, exact, cubic):
    """exact(x, 0.0), vectorized over x and written into `out` (which may be
    x) when given, with cubic(r, x) where x lies strictly inside (0, 1/r) or
    is nan at finite r.  Exact ReLU skips the index checks."""
    x = np.asarray(x, dtype=float)
    band = None
    if r != INF and not math.isinf(r := _check_index(r)):
        band = ~((x <= 0.0) | (x >= 1.0 / r))
        piece = cubic(r, x[band])  # read before `out`, which may be x, is written
    out = exact(x, ZERO, out=np.empty_like(x) if out is None else out)
    if band is not None:
        out[band] = piece
    return out if out.ndim else float(out)


def smoothed_act(r, x, out=None):
    """Activation value (see `_evaluate`)."""
    return _evaluate(r, x, out, np.maximum, lambda r, xb: 2.0 * r * xb**2 - (r * r) * xb**3)


def smoothed_act_deriv(r, x, out=None):
    """Activation derivative (see `_evaluate`)."""
    return _evaluate(r, x, out, np.greater, lambda r, xb: 4.0 * r * xb - 3.0 * (r * r) * xb**2)


def activation(r):
    """(act, deriv) for index r: each fn(x, out) writes `smoothed_act(r, x)` or
    `smoothed_act_deriv(r, x)` into out (which may be x), exact ReLU through their ufuncs
    directly; r is checked once, here."""
    r = _check_index(r)
    if math.isinf(r):
        return (lambda x, out: np.maximum(x, ZERO, out=out)), (lambda x, out: np.greater(x, ZERO, out=out))
    return functools.partial(smoothed_act, r), functools.partial(smoothed_act_deriv, r)


_RELU_KNOTS = np.array([0.0])
_RELU_KNOTS.flags.writeable = False


def activation_knots(r) -> np.ndarray:
    """Pre-activation values where the activation's polynomial piece changes
    (read-only for exact ReLU)."""
    r = _check_index(r)
    if math.isinf(r):
        return _RELU_KNOTS
    return np.array([0.0, 1.0 / r])
