"""Exact rational reference for shallow exact-ReLU networks (test-only).

For a (1, n, 1) network with exact ReLU on the uniform measure on [a, b] and
a piecewise-linear target, every integrand is a polynomial between the hidden
kinks -b_i / w_i and the target's breaks.  `shallow_exact` walks those
segments in `fractions.Fraction` arithmetic, from the exact values of the
float parameters and target coefficients, and integrates each polynomial
piece in closed form: no quadrature rule and no rounding.
"""

from __future__ import annotations

from fractions import Fraction


def _segments(a: Fraction, b: Fraction, points) -> list:
    """Consecutive pairs of a, the distinct points strictly inside (a, b), b."""
    edges = [a, *sorted({p for p in points if a < p < b}), b]
    return list(zip(edges, edges[1:]))


def shallow_exact(theta, target, a: float = 0.0, b: float = 1.0):
    """(risk, hidden mean) of the exact-ReLU (1, n, 1) network `theta` against
    the piecewise-linear `target` (a `PiecewisePolynomial` of degree <= 1 on
    [a, b]), on the uniform measure on [a, b], as Fractions.

    The output is v . (h(x) - m) + c with h_i(x) = max(w_i x + b_i, 0) and
    m = int_a^b h dx; the risk is int_a^b (output - target)^2 dx.
    """
    W = [Fraction(float(x)) for x in theta.weights(1)[:, 0]]
    B = [Fraction(float(x)) for x in theta.biases(1)]
    V = [Fraction(float(x)) for x in theta.weights(2)[0]]
    c = Fraction(float(theta.biases(2)[0]))
    breaks = [Fraction(t) for t in target.breaks]
    pieces = [tuple(Fraction(x) for x in p) + (Fraction(0),) * (2 - len(p)) for p in target.coeffs]
    lo_end, hi_end = Fraction(a), Fraction(b)
    kinks = [-bi / wi for wi, bi in zip(W, B) if wi != 0]

    mean = [Fraction(0)] * len(W)
    # per segment: the residual p + q x without the mean term, and the
    # segment's moments int 1, int x, int x^2
    linear = []
    for lo, hi in _segments(lo_end, hi_end, kinks + breaks):
        mid = (lo + hi) / 2
        active = [i for i, (wi, bi) in enumerate(zip(W, B)) if wi * mid + bi > 0]
        j = max(k for k in range(len(pieces)) if breaks[k] <= mid)
        f0, f1 = pieces[j]
        M = (hi - lo, (hi**2 - lo**2) / 2, (hi**3 - lo**3) / 3)
        for i in active:
            mean[i] += B[i] * M[0] + W[i] * M[1]
        p = sum((V[i] * B[i] for i in active), c - f0)
        q = sum((V[i] * W[i] for i in active), -f1)
        linear.append((p, q, M))

    shift = sum(v * m for v, m in zip(V, mean))
    risk = sum((p - shift) ** 2 * M[0] + 2 * (p - shift) * q * M[1] + q**2 * M[2] for p, q, M in linear)
    return risk, mean
