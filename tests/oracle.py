"""Exact references for tests: rational arithmetic for shallow exact-ReLU
networks and the one-neuron flow, and the one neuron's closed gradient.

For a (1, n, 1) network with exact ReLU on the uniform measure on [a, b] and
a piecewise-linear target, every integrand is a polynomial between the hidden
kinks -b_i / w_i and the target's breaks.  `shallow_exact` walks those
segments in `fractions.Fraction` arithmetic, from the exact values of the
float parameters and target coefficients, and integrates each polynomial
piece in closed form: no quadrature rule and no rounding.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from mgflow import abs_offset_target, piecewise_linear_target
from mgflow import one_neuron as on
from mgflow.quadrature import quiet

# Targets of the oracle tests: |s - c|, and continuous 4-piece linear targets
# through 5 knots with 3 distinct interior knot locations, all on [0, 1].
LINEAR_TARGETS = st.one_of(
    st.floats(0.0, 1.0).map(abs_offset_target),
    st.tuples(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3, unique=True),
              st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5)).map(
        lambda kv: piecewise_linear_target([0.0, *sorted(kv[0]), 1.0], kv[1])),
)


def _segments(a: Fraction, b: Fraction, points) -> list:
    """Consecutive pairs of a, the distinct points strictly inside (a, b), b."""
    edges = [a, *sorted({p for p in points if a < p < b}), b]
    return list(zip(edges, edges[1:]))


def _linear_pieces(target) -> tuple:
    """The breaks and the (f0, f1) of each piece of a piecewise-linear target, as Fractions."""
    breaks = [Fraction(t) for t in target.breaks]
    pieces = [tuple(Fraction(x) for x in p) + (Fraction(0),) * (2 - len(p)) for p in target.coeffs]
    return breaks, pieces


def _piece_at(breaks, pieces, x):
    return pieces[max(k for k in range(len(pieces)) if breaks[k] <= x)]


def _shallow_segments(theta, target, a, b) -> tuple:
    """(segments, hidden mean, (W, B, V)): per segment between the kinks and
    the target's breaks, its active neurons, the residual p + q x without the
    mean term and its moments int 1, int x, int x^2; and the parameters."""
    W = [Fraction(float(x)) for x in theta.weights(1)[:, 0]]
    B = [Fraction(float(x)) for x in theta.biases(1)]
    V = [Fraction(float(x)) for x in theta.weights(2)[0]]
    c = Fraction(float(theta.biases(2)[0]))
    breaks, pieces = _linear_pieces(target)
    kinks = [-bi / wi for wi, bi in zip(W, B) if wi != 0]

    mean = [Fraction(0)] * len(W)
    segments = []
    for lo, hi in _segments(Fraction(a), Fraction(b), kinks + breaks):
        mid = (lo + hi) / 2
        active = [i for i, (wi, bi) in enumerate(zip(W, B)) if wi * mid + bi > 0]
        f0, f1 = _piece_at(breaks, pieces, mid)
        M = (hi - lo, (hi**2 - lo**2) / 2, (hi**3 - lo**3) / 3)
        for i in active:
            mean[i] += B[i] * M[0] + W[i] * M[1]
        p = sum((V[i] * B[i] for i in active), c - f0)
        q = sum((V[i] * W[i] for i in active), -f1)
        segments.append((active, p, q, M))
    return segments, mean, (W, B, V)


def shallow_exact(theta, target, a: float = 0.0, b: float = 1.0):
    """(risk, hidden mean) of the exact-ReLU (1, n, 1) network `theta` against
    the piecewise-linear `target` (a `PiecewisePolynomial` of degree <= 1 on
    [a, b]), on the uniform measure on [a, b], as Fractions.

    The output is v . (h(x) - m) + c with h_i(x) = max(w_i x + b_i, 0) and
    m = int_a^b h dx; the risk is int_a^b (output - target)^2 dx.
    """
    segments, mean, (_, _, V) = _shallow_segments(theta, target, a, b)
    shift = sum(v * m for v, m in zip(V, mean))
    risk = sum((p - shift) ** 2 * M[0] + 2 * (p - shift) * q * M[1] + q**2 * M[2] for _, p, q, M in segments)
    return risk, mean


def shallow_exact_gradient(theta, target, a: float = 0.0, b: float = 1.0) -> list:
    """The risk gradient of `shallow_exact`, in the flat layout
    (w_1..w_n, b_1..b_n, v_1..v_n, c), as Fractions.

    With the residual e = output - target and ebar = int e dx:
    d/dc = 2 ebar, d/dv_i = 2 int e (h_i - m_i), and, since h_i is continuous
    at its kink, d/dw_i = 2 v_i int (e - ebar) 1_i x and d/db_i = 2 v_i int (e - ebar) 1_i,
    with 1_i the indicator of w_i x + b_i > 0 (ebar carries dm_i/dw_i and dm_i/db_i).
    """
    segments, mean, (W, B, V) = _shallow_segments(theta, target, a, b)
    shift = sum(v * m for v, m in zip(V, mean))
    n = len(V)
    ebar = sum((p - shift) * M[0] + q * M[1] for _, p, q, M in segments)
    gw, gb, gv = [Fraction(0)] * n, [Fraction(0)] * n, [-m * ebar for m in mean]
    for active, p, q, M in segments:
        e0 = p - shift  # e = e0 + q x on the segment
        for i in active:
            gw[i] += (e0 - ebar) * M[1] + q * M[2]
            gb[i] += (e0 - ebar) * M[0] + q * M[1]
            gv[i] += e0 * (B[i] * M[0] + W[i] * M[1]) + q * (B[i] * M[1] + W[i] * M[2])
    return [2 * v * g for v, g in zip(V, gw)] + [2 * v * g for v, g in zip(V, gb)] + [2 * g for g in gv] + [2 * ebar]


def one_neuron_exact(theta, target) -> dict:
    """The one-neuron quantities at the float state theta = (t1, t2, t3)
    against the piecewise-linear `target` on [0, 1], as Fractions: "G", "R"
    and "risk" as `one_neuron._one_pass` forms them, and "m",
    "centered_first_moment" and "centered_second_moment" as
    `one_neuron.closed_integrals` names them.

    With h = max(t1 s + t2, 0), m = int_0^1 h and the residual
    e = t3 (h - m) + fbar - f: risk = int e^2, R = (dL/dt1, dL/dt2, dL/dt3)
    = 2 (t3 int_I e s, t3 int_I e, int e (h - m)) (e has zero mean, and the
    integrand is continuous at the kink q = -t2 / t1, so neither m's
    derivative nor the kink's motion adds a term), and
    G = (t2 w, -t1 w, R[2]) with w = t2 R[0] - t1 R[1].
    """
    t1, t2, t3 = (Fraction(float(x)) for x in theta)
    breaks, pieces = _linear_pieces(target)
    segments = []
    for lo, hi in _segments(Fraction(0), Fraction(1), ([-t2 / t1] if t1 else []) + breaks):
        mid = (lo + hi) / 2
        active = t1 * mid + t2 > 0
        h = (t2, t1) if active else (Fraction(0), Fraction(0))  # h = h0 + h1 s
        M = (hi - lo, (hi**2 - lo**2) / 2, (hi**3 - lo**3) / 3)
        segments.append((active, h, _piece_at(breaks, pieces, mid), M))
    fbar = sum(f0 * M[0] + f1 * M[1] for _, _, (f0, f1), M in segments)
    m = sum(h0 * M[0] + h1 * M[1] for _, (h0, h1), _, M in segments)
    out = dict.fromkeys(("risk", "R0", "R1", "R2", "centered_first_moment", "centered_second_moment"), Fraction(0))
    for active, (h0, h1), (f0, f1), M in segments:
        c0 = h0 - m  # h - m = c0 + h1 s, and e = e0 + e1 s
        e0, e1 = t3 * c0 + fbar - f0, t3 * h1 - f1
        if active:
            out["R0"] += 2 * t3 * (e0 * M[1] + e1 * M[2])
            out["R1"] += 2 * t3 * (e0 * M[0] + e1 * M[1])
            out["centered_first_moment"] += c0 * M[0] + h1 * M[1]
        out["R2"] += 2 * (e0 * c0 * M[0] + (e0 * h1 + e1 * c0) * M[1] + e1 * h1 * M[2])
        out["risk"] += e0 * e0 * M[0] + 2 * e0 * e1 * M[1] + e1 * e1 * M[2]
        out["centered_second_moment"] += c0 * c0 * M[0] + 2 * c0 * h1 * M[1] + h1 * h1 * M[2]
    R = (out.pop("R0"), out.pop("R1"), out.pop("R2"))
    w = t2 * R[0] - t1 * R[1]
    return {**out, "m": m, "R": R, "G": (t2 * w, -t1 * w, R[2])}


@quiet
def closed_gradient(theta, f) -> np.ndarray:
    """Fully closed gradient in the breakpoint regimes (circle points only).

    The angular polynomial factor in the left regime is
    q^3 (6 - 6q + 2q^2 - 3q^3)/12 with |t1|^3; the variant with all-positive
    signs fails a direct quadrature check.
    """
    theta = np.asarray(theta, dtype=float)
    g = theta[0] ** 2 + theta[1] ** 2
    if abs(g - 1.0) > on._CIRCLE_TOL:
        raise ValueError("closed gradient formulas hold on the constraint circle")
    problem = on.as_problem(f)
    J3 = on.closed_integrals(theta)["centered_second_moment"]  # raises outside the breakpoint regimes
    t1, t2, t3 = theta
    code, q = on._regime_codes(t1, t2)
    tag, q = on.REGIME_TAGS[int(code)], float(q)
    A, B = (float(v) for v in problem.f.partial_moments(*on._intervals(t1, t2)[0], problem.fbar))
    if tag == "right":
        J1 = t1 * t2**2 / 12.0 * (1.0 - q) ** 2 * (7.0 + 2.0 * q + 3.0 * q**2)
    else:
        J1 = abs(t1) ** 3 / 12.0 * q**3 * (6.0 - 6.0 * q + 2.0 * q**2 - 3.0 * q**3)
    # the tangent map of the raw gradient, with J1 = t2 K (t2 != 0 off the full/empty regimes)
    w = 2.0 * t3 * (t3 * J1 / t2 + t2 * B - t1 * A)
    return np.array([t2 * w, -t1 * w, 2.0 * (t3 * J3 + t1 * B + t2 * A)])
