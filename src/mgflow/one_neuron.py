"""Shallow one-hidden-neuron network on [0, 1]: closed forms, circle-constrained
flow, and Lyapunov monitors.

State theta = (t1, t2, t3): hidden weight, hidden bias, output weight.  The
output bias is pinned to the target mean fbar, so with the centered readout

    L(theta) = int_0^1 ( t3 (max(t1 s + t2, 0) - m) + fbar - f(s) )^2 ds,
    m(theta) = int_0^1 max(t1 s + t2, 0) ds .

The constraint circle is t1^2 + t2^2 = 1.  The activity interval
I = {s in [0,1] : t1 s + t2 > 0} with breakpoint q = -t2/t1 classifies four
regimes:

    empty  I = {}                  full   I contains (0, 1)
    right  I = (q, 1], 0<q<1       left   I = [0, q), 0<q<1

Everything here is exact: targets are piecewise polynomials, so every risk and
gradient integral reduces to closed-form interval moments.  The tangent
gradient's angular components carry the factors (t2^2 s - t1 t2) and
(t1^2 - t1 t2 s), which are orthogonal to (t1, t2) identically in s, so the
flow field conserves t1^2 + t2^2 exactly even off the circle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dynamics import GAMMA_CAP, TrajectoryRecord, check_schedule, fixed_step, step_factor
from .quadrature import gauss_legendre, quiet
from .targets import PiecewisePolynomial

INV_SQRT2 = 2.0**-0.5
REGIME_TAGS = ("empty", "full", "right", "left")
_CIRCLE_TOL = 1e-8
_E_FULL_T1_CAP = 0.999  # conservation monitor needs log(1 - t1^2) well conditioned


def _intervals(t1, t2):
    """Activity-interval ends as one (2, ...) array [lo, hi] (lo = hi when
    empty), and q = -t2 / t1 (+-inf or nan where t1 = 0; the caller sets the error state)."""
    q = -t2 / t1
    c = np.minimum(np.maximum(q, 0.0), 1.0)
    pos, ends = t1 > 0.0, np.empty((2,) + np.shape(t1))
    ends[0] = np.where(pos, c, 0.0)
    ends[1] = np.where(t1 < 0.0, c, pos | ((t1 == 0.0) & (t2 > 0.0)))
    return ends, q


@quiet
def _regime_codes(t1, t2):
    """0 empty, 1 full, 2 right, 3 left; plus q with inf for constant rows.
    A row is partial exactly when 0 < q < 1; rows with a nan are empty."""
    ends, q = _intervals(t1, t2)
    q = np.where(t1 != 0.0, q, np.inf)
    return np.where((q > 0.0) & (q < 1.0), 3 - (t1 > 0.0), ends[1] > ends[0]), q


@dataclass(frozen=True)
class MonitorWindows:
    """Regime windows, scanned from the target, in which each Lyapunov
    monitor's hypotheses hold.

    eps_*_plain: largest eps <= 1/2 with f - fbar of one strict sign on the
    boundary window ([1-eps, 1] right, [0, eps] left); 0 when none exists.
    eps_*_band: largest eps with the tighter oscillation condition
    9 * osc < |min deviation| required by the monotone-Lyapunov monitors.
    Signs are sign(f(1) - fbar) and sign(f(0) - fbar); 0 means the endpoint
    value matches the mean and only the Lipschitz endpoint monitor applies.
    """

    fbar: float
    lipschitz: float
    right_sign: int
    eps_right_plain: float
    eps_right_band: float
    left_sign: int
    eps_left_plain: float
    eps_left_band: float


def scan_windows(f: PiecewisePolynomial, grid_n: int = 10001) -> MonitorWindows:
    """Grid-scan the target for the monitor windows (10^4 points by default)."""
    fbar = f.mean()
    s = np.linspace(0.0, 1.0, grid_n)
    v = f(s) - fbar
    h = s[1] - s[0]
    tol = 1e-12 * (1.0 + float(np.max(np.abs(v))))

    def one_side(dev):
        # dev runs from the boundary inward: dev[0] is the endpoint value
        endpoint = dev[0]
        sign = 0 if abs(endpoint) <= tol else (1 if endpoint > 0 else -1)
        if sign == 0:
            return 0, 0.0, 0.0
        w = sign * dev  # positive near the boundary
        running_min = np.minimum.accumulate(w)
        running_max = np.maximum.accumulate(w)
        # both conditions hold on a prefix: the running min only shrinks and
        # the running oscillation only grows with the window
        plain_ok = running_min > 0.0
        band_ok = plain_ok & (9.0 * (running_max - running_min) < running_min)
        half = (grid_n - 1) // 2

        def largest(mask):
            upto = mask[: half + 1]
            if not upto[0]:
                return 0.0
            k = half if upto.all() else int(np.argmin(upto)) - 1
            return max(0.0, (k - 1) * h)  # one-cell safety margin

        return sign, largest(plain_ok), largest(band_ok)

    right_sign, eps_rp, eps_rb = one_side(v[::-1])
    left_sign, eps_lp, eps_lb = one_side(v)
    return MonitorWindows(
        fbar=fbar,
        lipschitz=f.lipschitz_bound(),
        right_sign=right_sign,
        eps_right_plain=eps_rp,
        eps_right_band=eps_rb,
        left_sign=left_sign,
        eps_left_plain=eps_lp,
        eps_left_band=eps_lb,
    )


@dataclass(frozen=True)
class OneNeuronProblem:
    """Target bundled with the precomputed quantities the flow needs."""

    f: PiecewisePolynomial
    fbar: float
    centered_square: float  # int_0^1 (f - fbar)^2 ds

    @classmethod
    def from_target(cls, f: PiecewisePolynomial) -> "OneNeuronProblem":
        if not (f.breaks[0] == 0.0 and f.breaks[-1] == 1.0):
            raise ValueError("one-neuron targets must live on [0, 1]")
        fbar = f.mean()
        # per-piece Gauss rule: exact for the squared polynomial and, unlike
        # power-difference antiderivatives, stable for steep pieces
        x_ref, w_ref = gauss_legendre(7)
        sq = 0.0
        for j in range(len(f.coeffs)):
            lo, hi = f.breaks[j], f.breaks[j + 1]
            half = (hi - lo) / 2.0
            nodes = (lo + hi) / 2.0 + half * x_ref
            sq += half * float(w_ref @ (f(nodes) - fbar) ** 2)
        return cls(f=f, fbar=fbar, centered_square=sq)

    @functools.cached_property
    def windows(self) -> MonitorWindows:
        """The monitor windows, scanned on first use: only the monitors read them."""
        return scan_windows(self.f)


def as_problem(f: Union[PiecewisePolynomial, OneNeuronProblem]) -> OneNeuronProblem:
    return f if isinstance(f, OneNeuronProblem) else OneNeuronProblem.from_target(f)


def _one_pass(states: np.ndarray, problem: OneNeuronProblem, risk: bool = False):
    """Tangent gradient G, raw risk gradient R and, when `risk` is set, the
    risk (else None) at states of shape (..., 3), from one moments lookup.

    G = (t2 w, -t1 w, R2) with w = t2 R0 - t1 R1 is the projection of R times
    t1^2 + t2^2, orthogonal to (t1, t2) at every state.  On the circle it is
    the projected risk gradient; off it the same expressions keep exact
    tangency.
    """
    # work on component-first views (X[k], GT[k], RT[k] hold component k of
    # every state), so the (A, B) and (a, b) pairs share one operation each
    X, G, R = states.T, np.empty(states.shape), np.empty(states.shape)
    GT, RT, t1, t2, t3 = G.T, R.T, X[0], X[1], X[2]
    # the ends lie in the domain [0, 1] (or are nan), so no clip is needed
    M = problem.f.lookup_moments(_intervals(t1, t2)[0])  # P0, P1, P2, F0, F1
    m = t1 * M[1] + t2 * M[0]
    d = t2 - m
    AB = problem.fbar * M[:2] - M[3:]  # (A, B) = fbar (P0, P1) - (F0, F1)
    ab = t1 * M[2:0:-1] + d * M[1::-1]  # (a, b) = t1 (P2, P1) + d (P1, P0)
    # J3 = int_0^1 (max(t1 s + t2, 0) - m)^2 ds
    J3 = t1 * ab[0] + d * ab[1] + m * m * (1.0 - M[0])
    RT[:2] = R01 = 2.0 * t3 * (t3 * ab + AB[::-1])
    RT[2] = GT[2] = R2 = 2.0 * (t3 * J3 + t1 * AB[1] + t2 * AB[0])
    w = t2 * R01[0] - t1 * R01[1]
    GT[0] = t2 * w
    GT[1] = -t1 * w
    # L = t3^2 J3 + 2 t3 (t1 B + t2 A) + int (f - fbar)^2, in the states' layout
    L = (t3 * R2 - t3 * t3 * J3 + problem.centered_square).T if risk else None
    return G, R, L


@quiet
def risk_batch(states: np.ndarray, problem: OneNeuronProblem) -> np.ndarray:
    return _one_pass(np.asarray(states, dtype=float), problem, True)[2]


@quiet
def gradient_batch(states: np.ndarray, problem: OneNeuronProblem) -> np.ndarray:
    """Tangent gradient, vectorized over rows of (t1, t2, t3)."""
    return _one_pass(np.asarray(states, dtype=float), problem)[0]


def grad_1n(theta, f) -> np.ndarray:
    """Tangent gradient via the explicit closed forms; requires a point on
    the constraint circle (|t1^2 + t2^2 - 1| <= 1e-8)."""
    theta = np.asarray(theta, dtype=float)
    if abs(theta[0]) + abs(theta[1]) == 0.0:
        raise ValueError("gradient undefined at t1 = t2 = 0")
    g = theta[0] ** 2 + theta[1] ** 2
    if abs(g - 1.0) > _CIRCLE_TOL:
        raise ValueError(f"point is off the constraint circle: t1^2+t2^2 = {g}")
    return gradient_batch(theta, as_problem(f))


def closed_integrals(theta) -> dict:
    """Closed forms for m, int_I (max - m), int_0^1 (max - m)^2 in the
    breakpoint regimes.

    Left-regime first two use |t1| (the direct computation; the printed
    t1-signed variants are negative where the integrals are manifestly
    nonnegative).  Rejects full/empty regimes.
    """
    t1 = float(theta[0])
    code, q = _regime_codes(*np.asarray(theta, dtype=float)[:2])
    tag, q = REGIME_TAGS[int(code)], float(q)
    if tag == "right":
        return {
            "m": t1 / 2.0 * (1.0 - q) ** 2,
            "centered_first_moment": t1 / 2.0 * (1.0 - q) ** 2 * q,
            "centered_second_moment": t1**2 * (1.0 - q) ** 3 * (1.0 / 12.0 + q / 4.0),
        }
    if tag == "left":
        return {
            "m": abs(t1) / 2.0 * q**2,
            "centered_first_moment": abs(t1) / 2.0 * (1.0 - q) * q**2,
            "centered_second_moment": t1**2 * q**3 * (1.0 / 3.0 - q / 4.0),
        }
    raise ValueError(f"closed integrals need a breakpoint regime, got {tag!r}")


@quiet
def closed_gradient(theta, f) -> np.ndarray:
    """Fully closed gradient in the breakpoint regimes (circle points only).

    The angular polynomial factor in the left regime is
    q^3 (6 - 6q + 2q^2 - 3q^3)/12 with |t1|^3; the variant with all-positive
    signs fails a direct quadrature check.
    """
    theta = np.asarray(theta, dtype=float)
    g = theta[0] ** 2 + theta[1] ** 2
    if abs(g - 1.0) > _CIRCLE_TOL:
        raise ValueError("closed gradient formulas hold on the constraint circle")
    problem = as_problem(f)
    t1, t2, t3 = theta
    code, q = _regime_codes(t1, t2)
    tag, q = REGIME_TAGS[int(code)], float(q)
    A, B = (float(v) for v in problem.f.partial_moments(*_intervals(t1, t2)[0], problem.fbar))
    if tag == "right":
        J1 = t1 * t2**2 / 12.0 * (1.0 - q) ** 2 * (7.0 + 2.0 * q + 3.0 * q**2)
        J3 = t1**2 * (1.0 - q) ** 3 * (1.0 / 12.0 + q / 4.0)
    elif tag == "left":
        J1 = abs(t1) ** 3 / 12.0 * q**3 * (6.0 - 6.0 * q + 2.0 * q**2 - 3.0 * q**3)
        J3 = t1**2 * q**3 * (1.0 / 3.0 - q / 4.0)
    else:
        raise ValueError(f"closed gradient needs a breakpoint regime, got {tag!r}")
    # the tangent map of the raw gradient, with J1 = t2 K (t2 != 0 off the full/empty regimes)
    w = 2.0 * t3 * (t3 * J1 / t2 + t2 * B - t1 * A)
    return np.array([t2 * w, -t1 * w, 2.0 * (t3 * J3 + t1 * B + t2 * A)])


def affine_integral_bound_check(alpha: float, beta: float, interval) -> bool:
    """int_I (alpha x + beta)^2 dx >= alpha^2 len(I)^3 / 12 (rounding-guarded)."""
    c, d = float(interval[0]), float(interval[1])
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError("interval must be bounded")
    if d < c:
        c, d = d, c
    lhs = alpha**2 * (d**3 - c**3) / 3.0 + alpha * beta * (d**2 - c**2) + beta**2 * (d - c)
    rhs = alpha**2 / 12.0 * (d - c) ** 3
    return lhs >= rhs - 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@quiet
def lyapunov_values(states: np.ndarray):
    """(E_full, V_right, V_left) arrays; E_full is nan where |t1| >= 1."""
    states = np.asarray(states, dtype=float)
    t1, t3 = states[..., 0], states[..., 2]
    E = np.where(np.abs(t1) < 1.0, t3**2 + np.log(np.maximum(1.0 - t1**2, 1e-300)), np.nan)
    V_right = t3**2 - 0.625 * (t1 - INV_SQRT2) ** 2
    V_left = t3**2 + 0.625 * t1**2
    return E, V_right, V_left


@quiet
def applicability_masks(states: np.ndarray, problem: OneNeuronProblem) -> dict:
    """Per-state applicability of each monitored quantity's hypothesis set.

    theta3_sq     d/dt t3^2 <= 0 (boundary windows; endpoint-Lipschitz case
                  uses the threshold |t3| >= 4 * Lip).
    v_right       t3^2 - (5/8)(t1 - 1/sqrt2)^2 non-increasing; needs the
                  oscillation band plus the breakpoint conditions
                  5 t1^2 (1+q) q (2+q+q^2) / (8+4 sqrt(2(1+q^2))) >= 10/9 and
                  1/6 + q/2 > 5/8.
    v_left        t3^2 + (5/8) t1^2 non-increasing; needs the band plus
                  (5/4) t1^2 (2+q^2) > 20/9 and
                  -4/3 + q + (5/4) t1^2 (1+2q) < 0.
    conserved_full  t3^2 + ln(1 - t1^2) constant (full regime, |t1| capped for
                  conditioning).
    """
    states = np.asarray(states, dtype=float)
    t1, t3 = states[..., 0], states[..., 2]
    code, q = _regime_codes(t1, states[..., 1])
    right = code == 2
    left = code == 3
    qs = np.where(np.isfinite(q), q, 0.0)
    w = problem.windows

    def signed(mask_regime, sign, t3v):
        if sign > 0:
            return mask_regime & (t3v <= 0.0)
        if sign < 0:
            return mask_regime & (t3v >= 0.0)
        return np.zeros_like(mask_regime)

    t3sq = np.zeros(right.shape, dtype=bool)
    if w.right_sign != 0 and w.eps_right_plain > 0.0:
        t3sq |= signed(right & (qs >= 1.0 - w.eps_right_plain), w.right_sign, t3)
    if w.right_sign == 0 and w.lipschitz > 0.0:
        t3sq |= right & (qs >= 0.5) & (np.abs(t3) >= 4.0 * w.lipschitz)
    if w.left_sign != 0 and w.eps_left_plain > 0.0:
        t3sq |= signed(left & (qs <= w.eps_left_plain), w.left_sign, t3)
    if w.left_sign == 0 and w.lipschitz > 0.0:
        t3sq |= left & (qs <= 0.5) & (np.abs(t3) >= 4.0 * w.lipschitz)

    c1 = (
        5.0 * t1**2 * (1.0 + qs) * qs * (2.0 + qs + qs**2)
        / (8.0 + 4.0 * np.sqrt(2.0 * (1.0 + qs**2)))
        >= 10.0 / 9.0
    )
    c3 = (1.0 / 6.0 + qs / 2.0) > 0.625
    cA = 1.25 * t1**2 * (2.0 + qs**2) > 20.0 / 9.0
    cB = (-4.0 / 3.0 + qs + 1.25 * t1**2 * (1.0 + 2.0 * qs)) < 0.0

    v_right = np.zeros_like(t3sq)
    if w.right_sign != 0 and w.eps_right_band > 0.0:
        sgn = (t3 < 0.0) if w.right_sign > 0 else (t3 > 0.0)
        v_right = right & (qs >= 1.0 - w.eps_right_band) & c1 & c3 & sgn
    v_left = np.zeros_like(t3sq)
    if w.left_sign != 0 and w.eps_left_band > 0.0:
        sgn = (t3 > 0.0) if w.left_sign > 0 else (t3 < 0.0)
        v_left = left & (qs <= w.eps_left_band) & cA & cB & sgn

    conserved = (code == 1) & (np.abs(t1) <= _E_FULL_T1_CAP)
    return {"theta3_sq": t3sq, "v_right": v_right, "v_left": v_left, "conserved_full": conserved}


@dataclass
class OneNeuronConfig:
    t_end: float = 100.0
    step: float = 1e-2
    integrator: str = "rk4"
    renormalize: bool = True
    record_every: int = 1
    gamma: Union[float, str] = 1.0

    def __post_init__(self):
        check_schedule(self.t_end, self.step, self.integrator, self.gamma, self.record_every)


def _retract_to_circle(Y):
    """Scale each row's (t1, t2) to unit norm in place; rows with t1 = t2 = 0
    stay.  The circle flow has no hidden rows, so it reports no zero rows."""
    nrm = np.hypot(Y[:, 0], Y[:, 1])
    Y[:, :2] /= np.where(nrm > 0.0, nrm, 1.0)[:, None]
    return Y, 0


def flow_batch(theta0, f, cfg: OneNeuronConfig) -> TrajectoryRecord:
    """Integrate the circle flow for a batch of initial states.

    Returns the batch record: `states` is (R, B, 3) and `psi_max_dev` holds
    |t1^2 + t2^2 - 1|.  Each RK4 stage is one moments pass; the pass at a
    recorded state (its first stage) also gives the recorded risk, so no
    state is evaluated twice.  Trajectories tripping the divergence guard
    are frozen at their last valid state and marked aborted; the rest
    continue, and the run ends early once every trajectory has aborted.
    """
    problem = as_problem(f)
    Y = np.atleast_2d(np.asarray(theta0, dtype=float))
    if Y.shape[1] != 3:
        raise ValueError("states must have three components")

    def field(states, record):
        G, R, L = _one_pass(states, problem, record)
        return G, step_factor(R, G, cfg.gamma), L

    retract = _retract_to_circle if cfg.renormalize else (lambda states: (states, 0))
    n_steps = int(round(cfg.t_end / cfg.step))
    record, risks = fixed_step(field, Y, cfg.step, n_steps, cfg.integrator == "rk4", retract, cfg.record_every)
    record.risk = np.array(risks)
    record.psi_max_dev = np.abs(record.states[..., 0] ** 2 + record.states[..., 1] ** 2 - 1.0)
    return record


def monitor_report(batch: TrajectoryRecord, problem: OneNeuronProblem,
                   slack: float = 1e-6, conservation_rate: Optional[float] = None) -> dict:
    """Count monitor violations along recorded steps.

    A pair of consecutive records is checked when the monitor's hypotheses
    hold at both endpoints; `slack` is the allowed per-step increase.
    """
    E, Vr, Vl = lyapunov_values(batch.states)
    values = {"theta3_sq": batch.states[..., 2] ** 2, "v_right": Vr, "v_left": Vl}
    masks = applicability_masks(batch.states, problem)
    report = {}
    for name, vals in values.items():
        both = masks[name][:-1] & masks[name][1:]
        inc = vals[1:] - vals[:-1]
        viol = both & (inc > slack)
        report[name] = {
            "checked_pairs": int(both.sum()),
            "violations": int(viol.sum()),
            "worst_increase": float(np.max(inc[both])) if both.any() else 0.0,
        }
    if conservation_rate is not None:
        both = masks["conserved_full"][:-1] & masks["conserved_full"][1:]
        dt = np.diff(batch.times)[:, None]
        drift = np.abs(E[1:] - E[:-1])
        viol = both & (drift > conservation_rate * dt)
        report["conserved_full"] = {
            "checked_pairs": int(both.sum()),
            "violations": int(viol.sum()),
            "worst_rate": float(np.max((drift / dt)[both])) if both.any() else 0.0,
        }
    return report


def random_circle_states(rng: np.random.Generator, n: int, t3_scale: float = 1.0) -> np.ndarray:
    """Seeded initial states on the constraint circle."""
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    out = np.empty((n, 3))
    out[:, 0] = np.cos(angle)
    out[:, 1] = np.sin(angle)
    out[:, 2] = t3_scale * rng.standard_normal(n)
    return out


def boundedness_experiment(f, init_seed: int, cfg: OneNeuronConfig,
                           n_trajectories: int = 20, lyapunov_slack: float = 1e-5) -> dict:
    """Long-horizon evidence run: integrate many seeded circle trajectories and
    report sup-norms, regime occupancy, and Lyapunov monitor violations.

    A plateauing running sup-norm (ratio of the full-horizon sup to the sup
    over the first 90%) is reported as boundedness evidence, not proof.
    """
    problem = as_problem(f)
    rng = np.random.default_rng(np.random.SeedSequence(init_seed))
    inits = random_circle_states(rng, n_trajectories)
    batch = flow_batch(inits, problem, cfg)

    norms = np.linalg.norm(batch.states, axis=-1)  # (R, B)
    sup_norms = norms.max(axis=0)
    cut = np.searchsorted(batch.times, 0.9 * batch.times[-1], side="right")
    early_sup = norms[:max(cut, 1)].max(axis=0)
    code, _ = _regime_codes(batch.states[..., 0], batch.states[..., 1])
    occupancy = {tag: float(np.mean(code == i)) for i, tag in enumerate(REGIME_TAGS)}
    monitors = monitor_report(batch, problem, slack=lyapunov_slack)

    return {
        "n_trajectories": int(n_trajectories),
        "sup_norm": float(sup_norms.max()),
        "sup_norms": [float(v) for v in sup_norms],
        "plateau_ratio_max": float(np.max(sup_norms / early_sup)),
        "regime_occupancy": occupancy,
        "lyapunov_violations": {k: v["violations"] for k, v in monitors.items()},
        "monitor_detail": monitors,
        "aborted": int(batch.aborted.sum()),
    }
