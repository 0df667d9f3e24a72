"""Time integration of the projected gradient flow and the normalized
gradient descent iteration.

The flow starts from the cascade-rescaled initial point and follows
d theta/dt = -gamma(t) * G(theta), where G projects the risk gradient onto
the tangent space of the unit-norm constraint set.  Integration is fixed-step
explicit (Euler or RK4) on purpose: the constraint invariance is exact in
continuous time, and the tests quantify the discretization drift rather than
assume it away.  Renormalizing the hidden subvectors after each step (a
retraction) is the default policy and can be disabled to measure drift.

All three dynamics (this flow, normalized descent as Euler with h = 1, and the
one-neuron circle flow) run through `fixed_step`: step against -gamma * G,
then retract.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .gradients import generalized_gradient, risk_and_gradient
from .manifold import (
    max_constraint_deviation,
    min_subvector_norm,
    project_gradient,
    renormalize,
    rescale_full,
)
from .network import risk  # noqa: F401  (bench/tracing.py wraps dynamics.risk)
from .params import ParamVector
from .quadrature import InputMeasure
from .smoothing import INF
from .targets import TargetFunction

STATIONARY_TOL = 1e-12
DIVERGENCE_GUARD = 1e12
GAMMA_CAP = 1e6


def check_schedule(t_end, step, integrator, gamma, record_every, error=ValueError) -> None:
    """Validate a fixed-step schedule; raises `error` naming the offending field."""

    def bad(name, why):
        raise error(f"config field '{name}': {why}")

    if not t_end > 0:
        bad("t_end", "must be positive")
    if not 0 < step <= t_end:
        bad("step", "must satisfy 0 < step <= t_end")
    if integrator not in ("euler", "rk4"):
        bad("integrator", f"must be euler|rk4, got {integrator!r}")
    if isinstance(gamma, str):
        if gamma != "rescaled":
            bad("gamma", "must be a nonnegative number or 'rescaled'")
    elif not float(gamma) >= 0:
        bad("gamma", "must be nonnegative")
    if record_every < 1:
        bad("record_every", "must be >= 1")


@dataclass
class FlowConfig:
    t_end: float = 1.0
    step: float = 1e-3
    integrator: str = "rk4"
    reproject: bool = True
    gamma: Union[float, str] = 1.0  # constant factor, or "rescaled"
    record_every: int = 1
    r: float = INF
    resolution: Optional[int] = None

    def __post_init__(self):
        check_schedule(self.t_end, self.step, self.integrator, self.gamma, self.record_every)


@dataclass
class TrajectoryRecord:
    """Recorded states and per-state diagnostics of one run."""

    times: list[float] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)
    risk: list[float] = field(default_factory=list)
    psi_max_dev: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    extra: dict[str, list] = field(default_factory=dict)
    tags: Optional[list[str]] = None
    termination: str = "completed"
    degenerate_events: int = 0

    def append(self, t, state, risk_val, psi_dev, gnorm):
        self.times.append(float(t))
        self.states.append(np.array(state, dtype=float))
        self.risk.append(float(risk_val))
        self.psi_max_dev.append(float(psi_dev))
        self.grad_norm.append(float(gnorm))

    def validate(self):
        n = len(self.times)
        assert n == len(self.states) == len(self.risk) == len(self.psi_max_dev) == len(self.grad_norm)
        assert all(t1 > t0 for t0, t1 in zip(self.times, self.times[1:]))
        for channel in self.extra.values():
            assert len(channel) == n

    def close_if_stationary(self, t_end: float) -> None:
        """Cut at the first recorded |G| <= STATIONARY_TOL before the last row
        and close with that state at t_end: the exact flow is (approximately)
        constant from there on."""
        hits = [j for j, g in enumerate(self.grad_norm[:-1]) if g <= STATIONARY_TOL]
        if not hits:
            return
        channels = [self.times, self.states, self.risk, self.psi_max_dev, self.grad_norm]
        channels += list(self.extra.values()) + ([self.tags] if self.tags is not None else [])
        for channel in channels:
            del channel[hits[0] + 1:]
            channel.append(channel[-1])
        self.times[-1] = float(t_end)
        self.termination = "stationary"

    @property
    def sup_norm(self) -> float:
        return max(float(np.linalg.norm(s)) for s in self.states)


def step_factor(raw, proj, gamma):
    """The step factor per row: a number passes through, and "rescaled" gives
    |raw|^2 / |proj|^2, capped at GAMMA_CAP and 0 where proj vanishes."""
    if not isinstance(gamma, str):
        return float(gamma)
    raw2 = np.sum(raw**2, axis=-1)
    g2 = np.sum(proj**2, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g2 > 0.0, np.minimum(raw2 / g2, GAMMA_CAP), 0.0)


def rescaled_gamma(
    theta: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    r=INF,
    resolution: Optional[int] = None,
) -> float:
    """Time-rescaling factor |raw|^2 / |G|^2 (capped at GAMMA_CAP) making the
    risk decay at the unconstrained rate.  Raises when G vanishes (stationary
    on the manifold)."""
    raw = generalized_gradient(theta, measure, f, r=r, resolution=resolution)
    gamma = float(step_factor(raw, project_gradient(theta, raw), "rescaled"))
    if gamma == 0.0:
        raise ZeroDivisionError("projected gradient vanishes: stationary on the manifold")
    return gamma


def fixed_step(field, Y, h, n_steps, rk4, retract, record_every):
    """Advance a (B, P) batch of rows in lockstep through n_steps explicit
    Euler or RK4 steps of dY/dt = -gamma * G, retracting every new state.

    `field(Y, n, record)` returns (G, gamma, diagnostics) at step n; gamma is
    one number or one per row, and diagnostics, needed only when `record` is
    true, is passed through.  A row is frozen at its last valid state once
    its retracted state is non-finite or exceeds DIVERGENCE_GUARD; the run
    ends when no row is left.

    Yields (n, Y, |G| per row, diagnostics, stopped) at step 0, every
    `record_every`-th step, the last step, and the step that froze the last
    row; `stopped` holds the step at which each row froze (0 while it runs).
    |G| comes from the state's first RK4 stage, so recording costs no extra
    gradient.  Yielded arrays are never modified afterwards.
    """
    Y = np.array(Y, dtype=float)
    stopped = np.zeros(len(Y), dtype=int)

    def rate(Z, n, record=False):
        G, gamma, diagnostics = field(Z, n, record)
        return -np.asarray(gamma)[..., None] * G, G, diagnostics

    for n in range(n_steps + 1):
        done = n == n_steps or stopped.all()
        record = done or n % record_every == 0
        k1, G, diagnostics = rate(Y, n, record)
        if record:
            yield n, Y, np.linalg.norm(G, axis=-1), diagnostics, stopped.copy()
        if done:
            return
        if rk4:
            k2 = rate(Y + 0.5 * h * k1, n)[0]
            k3 = rate(Y + 0.5 * h * k2, n)[0]
            k4 = rate(Y + h * k3, n)[0]
            Y_new = retract(Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        else:
            Y_new = retract(Y + h * k1)
        frozen = ~(np.max(np.abs(Y_new), axis=1) <= DIVERGENCE_GUARD) & (stopped == 0)
        stopped[frozen] = n + 1
        Y = np.where(stopped[:, None] == 0, Y_new, Y)


def _network_run(xi, measure, f, cfg: FlowConfig, n_steps: int, gamma_at) -> TrajectoryRecord:
    """Run `fixed_step` on one network from the rescaled xi and record its rows."""
    arch = xi.arch
    record = TrajectoryRecord()
    nonfinite = False

    def field_(Y, n, diagnose):
        theta = ParamVector(arch, Y[0])
        risk_val, raw = risk_and_gradient(theta, measure, f, r=cfg.r, resolution=cfg.resolution)
        proj = project_gradient(theta, raw)
        diagnostics = (risk_val, max_constraint_deviation(theta)) if diagnose else None
        return proj[None, :], step_factor(raw, proj, gamma_at(n)), diagnostics

    def retract(Y):
        nonlocal nonfinite
        theta = ParamVector(arch, Y[0])
        if cfg.reproject:
            theta = renormalize(theta)
        hidden = [theta.values[idx] for idx in arch.subvector_rows[:-1]]
        # min_subvector_norm(theta) == 0 without the norms: a row's norm is 0
        # exactly when every entry is, and a non-finite row makes the min nan
        if all(np.isfinite(V).all() for V in hidden) and not all(V.any(axis=1).all() for V in hidden):
            record.degenerate_events += 1
        nonfinite = not np.all(np.isfinite(theta.values))
        return theta.values[None, :]

    Y0 = rescale_full(xi).values[None, :]
    steps = fixed_step(field_, Y0, cfg.step, n_steps, cfg.integrator == "rk4", retract, cfg.record_every)
    for n, Y, gnorm, (risk_val, dev), stopped in steps:
        record.append(n * cfg.step, Y[0], risk_val, dev, gnorm[0])
    if stopped[0]:
        # the run ended on the first rejected state, so `nonfinite` describes it
        record.termination = "nonfinite" if nonfinite else "divergence_guard"
    return record


def integrate_flow(
    xi: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    cfg: FlowConfig,
) -> TrajectoryRecord:
    """Integrate the projected flow from the rescaled initial point.

    Early termination: 'stationary' when a recorded |G| falls below 1e-12,
    'nonfinite' or 'divergence_guard' when a step leaves non-finite values or
    a component above 1e12; the record then ends with the last valid state.
    """
    degenerate = min_subvector_norm(xi) == 0.0
    if degenerate:
        warnings.warn(
            "initial point has a zero hidden subvector: constraint invariance "
            "is not guaranteed from this start",
            RuntimeWarning,
        )
    record = _network_run(xi, measure, f, cfg, int(round(cfg.t_end / cfg.step)), lambda n: cfg.gamma)
    record.degenerate_events += degenerate
    record.close_if_stationary(cfg.t_end)
    return record


def gd_run(
    xi: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    steps: int,
    gammas,
    r=INF,
    resolution: Optional[int] = None,
    record_every: int = 1,
) -> TrajectoryRecord:
    """Normalized gradient descent: step against G, then renormalize.

    `gammas` is a constant, a per-step sequence, or "rescaled".
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if isinstance(gammas, str) and gammas != "rescaled":
        raise ValueError(f"gammas must be a number, a sequence, or 'rescaled', got {gammas!r}")
    scheduled = not isinstance(gammas, str) and np.ndim(gammas) == 1
    if scheduled and len(gammas) < steps:
        raise ValueError(f"gamma schedule has {len(gammas)} entries for {steps} steps")

    def gamma_at(n):
        if not scheduled:
            return gammas
        return gammas[n] if n < steps else 0.0  # the last state takes no step

    cfg = FlowConfig(t_end=max(steps, 1), step=1.0, integrator="euler", record_every=record_every,
                     r=r, resolution=resolution)
    return _network_run(xi, measure, f, cfg, steps, gamma_at)
