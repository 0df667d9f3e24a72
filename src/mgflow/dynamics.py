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
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .gradients import generalized_gradient  # noqa: F401  (bench/tracing.py wraps dynamics.generalized_gradient)
from .gradients import risk_and_gradient
from .manifold import (
    max_constraint_deviation,
    min_subvector_norm,  # noqa: F401  (bench/tracing.py wraps dynamics.min_subvector_norm)
    project_gradient,
    renormalize,
    rescale_full,
    zero_rows,
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


_COLUMNS = ("times", "states", "risk", "psi_max_dev", "grad_norm")  # one entry per recorded row


@dataclass
class TrajectoryRecord:
    """Recorded rows of one run, or of a batch run in lockstep: every column
    has a leading row axis R, and a batch adds a trajectory axis B after it.
    `stopped` holds the step at which each trajectory froze (0 if never) and
    `termination` how each one ended: "completed", "nonfinite" (frozen on a
    non-finite state) or "divergence_guard" (frozen on a component above
    DIVERGENCE_GUARD); a single run's record holds one of each.
    `degenerate_events` counts the zero hidden rows (`manifold.zero_rows`) of
    the rescaled start, which warns if it has one, and of every retracted state."""

    times: np.ndarray
    states: np.ndarray
    risk: np.ndarray
    psi_max_dev: np.ndarray
    grad_norm: np.ndarray
    stopped: np.ndarray
    termination: Union[str, np.ndarray] = "completed"
    degenerate_events: int = 0

    @property
    def aborted(self):
        return self.stopped > 0

    def row(self, b: int) -> "TrajectoryRecord":
        """Trajectory b of a batch, as a record of its own."""
        columns = {name: getattr(self, name)[:, b] for name in _COLUMNS[1:]}
        return replace(self, stopped=self.stopped[b], termination=str(self.termination[b]), **columns)

    def close_if_stationary(self, t_end: float) -> None:
        """Cut at the first recorded |G| <= STATIONARY_TOL before the last row
        and close with that state at t_end: the exact flow is (approximately)
        constant from there on."""
        hits = np.flatnonzero(self.grad_norm[:-1] <= STATIONARY_TOL)
        if not hits.size:
            return
        keep = np.r_[: hits[0] + 1, hits[0]]
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        self.times[-1] = t_end
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


def fixed_step(field, Y, h, n_steps, rk4, retract, record_every):
    """Advance a (B, P) batch of rows in lockstep through n_steps explicit
    Euler or RK4 steps of dY/dt = -gamma * G, retracting every new state.

    `field(Y, n, record)` returns (G, gamma, diagnostics) at step n; gamma is
    one number or one per row, and diagnostics, needed only when `record` is
    true, is passed through.  `retract(Y)` returns the retracted rows and how
    many zero hidden rows they hold; the record's `degenerate_events` sums
    those counts over the run.  A row is frozen at its last valid state once
    its retracted state is non-finite or exceeds DIVERGENCE_GUARD; the run
    ends when no row is left.

    Returns the batch record of the rows at step 0, every `record_every`-th
    step, the last step, and the step that froze the last row, and beside it
    their diagnostics.  |G| comes from the state's first RK4 stage, so
    recording costs no extra gradient.  `risk` and `psi_max_dev` are left nan
    for the caller.  Each row's termination names why it froze: "nonfinite"
    for a non-finite state, "divergence_guard" for one over the guard.
    """
    Y = np.array(Y, dtype=float)
    stopped = np.zeros(len(Y), dtype=int)
    termination = np.full(len(Y), "completed", dtype="<U16")
    rows, events = [], 0

    def rate(Z, n, record=False):
        G, gamma, diagnosed = field(Z, n, record)
        return -np.asarray(gamma)[..., None] * G, G, diagnosed

    for n in range(n_steps + 1):
        done = n == n_steps or stopped.all()
        record = done or n % record_every == 0
        k1, G, diagnosed = rate(Y, n, record)
        if record:
            rows.append((n, Y, np.linalg.norm(G, axis=-1), diagnosed))
        if done:
            break
        if rk4:
            k2 = rate(Y + 0.5 * h * k1, n)[0]
            k3 = rate(Y + 0.5 * h * k2, n)[0]
            k4 = rate(Y + h * k3, n)[0]
            Y_new, zero_rows = retract(Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        else:
            Y_new, zero_rows = retract(Y + h * k1)
        events += zero_rows
        frozen = ~(np.abs(Y_new).max(axis=1) <= DIVERGENCE_GUARD) & (stopped == 0)
        if frozen.any():
            stopped[frozen] = n + 1
            termination[frozen] = np.where(np.isfinite(Y_new[frozen]).all(axis=1),
                                           "divergence_guard", "nonfinite")
        Y = np.where(stopped[:, None] == 0, Y_new, Y) if stopped.any() else Y_new

    steps, states, grad_norm, diagnostics = zip(*rows)
    unset = np.full((len(rows), len(Y)), np.nan)
    return TrajectoryRecord(np.array(steps) * h, np.array(states), unset, unset.copy(),
                            np.array(grad_norm), stopped, termination, events), diagnostics


def _network_run(xi, measure, f, cfg: FlowConfig, n_steps: int, gamma_at) -> TrajectoryRecord:
    """Run `fixed_step` on one network from the rescaled xi; returns its record."""
    arch = xi.arch

    def field(Y, n, diagnose):
        theta = ParamVector(arch, Y[0])
        risk_val, raw = risk_and_gradient(theta, measure, f, r=cfg.r, resolution=cfg.resolution)
        proj = project_gradient(theta, raw)
        diagnostics = (risk_val, max_constraint_deviation(theta)) if diagnose else None
        return proj[None, :], step_factor(raw, proj, gamma_at(n)), diagnostics

    def retract(Y):
        theta = ParamVector(arch, Y[0])
        if cfg.reproject:
            theta = renormalize(theta)
        return theta.values[None, :], zero_rows(theta)

    start = rescale_full(xi)
    degenerate = zero_rows(start)
    if degenerate:
        warnings.warn(
            "initial point has a zero hidden subvector: constraint invariance "
            "is not guaranteed from this start",
            RuntimeWarning,
        )
    batch, diagnostics = fixed_step(field, start.values[None, :], cfg.step, n_steps,
                                    cfg.integrator == "rk4", retract, cfg.record_every)
    record = batch.row(0)
    record.risk, record.psi_max_dev = np.array(diagnostics).T
    record.degenerate_events += degenerate
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
    record = _network_run(xi, measure, f, cfg, int(round(cfg.t_end / cfg.step)), lambda n: cfg.gamma)
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
