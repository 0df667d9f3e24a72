"""Time integration of the projected gradient flow and the normalized
gradient descent iteration.

The flow starts from the cascade-rescaled initial point and follows
d theta/dt = -gamma * G(theta), where gamma is a constant or the rescaled
factor (`step_factor`) and G projects the risk gradient onto
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

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .gradients import _flat, _risk_and_rows
from .gradients import generalized_gradient  # noqa: F401  (bench/tracing.py wraps dynamics.generalized_gradient)
from .manifold import _max_deviation, _retract, _tangent_rows, rescale_full, zero_rows
from .manifold import (  # noqa: F401  (bench/tracing.py wraps these dynamics.* names)
    max_constraint_deviation,
    min_subvector_norm,
    project_gradient,
    renormalize,
)
from .network import _NodePlan
from .network import risk  # noqa: F401  (bench/tracing.py wraps dynamics.risk)
from .params import ParamVector, _number
from .quadrature import InputMeasure, QuadratureError, quiet
from .smoothing import INF
from .targets import TargetFunction

STATIONARY_TOL = 1e-12
DIVERGENCE_GUARD = 1e12
GAMMA_CAP = 1e6


def check_schedule(t_end, step, integrator, gamma, record_every, error=ValueError) -> None:
    """Validate a fixed-step schedule; raises `error` naming the offending field.
    All three dynamics take this one gamma rule: a nonnegative number or "rescaled"."""

    def bad(name, why):
        raise error(f"config field '{name}': {why}")

    if not (_number(t_end) and 0 < t_end < np.inf):
        bad("t_end", f"must be a positive finite number, got {t_end!r}")
    if not (_number(step) and 0 < step <= t_end and t_end / step < np.inf):
        bad("step", f"must be a number with 0 < step <= t_end and a finite t_end / step, got {step!r}")
    if integrator not in ("euler", "rk4"):
        bad("integrator", f"must be euler|rk4, got {integrator!r}")
    rescaled = isinstance(gamma, str) and gamma == "rescaled"
    if not (rescaled or _number(gamma) and gamma >= 0):
        bad("gamma", f"must be a nonnegative number or 'rescaled', got {gamma!r}")
    if not (_number(record_every, numbers.Integral) and record_every >= 1):
        bad("record_every", f"must be an integer >= 1, got {record_every!r}")


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
        """The largest Euclidean norm of a recorded state; nan if any state
        holds a nan.  `np.vecdot` runs the kernel of the 1-d `np.linalg.norm`
        per row (not that of `np.linalg.norm(..., axis=-1)`)."""
        S = self.states
        return float(np.sqrt(np.vecdot(S, S)).max())


def step_factor(raw, proj, gamma):
    """The step factor per row: a number passes through, and "rescaled" gives |raw|^2 /
    |proj|^2, capped at GAMMA_CAP and 0 where proj vanishes (the caller sets the error state)."""
    if not isinstance(gamma, str):
        return float(gamma)
    raw2 = np.sum(raw**2, axis=-1)
    g2 = np.sum(proj**2, axis=-1)
    return np.where(g2 > 0.0, np.minimum(raw2 / g2, GAMMA_CAP), 0.0)


@quiet
def fixed_step(field, Y, h, n_steps, rk4, retract, record_every):
    """Advance a (B, P) batch of rows in lockstep through n_steps explicit
    Euler or RK4 steps of dY/dt = -gamma * G, retracting every new state.
    It runs under `quadrature.quiet`; the field and `retract` set no error state.

    `field(Y, record)` returns (G, gamma, diagnostics) at the state Y alone;
    gamma is one number or one per row, and diagnostics, needed only when
    `record` is true, is passed through.  `retract(Y)` returns the retracted
    rows and how many zero hidden rows they hold; the record's
    `degenerate_events` sums those counts over the run.  A row is frozen at its last valid state once
    its retracted state is non-finite or exceeds DIVERGENCE_GUARD; the run
    ends when no row is left.  A QuadratureError from the field at RK4
    stages 2 to 4 makes the step non-finite; one at a recorded state propagates.

    Returns the batch record of the rows at step 0, every `record_every`-th
    step, the last step, and the step that froze the last row, and beside it
    their diagnostics.  |G| and the diagnostics come from the state's first
    RK4 stage, so recording costs no extra field evaluation.  `risk` and
    `psi_max_dev` are left nan for the caller.  Each row's termination names
    why it froze: "nonfinite" for a non-finite state, "divergence_guard" for
    one over the guard.
    """
    Y = np.array(Y, dtype=float)
    stopped = np.zeros(len(Y), dtype=int)
    termination = np.full(len(Y), "completed", dtype="<U16")
    rows, events, n_stopped = [], 0, 0

    def rate(Z, record=False):
        G, gamma, diagnosed = field(Z, record)
        if isinstance(gamma, np.ndarray):
            gamma = gamma[..., None]
        return -gamma * G, G, diagnosed

    for n in range(n_steps + 1):
        done = n == n_steps or n_stopped == len(Y)
        record = done or n % record_every == 0
        k1, G, diagnosed = rate(Y, record)
        if record:
            # the reduction of np.linalg.norm(G, axis=-1), bit for bit;
            # np.vecdot matches only the 1-d norm (as in sup_norm), not this
            rows.append((n, Y, np.sqrt(np.add.reduce(G * G, axis=-1)), diagnosed))
        if done:
            break
        try:
            if rk4:
                k2 = rate(Y + 0.5 * h * k1)[0]
                k3 = rate(Y + 0.5 * h * k2)[0]
                k4 = rate(Y + h * k3)[0]
            Y_new = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) if rk4 else Y + h * k1
        except QuadratureError:  # the field failed at a stage state: the step is non-finite
            Y_new = np.full_like(Y, np.nan)
        Y_new, zero_rows = retract(Y_new)
        events += zero_rows
        size = np.abs(Y_new)
        if not size.max() <= DIVERGENCE_GUARD:  # some row is over the guard or not finite
            frozen = ~(size.max(axis=1) <= DIVERGENCE_GUARD) & (stopped == 0)
            stopped[frozen] = n + 1
            termination[frozen] = np.where(np.isfinite(Y_new[frozen]).all(axis=1),
                                           "divergence_guard", "nonfinite")
            n_stopped += int(frozen.sum())
        Y = np.where(stopped[:, None] == 0, Y_new, Y) if n_stopped else Y_new

    steps, states, grad_norm, diagnostics = zip(*rows)
    unset = np.full((len(rows), len(Y)), np.nan)
    return TrajectoryRecord(np.array(steps) * h, np.array(states), unset, unset.copy(),
                            np.array(grad_norm), stopped, termination, events), diagnostics


def _network_field(arch, measure, f, r, resolution, gamma):
    """The `fixed_step` field of one network, as a (1, P) batch: G equals
    `project_gradient(theta, risk_and_gradient(theta, ...)[1])` bit for bit,
    and the step factor is `gamma` itself, or for "rescaled" the
    `step_factor` of the raw and the projected gradient.

    One node plan (`network._NodePlan`) serves the run.  The hidden rows'
    gradients are projected against the rows the pass gathered, and the
    diagnostics (risk, max |psi - 1|) come from the same pass and from the
    squared row norms the projection took."""
    plan = _NodePlan(arch, measure, f, r, resolution)

    def field(Y, diagnose):
        value, rows, grads = _risk_and_rows(plan, Y[0])
        tangent, squares = zip(*map(_tangent_rows, rows[:-1], grads[:-1]))
        G = _flat(arch, tangent + (grads[-1],))
        factor = step_factor(_flat(arch, grads), G, gamma) if isinstance(gamma, str) else gamma
        diagnostics = (value, _max_deviation(squares)) if diagnose else None
        return G[None, :], factor, diagnostics

    return field


def _network_run(xi, measure, f, cfg: FlowConfig, n_steps: int) -> TrajectoryRecord:
    """Run n_steps of `fixed_step` with cfg's step, integrator and gamma on one
    network from the rescaled xi; returns its record, or raises
    QuadratureError if the rescaled xi is not finite.  The retraction
    (`manifold._retract`) counts the zero hidden rows of the state, and
    renormalizes it with `reproject`."""
    arch = xi.arch
    field = _network_field(arch, measure, f, cfg.r, cfg.resolution, cfg.gamma)

    def retract(Y):
        values, zeros = _retract(arch, Y[0])
        return (values[None, :] if cfg.reproject else Y), zeros

    start = rescale_full(xi)
    if not np.isfinite(start.values).all():
        raise QuadratureError("rescaled start has non-finite components")
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
    record = _network_run(xi, measure, f, cfg, int(round(cfg.t_end / cfg.step)))
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
    """Normalized gradient descent: `steps` Euler steps of h = 1 against
    gammas * G, each followed by the retraction.  `gammas` follows the flow's
    gamma rule (`check_schedule`): a nonnegative number or "rescaled"; any
    other value raises ValueError naming 'gamma'.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    cfg = FlowConfig(t_end=max(steps, 1), step=1.0, integrator="euler", gamma=gammas,
                     record_every=record_every, r=r, resolution=resolution)
    return _network_run(xi, measure, f, cfg, steps)
