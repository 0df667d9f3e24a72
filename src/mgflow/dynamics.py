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
one-neuron circle flow) run through `fixed_step`, which reads their
`FlowConfig` and applies its gamma rule: step against -gamma * G, then retract.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .gradients import generalized_gradient  # noqa: F401  (bench/tracing.py wraps dynamics.generalized_gradient)
from .manifold import _max_deviation, _retract, _unit_rows, rescale_full, zero_rows
from .manifold import (  # noqa: F401  (bench/tracing.py wraps these dynamics.* names)
    max_constraint_deviation,
    min_subvector_norm,
    project_gradient,
    renormalize,
)
from .network import _NodePlan
from .network import risk  # noqa: F401  (bench/tracing.py wraps dynamics.risk)
from .params import ParamVector, _number
from .quadrature import TWO, InputMeasure, QuadratureError, constant, quiet
from .smoothing import INF
from .targets import TargetFunction

STATIONARY_TOL = 1e-12
DIVERGENCE_GUARD = 1e12
GAMMA_CAP = 1e6


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class FlowConfig:
    """The one fixed-step schedule of the flow, the descent and the circle flow."""
    t_end: float = 1.0
    step: float = 1e-3
    integrator: str = "rk4"
    renormalize: bool = True
    gamma: Union[float, str] = 1.0  # constant factor, or "rescaled"
    record_every: int = 1

    def __post_init__(self):
        """Refuse a schedule with ConfigError naming the offending field.  t_end must
        be a whole number of steps, up to 1e-9 per step for float rounding.  All
        three dynamics take this one gamma rule: a nonnegative number or "rescaled"."""

        def bad(name, why):
            raise ConfigError(f"config field '{name}': {why}")

        t_end, step, gamma = self.t_end, self.step, self.gamma
        if not (_number(t_end) and 0 < t_end < np.inf):
            bad("t_end", f"must be a positive finite number, got {t_end!r}")
        if not (_number(step) and 0 < step <= t_end and t_end / step < np.inf):
            bad("step", f"must be a number with 0 < step <= t_end and a finite t_end / step, got {step!r}")
        n = t_end / step
        if abs(n - round(n)) > 1e-9 * n:
            bad("step", f"t_end {t_end!r} must be a whole number of steps, got {step!r}")
        if self.integrator not in ("euler", "rk4"):
            bad("integrator", f"must be euler|rk4, got {self.integrator!r}")
        rescaled = isinstance(gamma, str) and gamma == "rescaled"
        if not (rescaled or _number(gamma) and gamma >= 0):
            bad("gamma", f"must be a nonnegative number or 'rescaled', got {gamma!r}")
        if not (_number(self.record_every, numbers.Integral) and self.record_every >= 1):
            bad("record_every", f"must be an integer >= 1, got {self.record_every!r}")

    @classmethod
    def descent(cls, steps: int, gamma, record_every: int = 1) -> "FlowConfig":
        """Normalized descent's schedule: `steps` Euler steps of h = 1 (t_end = max(steps, 1) > 0)."""
        return cls(t_end=max(steps, 1), step=1.0, integrator="euler", gamma=gamma, record_every=record_every)


_COLUMNS = ("times", "states", "risk", "psi_max_dev", "grad_norm")  # one entry per recorded row


@dataclass
class TrajectoryRecord:
    """Recorded rows of one run, or of a batch run in lockstep: every column
    has a leading row axis R, and a batch adds a trajectory axis B after it.
    `stopped` holds the step at which each trajectory froze (0 if never) and
    `termination` how each one ended: "completed", "stationary" (closed by
    `fixed_step`'s stationary rule), "nonfinite" (frozen on a non-finite
    state) or "divergence_guard" (frozen on a component above
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

    @property
    @quiet
    def sup_norm(self) -> float:
        """The largest Euclidean norm of a recorded state; nan if any state
        holds a nan.  The norms are `manifold._unit_rows`'s: `np.vecdot`, the
        kernel of the 1-d `np.linalg.norm` (not that of
        `np.linalg.norm(..., axis=-1)`), on every state whose norm lies in
        [1e-140, 1e140], and the scaled norm on the others, which neither
        overflows nor underflows."""
        S = self.states
        return float(_unit_rows(S.reshape(-1, S.shape[-1]))[1].max())


def step_factor(raw, proj):
    """The rescaled step factor that scales G's rows: |raw|^2 / |proj|^2 per row with
    the last axis kept, capped at GAMMA_CAP and 0 where proj vanishes (the caller
    sets the error state)."""
    raw2 = np.sum(raw**2, axis=-1, keepdims=True)
    g2 = np.sum(proj**2, axis=-1, keepdims=True)
    return np.where(g2 > 0.0, np.minimum(raw2 / g2, GAMMA_CAP), 0.0)


@quiet
def fixed_step(field, Y, cfg: FlowConfig, n_steps, retract) -> TrajectoryRecord:
    """Advance a (B, P) batch of rows in lockstep through n_steps explicit
    steps of dY/dt = -gamma * G with cfg's step, integrator and gamma,
    retracting every new state.  It runs under `quadrature.quiet`; the field
    and `retract` set no error state.

    `field(Y, record)` returns (G, raw, risk, psi) at the state Y alone: G
    and the raw gradient it projects are (B, P), and risk and psi (the
    constraint deviation) are per-row arrays if `record`, else None.  This is
    the one place the gamma rule is applied: a number gamma scales every row,
    and "rescaled" scales each by `step_factor(raw, G)`.
    `retract(Y)` returns the retracted rows and how many zero hidden rows
    they hold; the record's `degenerate_events` sums those counts over the
    run.  A row is frozen at its last valid state once its retracted state
    is non-finite or exceeds DIVERGENCE_GUARD; the run ends when no row is
    left.  A QuadratureError from the field at RK4 stages 2 to 4 makes the
    step non-finite; one at a step's first stage, recorded or not, propagates.

    Returns the batch record of the rows at step 0, every cfg.record_every-th
    step, the last step, and the step that froze the last row; every column
    comes from the state's first RK4 stage, at no extra field evaluation.
    Each row's termination names why it froze: "nonfinite" for a non-finite
    state, "divergence_guard" for one over the guard.  The one stationary
    rule: at a recorded step before the last where every row has
    |G| <= STATIONARY_TOL, that row is recorded once more at step n_steps,
    the unfrozen rows end "stationary", and the run stops.
    """
    Y = np.array(Y, dtype=float)
    stopped = np.zeros(len(Y), dtype=int)
    termination = np.full(len(Y), "completed", dtype="<U16")
    rows, events, n_stopped = [], 0, 0
    h, rk4, rescaled = cfg.step, cfg.integrator == "rk4", isinstance(cfg.gamma, str)
    half, full, sixth = constant(0.5 * h), constant(h), constant(h / 6.0)  # 0-d operands (`constant`)
    scale = None if rescaled else constant(-float(cfg.gamma))

    def rate(Z, record=False):
        G, raw, risk, psi = field(Z, record)
        return (-step_factor(raw, G) if rescaled else scale) * G, G, risk, psi

    for n in range(n_steps + 1):
        done = n == n_steps or n_stopped == len(Y)
        record = done or n % cfg.record_every == 0
        k1, G, risk, psi = rate(Y, record)
        if record:
            # the reduction of np.linalg.norm(G, axis=-1), bit for bit;
            # np.vecdot matches only the 1-d norm (as in sup_norm), not this
            grad_norm = np.sqrt(np.add.reduce(G * G, axis=-1))
            rows.append((n, Y, risk, psi, grad_norm))
            if not done and grad_norm.max() <= STATIONARY_TOL:
                rows.append((n_steps,) + rows[-1][1:])
                termination[stopped == 0] = "stationary"
                break
        if done:
            break
        try:
            if rk4:
                k2 = rate(Y + half * k1)[0]
                k3 = rate(Y + half * k2)[0]
                k4 = rate(Y + full * k3)[0]
            Y_new = Y + sixth * (k1 + TWO * k2 + TWO * k3 + k4) if rk4 else Y + full * k1
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

    steps, *columns = map(np.array, zip(*rows))
    return TrajectoryRecord(steps * h, *columns, stopped, termination, events)


def _network_field(arch, measure, f, r, resolution):
    """The `fixed_step` field of one network, as a (1, P) batch (G, raw, risk,
    psi): raw is `risk_and_gradient(theta, ...)[1]` and G
    `project_gradient(theta, raw)`, bit for bit.

    One node plan (`network._NodePlan`) serves the run, and one call of its
    `gradient` gives the whole stage: raw, G projected inside the pass, and,
    at a recorded stage alone, the risk and the squared row norms that give
    max |psi - 1|.  At an unrecorded stage risk and psi are None, as in the
    circle field, and only raw is checked finite."""
    plan = _NodePlan(arch, measure, f, r, resolution)

    def field(Y, record):
        value, raw, G, squares = plan.gradient(Y[0], record)
        recorded = (np.array([value]), np.array([_max_deviation(squares)])) if record else (None, None)
        return G[None, :], raw[None, :], *recorded

    return field


def _network_run(xi, measure, f, cfg: FlowConfig, n_steps: int, r, resolution) -> TrajectoryRecord:
    """Run n_steps of `fixed_step` with cfg's schedule on one network from
    the rescaled xi; returns its record, or raises
    QuadratureError if the rescaled xi is not finite.  The retraction
    (`manifold._retract`) counts the zero hidden rows of the state, and
    renormalizes it with `renormalize`."""
    arch = xi.arch
    field = _network_field(arch, measure, f, r, resolution)

    def retract(Y):
        values, zeros = _retract(arch, Y[0])
        return (values[None, :] if cfg.renormalize else Y), zeros

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
    record = fixed_step(field, start.values[None, :], cfg, n_steps, retract).row(0)
    record.degenerate_events += degenerate
    return record


def integrate_flow(
    xi: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    cfg: FlowConfig,
    r=INF,
    resolution: Optional[int] = None,
) -> TrajectoryRecord:
    """Integrate the projected flow from the rescaled initial point; `r` and
    `resolution` set the network's discretization, as in `gd_run`.

    Early termination: 'stationary' when a recorded |G| falls below 1e-12
    (`fixed_step`'s stationary rule), 'nonfinite' or 'divergence_guard' when
    a step leaves non-finite values or a component above 1e12; the record
    then ends with the last valid state.
    """
    return _network_run(xi, measure, f, cfg, int(round(cfg.t_end / cfg.step)), r, resolution)


def gd_run(
    xi: ParamVector,
    measure: InputMeasure,
    f: TargetFunction,
    steps: int,
    gamma,
    r=INF,
    resolution: Optional[int] = None,
    record_every: int = 1,
) -> TrajectoryRecord:
    """Normalized gradient descent: `steps` Euler steps of h = 1 against
    gamma * G, each followed by the retraction.  `gamma` follows the flow's
    gamma rule (`FlowConfig`): a nonnegative number or "rescaled"; any
    other value raises ValueError naming 'gamma'.  It ends early as
    `integrate_flow` does.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _network_run(xi, measure, f, FlowConfig.descent(steps, gamma, record_every), steps, r, resolution)
