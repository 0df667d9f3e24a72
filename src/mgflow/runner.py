"""Seeded experiment runner: resolve a configuration, run the requested
dynamics, and emit trajectory.csv plus summary.json.

Outputs are deterministic: a fixed config and seed produce byte-identical
files.  Floats are written with 17 significant digits (full round-trip).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import one_neuron as on
from .dynamics import ConfigError, FlowConfig, TrajectoryRecord, gd_run, integrate_flow
from .params import Architecture, ParamVector, _number, random_params
from .quadrature import InputMeasure, QuadratureError, discrete_measure, quiet, uniform_measure
from .smoothing import INF
from .targets import (
    TargetFunction,
    abs_offset_target,
    affine_target,
    constant_target,
    piecewise_linear_target,
    polynomial_target,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's configuration.  Building it refuses a field that breaks its
    rule with ConfigError naming the field.  `architecture` defaults to
    (1, 1, 1) in one-neuron mode and to (1, 8, 1) otherwise."""
    mode: str = "flow"
    architecture: Optional[tuple[int, ...]] = None
    measure: dict = field(default_factory=lambda: {"kind": "uniform", "a": 0.0, "b": 1.0})
    target: dict = field(default_factory=lambda: {"name": "abs_offset", "center": 0.3})
    t_end: float = 1.0
    step: float = 1e-3
    integrator: str = "rk4"
    reproject: bool = True
    gamma: Union[float, str] = 1.0
    record_every: int = 1
    steps: int = 100              # gd mode
    seed: int = 0
    out: str = "out"
    quad_nodes: Optional[int] = None
    smoothing_r: Optional[float] = None   # None = exact ReLU
    theta0: Optional[list] = None
    t3_scale: float = 1.0         # one-neuron random init scale

    def __post_init__(self):
        def bad(name, why):
            raise ConfigError(f"config field '{name}': {why}")

        def integer(name, low):
            value = getattr(self, name)
            if not (_number(value, numbers.Integral) and value >= low):
                bad(name, f"must be an integer >= {low}, got {value!r}")

        one_neuron_mode = self.mode == "one-neuron"
        if self.mode not in ("flow", "gd", "one-neuron"):
            bad("mode", f"must be flow|gd|one-neuron, got {self.mode!r}")
        for name in ("measure", "target"):
            if not isinstance(getattr(self, name), dict):
                bad(name, f"must be an object, got {getattr(self, name)!r}")
        arch = ((1, 1, 1) if one_neuron_mode else (1, 8, 1)) if self.architecture is None else self.architecture
        try:
            object.__setattr__(self, "architecture", Architecture(arch).layer_dims)
        except (TypeError, ValueError) as e:
            bad("architecture", str(e))
        if one_neuron_mode:
            if self.architecture != (1, 1, 1):
                bad("architecture", "one-neuron mode requires (1, 1, 1)")
            m = self.measure
            if m.get("kind", "uniform") != "uniform" or (m.get("a", 0.0), m.get("b", 1.0)) != (0.0, 1.0):
                bad("measure", "one-neuron mode requires the uniform measure on [0, 1]")
        integer("steps", 0)
        self.schedule  # refuses a bad t_end, step, integrator, gamma or record_every that the run reads
        if not isinstance(self.reproject, bool):
            bad("reproject", f"must be true or false, got {self.reproject!r}")
        if self.mode == "gd" and not self.reproject:
            bad("reproject", "gd mode retracts after every step (normalized descent), so it must be true")
        integer("seed", 0)
        if self.quad_nodes is not None:
            integer("quad_nodes", 2)
        if self.smoothing_r is not None and not (_number(self.smoothing_r) and self.smoothing_r >= 1):
            bad("smoothing_r", f"must be a number >= 1, got {self.smoothing_r!r}")
        if not _number(self.t3_scale):
            bad("t3_scale", f"must be a number, got {self.t3_scale!r}")
        if self.theta0 is not None:
            if not (isinstance(self.theta0, (list, tuple)) and all(_number(v) for v in self.theta0)):
                bad("theta0", "must be a list of numbers")
            want = 3 if one_neuron_mode else Architecture(self.architecture).param_count
            if len(self.theta0) != want:
                bad("theta0", f"must have length {want}")

    @property
    def schedule(self) -> FlowConfig:
        """The run's fixed-step schedule, with the retraction set by `reproject`;
        gd mode's (`FlowConfig.descent`) reads no t_end, step or integrator."""
        if self.mode == "gd":
            return FlowConfig.descent(self.steps, self.gamma, self.record_every)
        return FlowConfig(t_end=self.t_end, step=self.step, integrator=self.integrator,
                          renormalize=self.reproject, gamma=self.gamma, record_every=self.record_every)


_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw.keys()) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    return ExperimentConfig(**raw)


def _finite(value) -> np.ndarray:
    """A config value as a float array; null, booleans (inside a list of
    numbers too), text (numeric text too) and non-finite entries raise."""
    arr, entries = np.asarray(value), np.asarray(value, dtype=object).flat
    if arr.dtype.kind not in "iuf" or any(isinstance(v, bool) for v in entries) or not np.all(np.isfinite(arr)):
        raise ValueError(f"expected finite numbers, got {value!r}")
    return arr.astype(float)


def _real(value) -> float:
    """One finite number of a measure or target spec, checked as by `_finite`."""
    if np.ndim(value):
        raise ValueError(f"expected a number, got {value!r}")
    return float(_finite(value))


def _reason(e: Exception) -> str:
    """Why a measure or target spec did not build: a KeyError names its missing key."""
    return f"missing key {e}" if isinstance(e, KeyError) else str(e)


def build_measure(cfg: ExperimentConfig) -> InputMeasure:
    m = dict(cfg.measure)
    kind = m.pop("kind", "uniform")
    try:
        if kind == "uniform":
            return uniform_measure(_real(m.get("a", 0.0)), _real(m.get("b", 1.0)), cfg.architecture[0])
        if kind == "discrete":
            measure = discrete_measure(_finite(m["points"]), _finite(m["weights"]),
                                       _real(m.get("a", 0.0)), _real(m.get("b", 1.0)))
            if measure.dim != cfg.architecture[0]:
                raise ValueError(f"points must have {cfg.architecture[0]} columns, got {measure.dim}")
            return measure
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"config field 'measure': {_reason(e)}")
    raise ConfigError(f"config field 'measure': unknown kind {kind!r}")


def build_scalar_target(spec: dict):
    spec = dict(spec)
    name = spec.pop("name", None)
    try:
        if name == "constant":
            return constant_target(_real(spec["value"]))
        if name == "affine":
            return affine_target(_real(spec.get("intercept", 0.0)), _real(spec.get("slope", 1.0)))
        if name == "abs_offset":
            return abs_offset_target(_real(spec["center"]))
        if name == "piecewise_linear":
            knots = _finite(spec["knots"])
            return piecewise_linear_target(knots[:, 0], knots[:, 1])
        if name == "polynomial":
            return polynomial_target([_real(c) for c in spec["coeffs"]])
        if name == "zero":
            return constant_target(0.0)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ConfigError(f"config field 'target': {_reason(e)}")
    raise ConfigError(f"config field 'target': unknown name {name!r}")


def build_target(cfg: ExperimentConfig) -> TargetFunction:
    in_dim = cfg.architecture[0]
    out_dim = cfg.architecture[-1]
    spec = dict(cfg.target)
    name = spec.get("name")
    if in_dim == 1 and out_dim == 1 and name != "affine_map":
        return TargetFunction.from_scalar(build_scalar_target(spec))
    try:
        if name == "affine_map":
            weights = np.atleast_2d(_finite(spec["weights"]))
            if weights.shape != (out_dim, in_dim):
                raise ValueError(f"weights must have shape ({out_dim}, {in_dim}), got {weights.shape}")
            return TargetFunction.affine_map(weights, _finite(spec["offset"]))
        if name == "zero":
            return TargetFunction.zero(out_dim)
        if name == "constant":
            vals = np.broadcast_to(np.atleast_1d(_finite(spec.get("value", 0.0))), (out_dim,))
            return TargetFunction.affine_map(np.zeros((out_dim, in_dim)), vals)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"config field 'target': {_reason(e)}")
    raise ConfigError(
        f"config field 'target': {name!r} unsupported for input dim {in_dim} / output dim {out_dim}"
    )


def _row_format(n_cols: int, tag_col: Optional[int] = None) -> str:
    """%-format of one CSV row: every number with 17 significant digits (the
    bytes of `format(x, ".17g")`, which round-trip a double), and text at
    tag_col."""
    return ",".join("%s" if j == tag_col else "%.17g" for j in range(n_cols))


def _write_new(path: Path, text: str) -> None:
    """Replace the file at path with a new file holding text.  On ext4,
    truncating and rewriting an existing file forces writeback when it closes;
    unlinking it first does not.  A hard link or symlink at path is replaced,
    not written through."""
    path.unlink(missing_ok=True)
    path.write_text(text)


def _strict(obj):
    """obj with every non-finite float, at any depth, as None (and tuples as lists)."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    """Write obj (string keys only) with `_write_new` as strict JSON, indented
    by one space: a non-finite float, at any depth, is written as null."""
    _write_new(path, json.dumps(_strict(obj), sort_keys=sort_keys, indent=1, allow_nan=False) + "\n")


def _write_csv(path: Path, record: TrajectoryRecord, mode: str):
    """The run's trajectory.csv: time ("n", the step, in gd mode), states and
    diagnostics, plus the regime and the Lyapunov values in one-neuron mode."""
    dim, one_neuron_mode = record.states.shape[1], mode == "one-neuron"
    cols = ["n" if mode == "gd" else "t"] + [f"theta_{i}" for i in range(1, dim + 1)]
    cols += ["risk", "psi_max_dev", "grad_norm"]
    numbers = [record.times, record.states, record.risk, record.psi_max_dev, record.grad_norm]
    tag_col = dim + 4 if one_neuron_mode else None
    if one_neuron_mode:
        cols += ["regime", "E_full", "V_right", "V_left"]
        code, _ = on._regime_codes(record.states[:, 0], record.states[:, 1])
        numbers += on.lyapunov_values(record.states)
    rows = np.column_stack(numbers).tolist()
    if one_neuron_mode:
        for row, c in zip(rows, code):
            row.insert(tag_col, on.REGIME_TAGS[c])
    table = (_row_format(len(cols), tag_col) + "\n") * len(rows)  # one % for all rows
    _write_new(path, ",".join(cols) + "\n" + table % tuple(itertools.chain.from_iterable(rows)))


@quiet
def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one flow / gd / one-neuron run; returns the summary dict.

    Writes <out>/trajectory.csv and <out>/summary.json as new files: an
    existing file, hard link or symlink at either path is replaced, not
    written through.  summary["config"] echoes cfg's fields without copying
    them, so its lists and dicts are cfg's own.  An integrator abort (an RK4
    stage too) is an observed outcome recorded in the summary, not a failure.
    cfg checked its fields when it was built, and the run has the package's
    one error state, `quadrature.quiet`.
    """
    theta0 = None if cfg.theta0 is None else np.asarray(cfg.theta0, dtype=float)
    if cfg.mode == "one-neuron":
        problem = on.as_problem(build_scalar_target(cfg.target))
        if theta0 is None:
            theta0 = on.random_circle_states(np.random.default_rng(cfg.seed), 1, t3_scale=cfg.t3_scale)[0]
        elif rho := np.hypot(theta0[0], theta0[1]):  # (t1, t2) onto the circle, the same realization
            theta0 = np.r_[theta0[:2] / rho, rho * theta0[2]]  # an inf or an overflow is refused below
        if not np.isfinite(theta0).all():  # as `dynamics._network_run` refuses one
            raise QuadratureError("rescaled start has non-finite components")
    else:
        measure, f, arch = build_measure(cfg), build_target(cfg), Architecture(cfg.architecture)
        try:  # a width numpy cannot allocate fails here
            xi = random_params(arch, np.random.default_rng(cfg.seed)) if theta0 is None else ParamVector(arch, theta0)
        except (ValueError, MemoryError) as e:
            raise ConfigError(f"config field 'architecture': {e}")
    r = INF if cfg.smoothing_r is None else float(cfg.smoothing_r)

    summary = {"config": {name: getattr(cfg, name) for name in _FIELDS}, "seed": cfg.seed}
    if cfg.mode == "one-neuron":
        batch = on.flow_batch(theta0, problem, cfg.schedule)
        rec = batch.row(0)
        monitors = on.monitor_report(batch, problem, slack=1e-6, conservation_rate=1e-6)
        summary["monitor_violations"] = {k: v["violations"] for k, v in monitors.items()}
    elif cfg.mode == "flow":
        rec = integrate_flow(xi, measure, f, cfg.schedule, r=r, resolution=cfg.quad_nodes)
    else:
        rec = gd_run(
            xi, measure, f, cfg.steps, cfg.gamma, r=r,
            resolution=cfg.quad_nodes, record_every=cfg.record_every,
        )
    out = Path(cfg.out)  # made only once the run has a record: a failed run writes nothing
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory.csv", rec, cfg.mode)

    summary.update(
        termination=rec.termination,
        rows=len(rec.times),
        sup_norm=rec.sup_norm,
        final_risk=rec.risk[-1],
        psi_max_dev_max=max(rec.psi_max_dev),
        degenerate_events=rec.degenerate_events,
    )
    _write_json(out / "summary.json", summary)
    return summary

