"""Seeded experiment runner: resolve a configuration, run the requested
dynamics, and emit trajectory.csv plus summary.json.

Outputs are deterministic: a fixed config and seed produce byte-identical
files.  Floats are written with 17 significant digits (full round-trip).
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import one_neuron as on
from .dynamics import ConfigError, FlowConfig, TrajectoryRecord, check_schedule, gd_run, integrate_flow
from .params import Architecture, ParamVector, _number, random_params
from .quadrature import InputMeasure, QuadratureError, discrete_measure, uniform_measure
from .smoothing import INF
from .targets import (
    TargetFunction,
    abs_offset_target,
    affine_target,
    constant_target,
    piecewise_linear_target,
    polynomial_target,
)


@dataclass
class ExperimentConfig:
    mode: str = "flow"
    architecture: tuple[int, ...] = (1, 8, 1)
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


_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw.keys()) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    cfg = ExperimentConfig(**raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    def bad(name, why):
        raise ConfigError(f"config field '{name}': {why}")

    def integer(name, low):
        value = getattr(cfg, name)
        if not (_number(value, numbers.Integral) and value >= low):
            bad(name, f"must be an integer >= {low}, got {value!r}")

    if cfg.mode not in ("flow", "gd", "one-neuron"):
        bad("mode", f"must be flow|gd|one-neuron, got {cfg.mode!r}")
    for name in ("measure", "target"):
        if not isinstance(getattr(cfg, name), dict):
            bad(name, f"must be an object, got {getattr(cfg, name)!r}")
    try:
        cfg.architecture = Architecture(cfg.architecture).layer_dims
    except (TypeError, ValueError) as e:
        bad("architecture", str(e))
    if cfg.mode == "one-neuron":
        if cfg.architecture != (1, 1, 1):
            bad("architecture", "one-neuron mode requires (1, 1, 1)")
        m = cfg.measure
        if m.get("kind", "uniform") != "uniform" or (m.get("a", 0.0), m.get("b", 1.0)) != (0.0, 1.0):
            bad("measure", "one-neuron mode requires the uniform measure on [0, 1]")
    check_schedule(cfg.t_end, cfg.step, cfg.integrator, cfg.gamma, cfg.record_every)
    if not isinstance(cfg.reproject, bool):
        bad("reproject", f"must be true or false, got {cfg.reproject!r}")
    if cfg.mode == "gd" and not cfg.reproject:
        bad("reproject", "gd mode retracts after every step (normalized descent), so it must be true")
    integer("steps", 0)
    integer("seed", 0)
    if cfg.quad_nodes is not None:
        integer("quad_nodes", 2)
    if cfg.smoothing_r is not None and not (_number(cfg.smoothing_r) and cfg.smoothing_r >= 1):
        bad("smoothing_r", f"must be a number >= 1, got {cfg.smoothing_r!r}")
    if not _number(cfg.t3_scale):
        bad("t3_scale", f"must be a number, got {cfg.t3_scale!r}")
    if cfg.theta0 is not None:
        if not (isinstance(cfg.theta0, (list, tuple)) and all(_number(v) for v in cfg.theta0)):
            bad("theta0", "must be a list of numbers")
        want = 3 if cfg.mode == "one-neuron" else Architecture(cfg.architecture).param_count
        if len(cfg.theta0) != want:
            bad("theta0", f"must have length {want}")


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


def _write_json(path: Path, obj, sort_keys: bool = True) -> None:
    """Write obj (string keys only) with `_write_new` as strict JSON, indented
    by one space: a non-finite float, at any depth, is written as null.  A
    finite float reads back as the same float, so it keeps its text."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    _write_new(path, json.dumps(strict, sort_keys=sort_keys, indent=1, allow_nan=False) + "\n")


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


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one flow / gd / one-neuron run; returns the summary dict.

    Writes <out>/trajectory.csv and <out>/summary.json as new files: an
    existing file, hard link or symlink at either path is replaced, not
    written through.  summary["config"] echoes cfg's fields without copying
    them, so its lists and dicts are cfg's own.  An integrator abort (an RK4
    stage too) is an observed outcome recorded in the summary, not a failure.
    """
    validate_config(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    theta0 = None if cfg.theta0 is None else np.asarray(cfg.theta0, dtype=float)
    if cfg.mode == "one-neuron":
        problem = on.as_problem(build_scalar_target(cfg.target))
        if theta0 is None:
            theta0 = on.random_circle_states(rng, 1, t3_scale=cfg.t3_scale)[0]
        elif rho := np.hypot(theta0[0], theta0[1]):  # (t1, t2) onto the circle, the same realization
            with np.errstate(over="ignore", invalid="ignore"):  # an inf or an overflow is refused below
                theta0 = np.r_[theta0[:2] / rho, rho * theta0[2]]
        if not np.isfinite(theta0).all():  # as `dynamics._network_run` refuses one
            raise QuadratureError("rescaled start has non-finite components")
    else:
        measure, f, arch = build_measure(cfg), build_target(cfg), Architecture(cfg.architecture)
        try:  # a width numpy cannot allocate fails here
            xi = random_params(arch, rng) if theta0 is None else ParamVector(arch, theta0)
        except (ValueError, MemoryError) as e:
            raise ConfigError(f"config field 'architecture': {e}")
    r = INF if cfg.smoothing_r is None else float(cfg.smoothing_r)
    schedule = FlowConfig(t_end=cfg.t_end, step=cfg.step, integrator=cfg.integrator,
                          renormalize=cfg.reproject, gamma=cfg.gamma, record_every=cfg.record_every)

    summary = {"config": {name: getattr(cfg, name) for name in _FIELDS}, "seed": cfg.seed}
    if cfg.mode == "one-neuron":
        batch = on.flow_batch(theta0, problem, schedule)
        rec = batch.row(0)
        monitors = on.monitor_report(batch, problem, slack=1e-6, conservation_rate=1e-6)
        summary["monitor_violations"] = {k: v["violations"] for k, v in monitors.items()}
    elif cfg.mode == "flow":
        rec = integrate_flow(xi, measure, f, schedule, r=r, resolution=cfg.quad_nodes)
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

