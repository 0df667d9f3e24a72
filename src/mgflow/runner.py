"""Seeded experiment runner: resolve a configuration, run the requested
dynamics, and emit trajectory.csv plus summary.json.

Outputs are deterministic: a fixed config and seed produce byte-identical
files.  Floats are written with 17 significant digits (full round-trip).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import one_neuron as on
from .dynamics import FlowConfig, TrajectoryRecord, check_schedule, gd_run, integrate_flow
from .params import Architecture, ParamVector, random_params
from .quadrature import InputMeasure, discrete_measure, uniform_measure
from .smoothing import INF
from .targets import (
    TargetFunction,
    abs_offset_target,
    affine_target,
    constant_target,
    piecewise_linear_target,
    polynomial_target,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


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


_DEFAULTS = ExperimentConfig()
_FIELDS = set(asdict(_DEFAULTS).keys())


def config_from_dict(raw: dict) -> ExperimentConfig:
    unknown = set(raw.keys()) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    cfg = ExperimentConfig(**{**asdict(_DEFAULTS), **raw})
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    def bad(name, why):
        raise ConfigError(f"config field '{name}': {why}")

    if cfg.mode not in ("flow", "gd", "one-neuron"):
        bad("mode", f"must be flow|gd|one-neuron, got {cfg.mode!r}")
    if cfg.mode == "one-neuron":
        if tuple(cfg.architecture) not in ((1, 1, 1),):
            bad("architecture", "one-neuron mode requires (1, 1, 1)")
        m = cfg.measure
        if m.get("kind", "uniform") != "uniform" or (m.get("a", 0.0), m.get("b", 1.0)) != (0.0, 1.0):
            bad("measure", "one-neuron mode requires the uniform measure on [0, 1]")
    try:
        cfg.architecture = tuple(int(d) for d in cfg.architecture)
        Architecture(cfg.architecture)
    except (TypeError, ValueError) as e:
        bad("architecture", str(e))
    check_schedule(cfg.t_end, cfg.step, cfg.integrator, cfg.gamma, cfg.record_every, ConfigError)
    if cfg.steps < 0:
        bad("steps", "must be >= 0")
    if cfg.quad_nodes is not None and cfg.quad_nodes < 2:
        bad("quad_nodes", "must be >= 2")
    if cfg.smoothing_r is not None and not float(cfg.smoothing_r) >= 1:
        bad("smoothing_r", "must be >= 1")
    if cfg.theta0 is not None:
        want = 3 if cfg.mode == "one-neuron" else Architecture(cfg.architecture).param_count
        if len(cfg.theta0) != want:
            bad("theta0", f"must have length {want}")


def build_measure(cfg: ExperimentConfig) -> InputMeasure:
    m = dict(cfg.measure)
    kind = m.pop("kind", "uniform")
    try:
        if kind == "uniform":
            return uniform_measure(m.get("a", 0.0), m.get("b", 1.0), cfg.architecture[0])
        if kind == "discrete":
            return discrete_measure(m["points"], m["weights"], m.get("a", 0.0), m.get("b", 1.0))
    except (KeyError, ValueError) as e:
        raise ConfigError(f"config field 'measure': {e}")
    raise ConfigError(f"config field 'measure': unknown kind {kind!r}")


def build_scalar_target(spec: dict):
    spec = dict(spec)
    name = spec.pop("name", None)
    try:
        if name == "constant":
            return constant_target(float(spec["value"]))
        if name == "affine":
            return affine_target(float(spec.get("intercept", 0.0)), float(spec.get("slope", 1.0)))
        if name == "abs_offset":
            return abs_offset_target(float(spec["center"]))
        if name == "piecewise_linear":
            knots = np.asarray(spec["knots"], dtype=float)
            return piecewise_linear_target(knots[:, 0], knots[:, 1])
        if name == "polynomial":
            return polynomial_target([float(c) for c in spec["coeffs"]])
        if name == "zero":
            return constant_target(0.0)
    except (KeyError, IndexError, ValueError) as e:
        raise ConfigError(f"config field 'target': {e}")
    raise ConfigError(f"config field 'target': unknown name {name!r}")


def build_target(cfg: ExperimentConfig) -> TargetFunction:
    in_dim = cfg.architecture[0]
    out_dim = cfg.architecture[-1]
    spec = dict(cfg.target)
    name = spec.get("name")
    if name == "affine_map":
        try:
            return TargetFunction.affine_map(spec["weights"], spec["offset"])
        except (KeyError, ValueError) as e:
            raise ConfigError(f"config field 'target': {e}")
    if in_dim == 1 and out_dim == 1:
        return TargetFunction.from_scalar(build_scalar_target(spec))
    if name == "zero":
        return TargetFunction.zero(out_dim)
    if name == "constant":
        vals = np.broadcast_to(np.atleast_1d(np.asarray(spec.get("value", 0.0), float)), (out_dim,))
        return TargetFunction.affine_map(np.zeros((out_dim, in_dim)), vals)
    raise ConfigError(
        f"config field 'target': {name!r} unsupported for input dim {in_dim} / output dim {out_dim}"
    )


def _write_csv(path: Path, record: TrajectoryRecord, one_neuron_mode: bool, time_label: str):
    dim = record.states.shape[1]
    cols = [time_label] + [f"theta_{i}" for i in range(1, dim + 1)]
    cols += ["risk", "psi_max_dev", "grad_norm"]
    numbers = [record.times, record.states, record.risk, record.psi_max_dev, record.grad_norm]
    if one_neuron_mode:
        cols += ["regime", "E_full", "V_right", "V_left"]
        code, _ = on._regime_codes(record.states[:, 0], record.states[:, 1])
        numbers += on.lyapunov_values(record.states)
    lines = [",".join(cols)]
    for j, row in enumerate(np.column_stack(numbers).tolist()):
        cells = [format(x, ".17g") for x in row]
        if one_neuron_mode:
            cells.insert(dim + 4, on.REGIME_TAGS[code[j]])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one flow / gd / one-neuron run; returns the summary dict.

    Writes <out>/trajectory.csv and <out>/summary.json.  An integrator abort
    is an observed outcome recorded in the summary, not a failure.
    """
    validate_config(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    r = INF if cfg.smoothing_r is None else float(cfg.smoothing_r)

    summary = {"config": asdict(cfg), "seed": cfg.seed}
    if cfg.mode == "one-neuron":
        f = build_scalar_target(cfg.target)
        problem = on.as_problem(f)
        if cfg.theta0 is not None:
            theta0 = np.asarray(cfg.theta0, dtype=float)
        else:
            theta0 = on.random_circle_states(rng, 1, t3_scale=cfg.t3_scale)[0]
        oncfg = on.OneNeuronConfig(
            t_end=cfg.t_end,
            step=cfg.step,
            integrator=cfg.integrator,
            renormalize=cfg.reproject,
            record_every=cfg.record_every,
            gamma=cfg.gamma,
        )
        batch = on.flow_batch(theta0, problem, oncfg)
        rec = batch.row(0)
        rec.close_if_stationary(cfg.t_end)
        monitors = on.monitor_report(batch, problem, slack=1e-6, conservation_rate=1e-6)
        summary["monitor_violations"] = {k: v["violations"] for k, v in monitors.items()}
        _write_csv(out / "trajectory.csv", rec, one_neuron_mode=True, time_label="t")
    else:
        arch = Architecture(cfg.architecture)
        measure = build_measure(cfg)
        f = build_target(cfg)
        if cfg.theta0 is not None:
            xi = ParamVector(arch, np.asarray(cfg.theta0, dtype=float))
        else:
            xi = random_params(arch, rng)
        if cfg.mode == "flow":
            flow_cfg = FlowConfig(
                t_end=cfg.t_end,
                step=cfg.step,
                integrator=cfg.integrator,
                reproject=cfg.reproject,
                gamma=cfg.gamma,
                record_every=cfg.record_every,
                r=r,
                resolution=cfg.quad_nodes,
            )
            rec = integrate_flow(xi, measure, f, flow_cfg)
            time_label = "t"
        else:
            rec = gd_run(
                xi, measure, f, cfg.steps, cfg.gamma, r=r,
                resolution=cfg.quad_nodes, record_every=cfg.record_every,
            )
            time_label = "n"
        _write_csv(out / "trajectory.csv", rec, one_neuron_mode=False, time_label=time_label)

    summary.update(
        termination=rec.termination,
        rows=len(rec.times),
        sup_norm=rec.sup_norm,
        final_risk=rec.risk[-1],
        psi_max_dev_max=max(rec.psi_max_dev),
        degenerate_events=rec.degenerate_events,
    )
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    return summary

