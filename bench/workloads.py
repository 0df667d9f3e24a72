"""The three benchmark workloads and the checks on their outputs.

Each workload is a stream of independent units; unit i is one seeded
experiment whose inputs depend only on the workload seed and i.  The
benchmark draws every initial state itself and hands it to mgflow through
the public API (`ExperimentConfig.theta0`, the `inits` of `flow_batch`).

`run(i)` is the timed part of a unit.  `check(output)` runs outside the
timed region and returns the list of problems found (empty when the unit's
outputs are correct); a unit with any problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mgflow import one_neuron, runner
from mgflow.targets import abs_offset_target, affine_target, piecewise_linear_target

PSI_DEV_TOL = 1e-12      # c03 with retraction on
RISK_RISE_TOL = 1e-8     # c04, per recorded row
CIRCLE_DEV_TOL = 1e-12
LYAPUNOV_SLACK = 1e-5    # per-step slack of the c11 boundedness experiment
# Monitors whose violations are a known defect of the program rather than a
# failed unit: `one_neuron.applicability_masks` marks states as inside the
# v_right window at which V_right rises (dV_right/dt about +1e-3, the same at
# every step size).  Their violations are counted and reported with every
# run; bench/DESIGN.md records a reproducing state.
KNOWN_DEFECT_MONITORS = ("v_right",)


# Independent random streams: one per unit, one for the circle workload's
# seeded piecewise-linear target.
_UNIT_STREAM, _TARGET_STREAM = 0, 1


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _file_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


@dataclass
class RunOutput:
    """Files written by one `run_experiment` unit."""

    index: int
    out: Path


def _read_risk_column(path: Path) -> list[float]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("risk")
    return [float(r[col]) for r in rows[1:]]


class _ExperimentWorkload:
    """Shared base of the two workloads that go through `run_experiment`."""

    name = ""
    integrator_steps = 0
    param_count = 0

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = Path(out_root) / self.name
        self.unit_dir = self.out_root / "unit"

    @property
    def steps_per_unit(self) -> int:
        return self.integrator_steps

    def config(self, index: int, out: Path, steps: int) -> runner.ExperimentConfig:
        raise NotImplementedError

    def theta0(self, index: int) -> list[float]:
        return _rng(self.seed, _UNIT_STREAM, index).standard_normal(self.param_count).tolist()

    def warm_up(self) -> None:
        runner.run_experiment(self.config(0, self.out_root / "warm", steps=2))

    def run(self, index: int) -> RunOutput:
        runner.run_experiment(self.config(index, self.unit_dir, self.integrator_steps))
        return RunOutput(index, self.unit_dir)

    def bytes_written(self, output: RunOutput) -> int:
        return _file_bytes(output.out)

    def check(self, output: RunOutput) -> list[str]:
        problems = []
        summary = json.loads((output.out / "summary.json").read_text())
        if summary["termination"] != "completed":
            problems.append(f"termination {summary['termination']!r}")
        if not summary["psi_max_dev_max"] <= PSI_DEV_TOL:
            problems.append(f"psi_max_dev_max {summary['psi_max_dev_max']!r} > {PSI_DEV_TOL}")
        risks = _read_risk_column(output.out / "trajectory.csv")
        if len(risks) != self.integrator_steps + 1:
            problems.append(f"{len(risks)} data rows, expected {self.integrator_steps + 1}")
        return problems + self.check_risk(risks)

    def check_risk(self, risks: list[float]) -> list[str]:
        raise NotImplementedError


class ShallowFlow(_ExperimentWorkload):
    """The CLI's default flow run: 1,8,1 on [0,1], |s - 0.3|, RK4, h = 1e-3."""

    name = "shallow_flow"
    integrator_steps = 20
    param_count = 25
    step = 1e-3

    def config(self, index, out, steps):
        return runner.ExperimentConfig(
            mode="flow",
            architecture=(1, 8, 1),
            measure={"kind": "uniform", "a": 0.0, "b": 1.0},
            target={"name": "abs_offset", "center": 0.3},
            t_end=steps * self.step,
            step=self.step,
            integrator="rk4",
            reproject=True,
            gamma=1.0,
            record_every=1,
            seed=self.seed,
            out=str(out),
            theta0=self.theta0(index),
        )

    def check(self, output):
        problems = super().check(output)
        if output.index == 0:
            problems += self.check_rerun(output)
        return problems

    def check_risk(self, risks):
        worst = max(b - a for a, b in zip(risks, risks[1:]))
        return [f"risk rose by {worst!r} in one row"] if worst > RISK_RISE_TOL else []

    def check_rerun(self, output: RunOutput) -> list[str]:
        """c14: re-running the unit into the same directory reproduces its
        files byte for byte (the summary echoes the output path)."""
        names = ("trajectory.csv", "summary.json")
        first = {name: (output.out / name).read_bytes() for name in names}
        runner.run_experiment(self.config(output.index, output.out, self.integrator_steps))
        return [f"re-run {name} differs" for name in names
                if (output.out / name).read_bytes() != first[name]]


class DeepGD(_ExperimentWorkload):
    """Normalized descent on 2,4,4,1 with a 128 x 128 composite tensor grid."""

    name = "deep_gd"
    integrator_steps = 10
    param_count = 37

    def config(self, index, out, steps):
        return runner.ExperimentConfig(
            mode="gd",
            architecture=(2, 4, 4, 1),
            measure={"kind": "uniform", "a": 0.0, "b": 1.0},
            target={"name": "affine_map", "weights": [[0.5, 0.5]], "offset": [0.0]},
            quad_nodes=128,
            gamma=1e-2,
            steps=steps,
            record_every=1,
            seed=self.seed,
            out=str(out),
            theta0=self.theta0(index),
        )

    def check_risk(self, risks):
        return [] if risks[-1] <= risks[0] else [f"risk rose from {risks[0]!r} to {risks[-1]!r}"]


@dataclass
class BatchOutput:
    """One circle-flow batch and its monitor report."""

    index: int
    batch: one_neuron.OneNeuronBatch
    report: dict


class CircleBatch:
    """c11's pipeline without its internal seeding: flow_batch + monitor_report.

    Units rotate through four targets in a fixed order; the last one has
    eight pieces, because the one-neuron kernel's cost grows with the piece
    count.
    """

    name = "circle_batch"
    batch = 34
    integrator_steps = 40
    steps_per_unit = batch * integrator_steps  # trajectory-steps
    step = 1e-2
    pieces = 8

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        knots_y = _rng(seed, _TARGET_STREAM).uniform(-1.0, 1.0, self.pieces + 1)
        targets = (
            affine_target(0.0, 1.0),
            abs_offset_target(0.3),
            affine_target(1.0, -1.0),
            piecewise_linear_target(np.linspace(0.0, 1.0, self.pieces + 1), knots_y),
        )
        self.problems = [one_neuron.as_problem(f) for f in targets]
        self.cfg = self.flow_config(self.integrator_steps)
        self.known_defects = {f"{name}_violations": 0 for name in KNOWN_DEFECT_MONITORS}

    def flow_config(self, steps: int) -> one_neuron.OneNeuronConfig:
        return one_neuron.OneNeuronConfig(
            t_end=steps * self.step, step=self.step, integrator="rk4", renormalize=True, gamma=1.0
        )

    def inits(self, index: int) -> np.ndarray:
        rng = _rng(self.seed, _UNIT_STREAM, index)
        angle = rng.uniform(0.0, 2.0 * math.pi, self.batch)
        return np.stack([np.cos(angle), np.sin(angle), rng.standard_normal(self.batch)], axis=1)

    def warm_up(self) -> None:
        cfg = self.flow_config(2)
        for problem in self.problems:
            one_neuron.monitor_report(
                one_neuron.flow_batch(self.inits(0), problem, cfg), problem, slack=LYAPUNOV_SLACK
            )

    def run(self, index: int) -> BatchOutput:
        problem = self.problems[index % len(self.problems)]
        batch = one_neuron.flow_batch(self.inits(index), problem, self.cfg)
        report = one_neuron.monitor_report(batch, problem, slack=LYAPUNOV_SLACK)
        return BatchOutput(index, batch, report)

    def bytes_written(self, output: BatchOutput) -> int:
        return 0

    def check(self, output: BatchOutput) -> list[str]:
        problems = []
        b = output.batch
        if b.states.shape != (self.integrator_steps + 1, self.batch, 3):
            problems.append(f"states of shape {b.states.shape}")
        if b.aborted.any():
            problems.append(f"{int(b.aborted.sum())} trajectories aborted")
        violations = {k: v["violations"] for k, v in output.report.items() if v["violations"]}
        for name in KNOWN_DEFECT_MONITORS:
            self.known_defects[f"{name}_violations"] += violations.pop(name, 0)
        if violations:
            problems.append(f"monitor violations {violations}")
        if not np.all(np.isfinite(b.states)):
            problems.append("non-finite states")
            return problems
        dev = float(np.max(np.abs(b.states[..., 0] ** 2 + b.states[..., 1] ** 2 - 1.0)))
        if not dev <= CIRCLE_DEV_TOL:
            problems.append(f"circle deviation {dev!r} > {CIRCLE_DEV_TOL}")
        problem = self.problems[output.index % len(self.problems)]
        risks = one_neuron.risk_batch(b.states.reshape(-1, 3), problem).reshape(b.states.shape[:2])
        worst = float(np.max(np.diff(risks, axis=0)))
        if worst > RISK_RISE_TOL:
            problems.append(f"risk rose by {worst!r} in one step")
        return problems


WORKLOADS = {w.name: w for w in (ShallowFlow, DeepGD, CircleBatch)}
