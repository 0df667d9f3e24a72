"""Invariant verification suite.

Each check exercises one provable property of the method at a fixed tolerance
and returns a machine-readable result.  The suite is fully seeded: a fixed
root seed yields byte-identical reports.  Wall-clock budgets are asserted by
the test harness, never stored in the report.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import one_neuron as on
from .dynamics import FlowConfig, integrate_flow
from .gradients import fd_gradient, generalized_gradient
from .manifold import project_gradient, random_on_manifold, rescale_full
from .network import forward, realize
from .params import Architecture, ParamVector, random_params
from .quadrature import integrate, quadrature_nodes, quiet, uniform_measure
from .runner import ExperimentConfig, run_experiment
from .smoothing import activation_knots
from .targets import (
    TargetFunction,
    abs_offset_target,
    affine_target,
    piecewise_linear_target,
)

ARCHS = ((1, 1, 1), (1, 8, 1), (2, 4, 4, 1))
GRID_RESOLUTION = 24  # quadrature knob for multivariate inputs at desk scale
LYAPUNOV_TARGETS = (
    ("affine_up", affine_target(0.0, 1.0)),
    ("abs_offset", abs_offset_target(0.3)),
    ("affine_down", affine_target(1.0, -1.0)),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _measure_for(dims):
    return uniform_measure(0.0, 1.0, dims[0])


def _target_for(dims):
    if dims[0] == 1:
        return TargetFunction.from_scalar(abs_offset_target(0.3))
    return TargetFunction.affine_map(np.ones((dims[-1], dims[0])) * 0.5, np.zeros(dims[-1]))


def _resolution_for(dims):
    return GRID_RESOLUTION if dims[0] > 1 else None


def _grid_for(dims, points_per_axis=101):
    axes = [np.linspace(0.0, 1.0, points_per_axis)] * dims[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _theta_draws(seed, count_per_arch=(67, 67, 66)):
    for dims, count in zip(ARCHS, count_per_arch):
        arch = Architecture(dims)
        rng = _rng(seed, 1, dims[0], len(dims))
        for _ in range(count):
            yield arch, random_params(arch, rng)


def check_rescaling_invariance(seed) -> CheckResult:
    """Full cascade leaves the realization unchanged on a dense grid."""
    worst = 0.0
    n = 0
    for arch, theta in _theta_draws(seed):
        dims = arch.layer_dims
        measure = _measure_for(dims)
        res = _resolution_for(dims)
        grid = _grid_for(dims)
        y0 = realize(theta, grid, measure, resolution=res)
        y1 = realize(rescale_full(theta), grid, measure, resolution=res)
        worst = max(worst, float(np.max(np.abs(y0 - y1) / (1.0 + np.abs(y0)))))
        n += 1
    return CheckResult(
        "rescaling_realization_invariance",
        worst <= 1e-10,
        {"theta_count": n, "max_relative_deviation": worst, "tolerance": 1e-10},
    )


def check_unit_norms(seed) -> CheckResult:
    """After the cascade every hidden subvector has unit norm."""
    worst = 0.0
    for arch, theta in _theta_draws(seed):
        out = rescale_full(theta)
        for idx in arch.subvector_rows[:-1]:
            V = out.values[idx]
            worst = max(worst, float(np.max(np.abs(np.sqrt(np.vecdot(V, V)) - 1.0))))
    return CheckResult(
        "unit_norm_postcondition",
        worst <= 1e-12,
        {"max_norm_deviation": worst, "tolerance": 1e-12},
    )


def check_flow_invariance(seed):
    """Constraint values stay at 1 along the flow, with and without the
    per-step retraction.  Returns the trajectories for the risk check."""
    details = {}
    passed = True
    trajectories = []
    for dims in ARCHS:
        arch = Architecture(dims)
        rng = _rng(seed, 3, len(dims), dims[1])
        xi = random_params(arch, rng)
        measure, f, res = _measure_for(dims), _target_for(dims), _resolution_for(dims)
        for reproject, tol in ((False, 1e-6), (True, 1e-12)):
            cfg = FlowConfig(t_end=1.0, step=1e-3, reproject=reproject, resolution=res)
            rec = integrate_flow(xi, measure, f, cfg)
            dev = max(rec.psi_max_dev)
            key = f"{dims}{'_reproject' if reproject else ''}"
            details[key] = {"max_psi_dev": dev, "tolerance": tol, "termination": rec.termination}
            passed = passed and dev <= tol and rec.termination == "completed"
            trajectories.append(rec)
    return CheckResult("psi_invariance_along_flow", passed, details), trajectories


def check_monotone_risk(trajectories) -> CheckResult:
    """Risk is non-increasing along every accepted trajectory (1e-8 slack/step)."""
    worst = -np.inf
    for rec in trajectories:
        worst = max(worst, float(np.max(np.diff(np.asarray(rec.risk)))))
    return CheckResult(
        "monotone_risk",
        worst <= 1e-8,
        {"max_risk_increase_per_step": worst, "tolerance": 1e-8},
    )


def check_tangency(seed) -> CheckResult:
    """Projected gradients are orthogonal to every constraint gradient."""
    worst = 0.0
    for dims in ARCHS:
        arch = Architecture(dims)
        rng = _rng(seed, 5, len(dims))
        measure, f, res = _measure_for(dims), _target_for(dims), _resolution_for(dims)
        for _ in range(1000):
            theta = random_on_manifold(arch, rng)
            G = project_gradient(theta, generalized_gradient(theta, measure, f, resolution=res))
            for idx in arch.subvector_rows[:-1]:
                worst = max(worst, float(np.max(np.abs(2.0 * np.vecdot(theta.values[idx], G[idx])))))
    return CheckResult(
        "projected_gradient_tangency",
        worst <= 1e-12,
        {"max_inner_product": worst, "tolerance": 1e-12, "points_per_arch": 1000},
    )


def _smooth_region_theta(arch, measure, rng, r, resolution, margin_factor=0.5, tries=50):
    """Draw theta whose hidden pre-activations stay away from the smoothing
    band's knots on the quadrature grid."""
    X, _ = quadrature_nodes(measure, resolution=resolution or 64)
    knots = activation_knots(r)
    for _ in range(tries):
        theta = random_params(arch, rng)
        pres, _ = forward(theta, X, r=r)
        dist = min(float(np.min(np.abs(z[..., None] - knots))) for z in pres)
        if dist > margin_factor / r:
            return theta
    return theta


def check_gradient_fd_oracle(seed) -> CheckResult:
    """Analytic smoothed gradient vs central finite differences."""
    r, h = 100.0, 1e-5
    worst = 0.0
    count = 0
    for dims, n in (((1, 1, 1), 34), ((1, 8, 1), 33), ((2, 3, 1), 33)):
        arch = Architecture(dims)
        rng = _rng(seed, 6, len(dims), dims[1])
        measure, f, res = _measure_for(dims), _target_for(dims), _resolution_for(dims)
        for _ in range(n):
            theta = _smooth_region_theta(arch, measure, rng, r, res)
            g = generalized_gradient(theta, measure, f, r=r, resolution=res)
            fd = fd_gradient(theta, measure, f, r=r, h=h, resolution=res)
            rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
            worst = max(worst, rel)
            count += 1
    return CheckResult(
        "gradient_fd_oracle",
        worst <= 1e-4,
        {"theta_count": count, "max_relative_error": worst, "tolerance": 1e-4,
         "smoothing_index": r, "fd_step": h},
    )


def check_one_neuron_gradient_identity(seed) -> CheckResult:
    """Closed-form circle gradient equals the projected full-network gradient."""
    arch = Architecture((1, 1, 1))
    measure = uniform_measure(0.0, 1.0, 1)
    rng = _rng(seed, 7)
    worst = 0.0
    worst_bias = 0.0
    for _ in range(1000):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        t = np.array([np.cos(angle), np.sin(angle), 1.5 * rng.standard_normal()])
        knots = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
        f = piecewise_linear_target(knots, rng.standard_normal(5))
        tf = TargetFunction.from_scalar(f)
        full = ParamVector(arch, np.array([t[0], t[1], t[2], f.mean()]))
        G = project_gradient(full, generalized_gradient(full, measure, tf))
        worst = max(worst, float(np.max(np.abs(G[:3] - on.grad_1n(t, f)))))
        worst_bias = max(worst_bias, abs(float(G[3])))
    return CheckResult(
        "one_neuron_gradient_identity",
        worst <= 1e-9 and worst_bias <= 1e-9,
        {"max_component_deviation": worst, "max_output_bias_component": worst_bias,
         "tolerance": 1e-9, "draws": 1000},
    )


def check_integral_identities(seed) -> CheckResult:
    """Regime closed forms vs the segment-quadrature oracle (both breakpoint
    regimes, including the sign-corrected left-regime mean)."""
    measure = uniform_measure(0.0, 1.0, 1)
    rng = _rng(seed, 8)
    worst = 0.0
    for _ in range(10000):
        q = rng.uniform(1e-3, 1.0 - 1e-3)
        t1 = rng.choice((1.0, -1.0)) * rng.uniform(0.1, 2.0)
        t2 = -q * t1
        ci = on.closed_integrals((t1, t2, 0.0))
        m = integrate(lambda X: np.maximum(t1 * X[:, 0] + t2, 0.0), measure, breakpoints=[q])
        first = integrate(
            lambda X: (np.maximum(t1 * X[:, 0] + t2, 0.0) - m) * (t1 * X[:, 0] + t2 > 0.0),
            measure, breakpoints=[q],
        )
        second = integrate(
            lambda X: (np.maximum(t1 * X[:, 0] + t2, 0.0) - m) ** 2, measure, breakpoints=[q]
        )
        worst = max(
            worst,
            abs(ci["m"] - m),
            abs(ci["centered_first_moment"] - first),
            abs(ci["centered_second_moment"] - second),
        )
    return CheckResult(
        "integral_identities",
        worst <= 1e-12,
        {"max_deviation": worst, "tolerance": 1e-12, "draws": 10000},
    )


def check_conservation(seed) -> CheckResult:
    """t3^2 + ln(1 - t1^2) is constant along full-regime flow segments."""
    problem = on.as_problem(affine_target(0.0, 1.0))
    angles = np.array([0.6, 0.9273, 1.2])
    inits = np.stack([np.cos(angles), np.sin(angles), np.array([0.5, -0.4, 1.0])], axis=1)
    cfg = on.OneNeuronConfig(t_end=2.0, step=1e-4, renormalize=False)
    batch = on.flow_batch(inits, problem, cfg)
    rep = on.monitor_report(batch, problem, conservation_rate=1e-6)["conserved_full"]
    passed = rep["violations"] == 0 and rep["checked_pairs"] >= 1000
    return CheckResult(
        "full_regime_conservation",
        passed,
        {**rep, "rate_tolerance": 1e-6, "step": 1e-4},
    )


def _window_inits(problem, rng, n_random):
    """Random circle states plus deliberate states inside each monitor window."""
    w = problem.windows
    blocks = [on.random_circle_states(rng, n_random, t3_scale=1.0)]

    def at_q(q, sign_t1, t3):
        t1 = sign_t1 / np.sqrt(1.0 + q * q)
        return [t1, -q * t1, t3]

    extra = []
    if w.eps_right_band > 0:
        q = 1.0 - 0.3 * w.eps_right_band
        s = -1.0 if w.right_sign > 0 else 1.0
        extra += [at_q(q, 1.0, s * 0.8), at_q(q, 1.0, s * 0.2)]
    if w.eps_left_band > 0:
        q = 0.3 * w.eps_left_band
        s = 1.0 if w.left_sign > 0 else -1.0
        extra += [at_q(q, -1.0, s * 0.8), at_q(q, -1.0, s * 0.2)]
    if w.eps_right_plain > 0:
        q = 1.0 - 0.5 * w.eps_right_plain
        s = -0.5 if w.right_sign > 0 else 0.5
        extra += [at_q(q, 1.0, s), at_q(q, 1.0, 2.0 * s)]
    if w.eps_left_plain > 0:
        q = 0.5 * w.eps_left_plain
        s = -0.5 if w.left_sign > 0 else 0.5
        extra += [at_q(q, -1.0, s), at_q(q, -1.0, 2.0 * s)]
    blocks.append(np.asarray(extra))
    return np.concatenate(blocks, axis=0)


def check_lyapunov_monotonicity(seed) -> CheckResult:
    """Designated quantities are non-increasing in their regime windows."""
    details = {}
    passed = True
    for name, f in LYAPUNOV_TARGETS:
        problem = on.as_problem(f)
        rng = _rng(seed, 10, len(name))
        inits = _window_inits(problem, rng, n_random=12)[:20]
        cfg = on.OneNeuronConfig(t_end=10.0, step=1e-3, renormalize=True)
        batch = on.flow_batch(inits, problem, cfg)
        rep = on.monitor_report(batch, problem, slack=1e-6)
        details[name] = {
            k: {"checked_pairs": v["checked_pairs"], "violations": v["violations"],
                "worst_increase": v["worst_increase"]}
            for k, v in rep.items()
        }
        for k, v in rep.items():
            passed = passed and v["violations"] == 0
        # the windows must actually have been exercised
        passed = passed and all(rep[k]["checked_pairs"] > 0 for k in ("theta3_sq", "v_right", "v_left"))
    return CheckResult(
        "lyapunov_monotonicity",
        passed,
        {"slack_per_step": 1e-6, "step": 1e-3, "trajectories_per_target": 20, **details},
    )


def check_boundedness(seed) -> CheckResult:
    """Long-horizon evidence: no blow-up, plateauing sup-norms, clean monitors."""
    details = {}
    passed = True
    counts = (34, 33, 33)
    cfg = on.OneNeuronConfig(t_end=100.0, step=1e-2, renormalize=True)
    for (name, f), n in zip(LYAPUNOV_TARGETS, counts):
        rep = on.boundedness_experiment(f, seed + 11, cfg, n_trajectories=n, lyapunov_slack=1e-5)
        details[name] = {
            "sup_norm": rep["sup_norm"],
            "plateau_ratio_max": rep["plateau_ratio_max"],
            "aborted": rep["aborted"],
            "lyapunov_violations": rep["lyapunov_violations"],
            "regime_occupancy": rep["regime_occupancy"],
        }
        passed = (
            passed
            and rep["aborted"] == 0
            and rep["plateau_ratio_max"] < 1.01
            and all(v == 0 for v in rep["lyapunov_violations"].values())
        )
    return CheckResult(
        "boundedness_evidence",
        passed,
        {"horizon": 100.0, "trajectories": sum(counts), **details},
    )


def check_affine_integral_bound(seed) -> CheckResult:
    """int_I (a x + b)^2 dx >= a^2 len(I)^3 / 12 over random draws."""
    rng = _rng(seed, 12)
    failures = 0
    for _ in range(100000):
        alpha, beta = 10.0 * rng.standard_normal(2)
        ends = np.sort(rng.uniform(-5.0, 5.0, 2))
        if not on.affine_integral_bound_check(alpha, beta, ends):
            failures += 1
    return CheckResult(
        "affine_integral_bound",
        failures == 0,
        {"draws": 100000, "failures": failures},
    )


def check_rescaled_flow_identity(seed) -> CheckResult:
    """With the rescaled step factor, dL/dt matches -|raw gradient|^2."""
    problem = on.as_problem(abs_offset_target(0.3))
    h = 1e-4
    cfg = on.OneNeuronConfig(t_end=0.5, step=h, renormalize=True, gamma="rescaled")
    rec = on.flow_batch(np.array([[0.6, 0.8, 0.9]]), problem, cfg).row(0)
    L, states = rec.risk, rec.states
    proj, raw, _ = quiet(on._one_pass)(states, problem)
    raw2 = np.sum(raw**2, axis=-1)
    proj2 = np.sum(proj**2, axis=-1)
    code, _ = on._regime_codes(states[:, 0], states[:, 1])
    fd = (L[2:] - L[:-2]) / (2.0 * h)
    smooth = (
        (code[:-2] == code[1:-1]) & (code[1:-1] == code[2:])
        & (raw2[1:-1] > 1e-10)
        & (proj2[1:-1] * on.GAMMA_CAP > raw2[1:-1])
    )
    rel = np.abs(fd + raw2[1:-1]) / np.maximum(raw2[1:-1], 1e-300)
    worst = float(rel[smooth].max()) if smooth.any() else np.inf
    return CheckResult(
        "rescaled_flow_identity",
        smooth.sum() >= 100 and worst <= 0.02,
        {"checked_steps": int(smooth.sum()), "max_relative_deviation": worst,
         "tolerance": 0.02, "step": h},
    )


def check_determinism(seed) -> CheckResult:
    """Identical config + seed produce byte-identical outputs."""
    details = {}
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        configs = {
            "one_neuron_run": ExperimentConfig(
                mode="one-neuron",
                architecture=(1, 1, 1),
                target={"name": "affine", "intercept": 0.0, "slope": 1.0},
                t_end=0.5, step=1e-3, seed=seed + 1, out=str(Path(tmp) / "a"),
            ),
            "flow_run": ExperimentConfig(
                mode="flow",
                architecture=(1, 8, 1),
                target={"name": "abs_offset", "center": 0.3},
                t_end=0.05, step=1e-3, seed=seed + 2, out=str(Path(tmp) / "b"),
            ),
        }
        for key, cfg in configs.items():
            run_experiment(cfg)
            first = {p.name: p.read_bytes() for p in Path(cfg.out).iterdir()}
            run_experiment(cfg)
            second = {p.name: p.read_bytes() for p in Path(cfg.out).iterdir()}
            same = first == second
            details[key] = {"files": sorted(first), "byte_identical": same}
            passed = passed and same
    # re-running a verification check with the same seed reproduces its report
    a = json.dumps(check_unit_norms(seed).as_dict(), sort_keys=True)
    b = json.dumps(check_unit_norms(seed).as_dict(), sort_keys=True)
    details["verify_check_rerun"] = {"byte_identical": a == b}
    passed = passed and a == b
    return CheckResult("determinism", passed, details)


@dataclass
class VerifyOutcome:
    results: list
    timings: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def report(self, seed) -> dict:
        return {
            "seed": seed,
            "all_passed": self.all_passed,
            "criteria": [r.as_dict() for r in self.results],
        }


def verify_all(seed: int = 0, echo=None) -> VerifyOutcome:
    """Run the full suite; `echo` (if given) receives one line per criterion with its seconds."""
    results = []
    timings = {}

    def run(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        res = out[0] if isinstance(out, tuple) else out
        timings[res.name] = time.perf_counter() - t0
        results.append(res)
        if echo:
            echo(f"[{'PASS' if res.passed else 'FAIL'}] {res.name} ({timings[res.name]:.1f} s)")
        return out

    run(check_rescaling_invariance, seed)
    run(check_unit_norms, seed)
    _, trajectories = run(check_flow_invariance, seed)
    run(check_monotone_risk, trajectories)
    run(check_tangency, seed)
    run(check_gradient_fd_oracle, seed)
    run(check_one_neuron_gradient_identity, seed)
    run(check_integral_identities, seed)
    run(check_conservation, seed)
    run(check_lyapunov_monotonicity, seed)
    run(check_boundedness, seed)
    run(check_affine_integral_bound, seed)
    run(check_rescaled_flow_identity, seed)
    run(check_determinism, seed)
    return VerifyOutcome(results, timings)
