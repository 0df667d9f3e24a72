"""Invariant verification suite.

Each check exercises one provable property of the method at a fixed tolerance
and returns a machine-readable result.  The suite is fully seeded: a fixed
root seed yields byte-identical reports.  Wall-clock budgets are asserted by
the test harness, never stored in the report.
"""

from __future__ import annotations

import ctypes
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import one_neuron as on
from .dynamics import GAMMA_CAP, FlowConfig, integrate_flow
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


def _bounded(name, tol, details=None, **deviations) -> CheckResult:
    """The verdict of a tolerance-bounded criterion: each keyword's per-draw
    measurements reduce to their worst with `np.max`, so a nan stays nan and
    fails; the criterion passes only when every worst is at most tol."""
    worst = {key: float(np.max(values)) for key, values in deviations.items()}
    return CheckResult(name, all(w <= tol for w in worst.values()), {**worst, "tolerance": tol, **(details or {})})


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _setup(dims):
    """The measure, target and quadrature resolution every network check uses for dims."""
    measure = uniform_measure(0.0, 1.0, dims[0])
    if dims[0] == 1:
        return measure, TargetFunction.from_scalar(abs_offset_target(0.3)), None
    return measure, TargetFunction.affine_map(np.ones((dims[-1], dims[0])) * 0.5, np.zeros(dims[-1])), GRID_RESOLUTION


def _grid_for(dims):
    axes = [np.linspace(0.0, 1.0, 101)] * dims[0]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _theta_draws(seed):
    for dims, count in zip(ARCHS, (67, 67, 66)):
        arch = Architecture(dims)
        rng = _rng(seed, 1, dims[0], len(dims))
        for _ in range(count):
            yield arch, random_params(arch, rng)


def check_rescaling_invariance(seed) -> CheckResult:
    """Full cascade leaves the realization unchanged on a dense grid."""
    devs = []
    for arch, theta in _theta_draws(seed):
        dims = arch.layer_dims
        measure, _, res = _setup(dims)
        grid = _grid_for(dims)
        y0 = realize(theta, grid, measure, resolution=res)
        y1 = realize(rescale_full(theta), grid, measure, resolution=res)
        devs.append(np.max(np.abs(y0 - y1) / (1.0 + np.abs(y0))))
    return _bounded("rescaling_realization_invariance", 1e-10, {"theta_count": len(devs)},
                    max_relative_deviation=devs)


def check_unit_norms(seed) -> CheckResult:
    """After the cascade every hidden subvector has unit norm."""
    devs = []
    for arch, theta in _theta_draws(seed):
        out = rescale_full(theta)
        for idx in arch.subvector_rows[:-1]:
            V = out.values[idx]
            devs.append(np.max(np.abs(np.sqrt(np.vecdot(V, V)) - 1.0)))
    return _bounded("unit_norm_postcondition", 1e-12, max_norm_deviation=devs)


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
        measure, f, res = _setup(dims)
        for renormalize, tol in ((False, 1e-6), (True, 1e-12)):
            cfg = FlowConfig(t_end=1.0, step=1e-3, renormalize=renormalize)
            rec = integrate_flow(xi, measure, f, cfg, resolution=res)
            dev = float(np.max(rec.psi_max_dev))
            key = f"{dims}{'_reproject' if renormalize else ''}"
            details[key] = {"max_psi_dev": dev, "tolerance": tol, "termination": rec.termination}
            passed = passed and dev <= tol and rec.termination == "completed"
            trajectories.append(rec)
    return CheckResult("psi_invariance_along_flow", passed, details), trajectories


def check_monotone_risk(trajectories) -> CheckResult:
    """Risk is non-increasing along every accepted trajectory, up to the tolerance per step."""
    return _bounded("monotone_risk", 1e-8,
                    max_risk_increase_per_step=np.concatenate([np.diff(rec.risk) for rec in trajectories]))


def check_tangency(seed) -> CheckResult:
    """Projected gradients are orthogonal to every constraint gradient."""
    points, products = 1000, []
    for dims in ARCHS:
        arch = Architecture(dims)
        rng = _rng(seed, 5, len(dims))
        measure, f, res = _setup(dims)
        for _ in range(points):
            theta = random_on_manifold(arch, rng)
            G = project_gradient(theta, generalized_gradient(theta, measure, f, resolution=res))
            for idx in arch.subvector_rows[:-1]:
                products.append(np.max(np.abs(2.0 * np.vecdot(theta.values[idx], G[idx]))))
    return _bounded("projected_gradient_tangency", 1e-12, {"points_per_arch": points},
                    max_inner_product=products)


def _smooth_region_theta(arch, measure, rng, r, resolution):
    """Draw theta whose hidden pre-activations stay more than 0.5 / r away from
    the smoothing band's knots on the quadrature grid, in at most 50 tries."""
    X, _ = quadrature_nodes(measure, resolution=resolution or 64)
    knots = activation_knots(r)
    for _ in range(50):
        theta = random_params(arch, rng)
        pres, _ = forward(theta, X, r=r)
        dist = min(float(np.min(np.abs(z[..., None] - knots))) for z in pres)
        if dist > 0.5 / r:
            return theta
    return theta


def check_gradient_fd_oracle(seed) -> CheckResult:
    """Analytic smoothed gradient vs central finite differences."""
    r, h = 100.0, 1e-5
    errors = []
    for dims, n in (((1, 1, 1), 34), ((1, 8, 1), 33), ((2, 3, 1), 33)):
        arch = Architecture(dims)
        rng = _rng(seed, 6, len(dims), dims[1])
        measure, f, res = _setup(dims)
        for _ in range(n):
            theta = _smooth_region_theta(arch, measure, rng, r, res)
            g = generalized_gradient(theta, measure, f, r=r, resolution=res)
            fd = fd_gradient(theta, measure, f, r=r, h=h, resolution=res)
            errors.append(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))
    return _bounded("gradient_fd_oracle", 1e-4, {"theta_count": len(errors), "smoothing_index": r, "fd_step": h},
                    max_relative_error=errors)


def check_one_neuron_gradient_identity(seed) -> CheckResult:
    """Closed-form circle gradient equals the projected full-network gradient."""
    arch = Architecture((1, 1, 1))
    measure = uniform_measure(0.0, 1.0, 1)
    rng = _rng(seed, 7)
    draws, deviations, biases = 1000, [], []
    for _ in range(draws):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        t = np.array([np.cos(angle), np.sin(angle), 1.5 * rng.standard_normal()])
        knots = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
        f = piecewise_linear_target(knots, rng.standard_normal(5))
        tf = TargetFunction.from_scalar(f)
        full = ParamVector(arch, np.array([t[0], t[1], t[2], f.mean()]))
        G = project_gradient(full, generalized_gradient(full, measure, tf))
        deviations.append(np.max(np.abs(G[:3] - on.grad_1n(t, f))))
        biases.append(abs(G[3]))
    return _bounded("one_neuron_gradient_identity", 1e-9, {"draws": draws},
                    max_component_deviation=deviations, max_output_bias_component=biases)


def check_integral_identities(seed) -> CheckResult:
    """Regime closed forms vs the segment-quadrature oracle (both breakpoint
    regimes, including the sign-corrected left-regime mean)."""
    measure = uniform_measure(0.0, 1.0, 1)
    rng = _rng(seed, 8)
    draws, deviations = 10000, []
    for _ in range(draws):
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
        deviations += [ci["m"] - m, ci["centered_first_moment"] - first, ci["centered_second_moment"] - second]
    return _bounded("integral_identities", 1e-12, {"draws": draws}, max_deviation=np.abs(deviations))


def check_conservation(seed) -> CheckResult:
    """t3^2 + ln(1 - t1^2) is constant along full-regime flow segments."""
    problem = on.as_problem(affine_target(0.0, 1.0))
    angles = np.array([0.6, 0.9273, 1.2])
    inits = np.stack([np.cos(angles), np.sin(angles), np.array([0.5, -0.4, 1.0])], axis=1)
    rate, h = 1e-6, 1e-4
    batch = on.flow_batch(inits, problem, FlowConfig(t_end=2.0, step=h, renormalize=False))
    rep = on.monitor_report(batch, problem, conservation_rate=rate)["conserved_full"]
    passed = rep["violations"] == 0 and rep["checked_pairs"] >= 1000
    return CheckResult("full_regime_conservation", passed, {**rep, "rate_tolerance": rate, "step": h})


def _window_inits(problem, rng):
    """12 random circle states plus deliberate states inside each monitor
    window: per kind of window and side (t1 > 0 right, t1 < 0 left), two
    states at q = -t2 / t1 a fraction of the window's width in from the side's
    end, with the two t3 magnitudes of the kind.  t3 has the sign opposite to
    the side's, times the sign of t1 in a band."""
    w = problem.windows
    extra = []
    for kind, frac, magnitudes in (("band", 0.3, (0.8, 0.2)), ("plain", 0.5, (0.5, 1.0))):
        for side, sign_t1 in ((w.right, 1.0), (w.left, -1.0)):
            if (width := getattr(side, kind)) > 0:
                q = 1.0 - frac * width if sign_t1 > 0 else frac * width
                s = (-1.0 if side.sign > 0 else 1.0) * (sign_t1 if kind == "band" else 1.0)
                t1 = sign_t1 / np.sqrt(1.0 + q * q)
                extra += [[t1, -q * t1, s * m] for m in magnitudes]
    return np.concatenate([on.random_circle_states(rng, 12, t3_scale=1.0), np.asarray(extra)], axis=0)


def check_lyapunov_monotonicity(seed) -> CheckResult:
    """Designated quantities are non-increasing in their regime windows."""
    slack, h, count = 1e-6, 1e-3, 20
    details = {"slack_per_step": slack, "step": h, "trajectories_per_target": count}
    passed = True
    for name, f in LYAPUNOV_TARGETS:
        problem = on.as_problem(f)
        rng = _rng(seed, 10, len(name))
        inits = _window_inits(problem, rng)[:count]
        batch = on.flow_batch(inits, problem, FlowConfig(t_end=10.0, step=h, renormalize=True))
        details[name] = rep = on.monitor_report(batch, problem, slack=slack)
        for k, v in rep.items():
            passed = passed and v["violations"] == 0
        # the windows must actually have been exercised
        passed = passed and all(rep[k]["checked_pairs"] > 0 for k in ("theta3_sq", "v_right", "v_left"))
    return CheckResult("lyapunov_monotonicity", passed, details)


def check_boundedness(seed) -> CheckResult:
    """Long-horizon evidence: no blow-up, plateauing sup-norms, clean monitors."""
    details = {}
    passed = True
    counts = (34, 33, 33)
    cfg = FlowConfig(t_end=100.0, step=1e-2, renormalize=True)
    for (name, f), n in zip(LYAPUNOV_TARGETS, counts):
        details[name] = rep = on.boundedness_experiment(f, seed + 11, cfg, n_trajectories=n)
        passed = (
            passed
            and rep["aborted"] == 0
            and rep["plateau_ratio_max"] < 1.01
            and all(v == 0 for v in rep["lyapunov_violations"].values())
        )
    return CheckResult("boundedness_evidence", passed, {"horizon": cfg.t_end, "trajectories": sum(counts), **details})


def check_affine_integral_bound(seed) -> CheckResult:
    """int_I (a x + b)^2 dx >= a^2 len(I)^3 / 12 over random draws."""
    rng = _rng(seed, 12)
    draws, failures = 100000, 0
    for _ in range(draws):
        alpha, beta = 10.0 * rng.standard_normal(2)
        ends = np.sort(rng.uniform(-5.0, 5.0, 2))
        if not on.affine_integral_bound_check(alpha, beta, ends):
            failures += 1
    return CheckResult("affine_integral_bound", failures == 0, {"draws": draws, "failures": failures})


def check_rescaled_flow_identity(seed) -> CheckResult:
    """With the rescaled step factor, dL/dt matches -|raw gradient|^2."""
    problem = on.as_problem(abs_offset_target(0.3))
    h, tol = 1e-4, 0.02
    cfg = FlowConfig(t_end=0.5, step=h, renormalize=True, gamma="rescaled")
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
        & (proj2[1:-1] * GAMMA_CAP > raw2[1:-1])
    )
    rel = np.abs(fd + raw2[1:-1]) / np.maximum(raw2[1:-1], 1e-300)
    worst = float(rel[smooth].max()) if smooth.any() else np.inf
    return CheckResult(
        "rescaled_flow_identity",
        smooth.sum() >= 100 and worst <= tol,
        {"checked_steps": int(smooth.sum()), "max_relative_deviation": worst, "tolerance": tol, "step": h},
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


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at load time (as
    OPENBLAS_CORETYPE names it), or "unknown" without a bundled OpenBLAS.
    The kernel sets how the network pass's matrix products round."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


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
