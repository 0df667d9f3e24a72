"""One benchmark process: set up one workload, then measure it.

`run.py` starts this script in a fresh process per workload, with the
BLAS/OpenMP thread counts set to 1 in its environment.  After set-up
(imports, targets, measures, one-neuron problems and a warm-up unit) it
prints its set-up time, counted from --spawned, a CLOCK_MONOTONIC reading
the parent took just before starting it; with --setup-only it stops there.
Otherwise it measures and prints one JSON line with the phase's figures as
its last line.

    python3 bench/worker.py --workload shallow_flow --seed 1 --seconds 30 --trace 0 \
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_UNITS = 100     # ten samples beyond the 90th percentile
ROUND = 4           # runs stop after whole rounds of circle_batch's targets
TRACE_UNITS = 40    # fixed, so traced counts repeat exactly; whole rounds
WALL_LIMIT_S = 140  # stop measuring early rather than overrun the run limit
SETUP_PROBES = 5    # probes after set-up; their median scales the set-up time
# Other tenants of the machine slow every process on it by up to 2x for
# seconds at a time (user CPU time grows with wall time, so it is not steal
# time).  A fixed probe runs between units, and each unit's wall time is
# scaled by PROBE_REF_S over the mean of the probes on its two sides: the
# unit's time at the speed at which the probe takes PROBE_REF_S, its
# uncontended time on an Intel Xeon host with 2 vCPUs.
PROBE_REPEATS = 400
PROBE_REF_S = 1.35e-3
_PROBE_A = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
_PROBE_V = np.linspace(1.0, 2.0, 8)
# deep_gd's time goes to arithmetic on 16,384-row arrays, which other tenants
# slow by a factor of their own (up to 1.4x while the small probe's stayed
# put).  Its units are scaled by the sum of the small probe and an array
# probe; ARRAY_PROBE_REF_S is the array probe's time at the speed at which
# the small probe takes PROBE_REF_S (median ratio 2.7 on the same host).
ARRAY_PROBE_REPEATS = 4
ARRAY_PROBE_REF_S = 3.6e-3
_ARRAY_X = np.linspace(0.0, 1.0, 2 * 16384).reshape(16384, 2)
_ARRAY_W1 = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
_ARRAY_W2 = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
_ARRAY_W3 = np.linspace(-1.0, 1.0, 4)


def probe() -> float:
    """Seconds for a fixed burst of small numpy operations, the kind of
    work the units do."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        np.maximum(_PROBE_A @ _PROBE_V, 0.0).sum()
    return time.perf_counter() - t0


def probe_arrays() -> float:
    """Seconds for fixed forward and backward passes of a 2,4,4,1 ReLU
    network on a 16,384-row input, the kind of work deep_gd's units do."""
    x, w1, w2, w3 = _ARRAY_X, _ARRAY_W1, _ARRAY_W2, _ARRAY_W3
    t0 = time.perf_counter()
    for _ in range(ARRAY_PROBE_REPEATS):
        z1 = x @ w1 + 0.1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 - 0.1
        r = np.maximum(z2, 0.0) @ w3 - x[:, 0]
        g2 = (r[:, None] * w3) * (z2 > 0.0)
        g1 = (g2 @ w2.T) * (z1 > 0.0)
        float(r @ r), a1.T @ g2, x.T @ g1
    return time.perf_counter() - t0


def unit_probe(wl):
    """The probe that scales `wl`'s unit times, and its reference seconds."""
    if wl.name == "deep_gd":
        return (lambda: probe() + probe_arrays()), PROBE_REF_S + ARRAY_PROBE_REF_S
    return probe, PROBE_REF_S


def measure(wl, *, seconds=None, units=None, tracer=None) -> dict:
    """Run units 0, 1, ... of `wl`, timing `run` and checking each output.

    Runs `units` units, or, without `units`, whole rounds of units until the
    wall time of the units reaches `seconds` and at least MIN_UNITS ran.
    """
    unit_probe_s, ref_s = unit_probe(wl)
    wall, scale, ran, probes, failures = [], [], [], [unit_probe_s()], []
    bytes_written = 0
    truncated = False
    wall_end = time.monotonic() + WALL_LIMIT_S
    i = 0
    while i < units if units is not None else (sum(wall) < seconds or i < MIN_UNITS or i % ROUND):
        if time.monotonic() > wall_end:
            truncated = True
            break
        output = None
        if tracer is not None:
            tracer.unit, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            output = wl.run(i)
        except Exception:
            problems = [traceback.format_exc()]
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        probes.append(unit_probe_s())
        if output is not None:
            try:
                problems = wl.check(output)
                bytes_written += wl.bytes_written(output)
            except Exception:
                problems = [traceback.format_exc()]
        wall.append(dt)
        scale.append(2.0 * ref_s / (probes[-2] + probes[-1]))
        ran.append(output is not None)
        if problems:
            failures.append((i, problems))
        i += 1
    return {
        "wall": wall,
        "scale": scale,
        "ran": ran,
        "steps_per_unit": wl.steps_per_unit,
        "attempted": len(wall),
        "failures": failures,
        "bytes_written": bytes_written,
        "truncated": truncated,
    }


def timings(phase: dict, scaled: bool = True) -> dict:
    """Throughput and unit-time percentiles over the units that ran."""
    times = [t * (f if scaled else 1.0)
             for t, f, ok in zip(phase["wall"], phase["scale"], phase["ran"]) if ok]
    return {
        "steps_per_s": phase["steps_per_unit"] * len(times) / sum(times),
        "unit_ms_p50": statistics.median(times) * 1e3,
        "unit_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
    }


def traced(wl, seed: int) -> tuple[dict, dict]:
    """Untraced then traced pass over the same TRACE_UNITS units."""
    from tracing import Tracer, layer_metrics

    plain = measure(wl, units=TRACE_UNITS)
    tracer = Tracer()
    tracer.install()
    try:
        phase = measure(wl, units=TRACE_UNITS, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT_DIR / wl.name / f"spans_seed{seed}.csv")
    overhead = timings(plain)["steps_per_s"] / timings(phase)["steps_per_s"] - 1.0
    metrics = layer_metrics(
        tracer,
        steps=TRACE_UNITS * wl.integrator_steps,
        scale=phase["scale"],
        bytes_written=phase["bytes_written"],
        overhead_frac=overhead,
    )
    merged = {
        "attempted": plain["attempted"] + phase["attempted"],
        "failures": plain["failures"] + phase["failures"],
        "truncated": plain["truncated"] or phase["truncated"],
        "spans": len(tracer.spans),
    }
    return merged, metrics


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import mgflow

    if Path(mgflow.__file__).resolve().parent != ROOT / "src" / "mgflow":
        raise SystemExit(f"mgflow was imported from {mgflow.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, OUT_DIR)
    wl.warm_up()
    setup = time.monotonic() - args.spawned
    scale = PROBE_REF_S / statistics.median(probe() for _ in range(SETUP_PROBES))
    print(json.dumps({"setup_wall_s": setup, "setup_s": setup * scale}), flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        phase, metrics = traced(wl, args.seed)
        extra = {"spans": phase["spans"], "trace_units": TRACE_UNITS}
    else:
        phase = measure(wl, seconds=args.seconds)
        metrics = {
            **timings(phase),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {
            "units": phase["attempted"],
            "wall_s": sum(phase["wall"]),
            "unscaled": timings(phase, scaled=False),
        }
    print(json.dumps({
        "attempted": phase["attempted"],
        "failed": len(phase["failures"]),
        "failures": phase["failures"][:5],
        "truncated": phase["truncated"],
        "known_defects": getattr(wl, "known_defects", {}),
        "metrics": metrics,
        "versions": versions(),
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
