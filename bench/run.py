"""mgflow benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload shallow_flow --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in its own fresh process
(bench/worker.py) with BLAS/OpenMP threads set to 1.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced pass.  The
lines before it repeat the metrics with units, the failure fraction and the
machine record.  The full record, with the failed units' problems, is
written to .bench_out/<workload>/.  bench/DESIGN.md explains the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("shallow_flow", "deep_gd", "circle_batch")
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 9   # fresh processes timed from spawn to ready, median reported
RUN_LIMIT_S = 170   # every child is killed and reaped before this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
UNMEASURED = {
    "verify": "one pass takes about 100 s; its per-criterion seconds come from verify_all().timings",
    "cli": "argument parsing around run_experiment, which the network workloads call directly",
    "finite_r_smoothing": "every workload runs exact ReLU, the default",
    "rescaled_gamma": "every workload runs a constant gamma, the default",
    "wide_batches": "B = 3400 one-neuron batches take too long for a run of run_seconds",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, list[str]]:
    """Run the worker; return its set-up times and its stdout lines."""
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawned", repr(spawned)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned), check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {RUN_LIMIT_S} s")
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited with code {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed nothing")
    return json.loads(lines[0]), lines


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine(versions: dict) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "threads": {name: "1" for name in THREAD_VARS},
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mgflow" / "__init__.py").is_file():
        print(f"bench: no mgflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child([*worker_args, "--setup-only"], deadline)[0])
        setup, lines = run_child(worker_args, deadline)
        setups.append(setup)
        out = json.loads(lines[-1])
    except (BenchError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = out["metrics"]
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups), **out["metrics"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = out["attempted"], out["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(out["versions"]),
        "setup_samples": setups,
        "fail_frac": failed / attempted,
        "failures": out["failures"],
        "truncated": out["truncated"],
        "known_defects": out["known_defects"],
        "metrics": metrics,
        "unmeasured": UNMEASURED,
        **{k: out[k] for k in ("units", "wall_s", "unscaled", "trace_units", "spans") if k in out},
    }
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"record_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    samples = f"{out['units']} units" if "units" in out else f"{out['trace_units']} traced units"
    print(f"  {'fail_frac':44s} {failed / attempted:.6g} ({failed}/{attempted} units; {samples})")
    if "unscaled" in out:
        print("  unscaled wall-clock figures:",
              ", ".join(f"{k} {v:.6g}" for k, v in out["unscaled"].items()))
    for name, count in out["known_defects"].items():
        print(f"  known defect, not a failure: {name} {count}")
    for i, problems in out["failures"]:
        print(f"  unit {i} failed: {problems[0].splitlines()[-1]}")
    print("machine:", json.dumps(record["machine"], sort_keys=True))
    correct = failed == 0 and not out["truncated"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
