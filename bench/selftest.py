"""Self-test of the benchmark at minimal length.

    python3 bench/selftest.py

Checks, from the repository root:

* each workload's run (--seconds 1, both --trace 0 and --trace 1) emits
  exactly the metrics BENCHMARK.json names, each with its unit, and no unit
  fails;
* a second traced run repeats the traced counts exactly;
* a deliberately corrupted output of each workload (a risk row 1e-6 above
  the row before it, a last risk 1e-6 above the first, a state pushed 1e-9
  off the circle, a batch's last states reset to its first) is counted as a failed unit by the same loop that
  produces fail_frac;
* in a directory holding only BENCHMARK.json and bench/, run.py exits
  non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SEED = 1
EXACT_COUNTS = (
    "dynamics.grad_calls_per_step",
    "params.neuron_indices_per_step",
    "quadrature.rule_builds",
    "quadrature.distinct_frac",
    "one_neuron.gradient_batch_calls_per_step",
)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200,
    )


def run_result(workload: str, trace: int) -> dict:
    done = run_bench(ROOT, "--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", str(trace))
    if done.returncode != 0:
        raise RuntimeError(f"exit code {done.returncode}: {done.stderr[-300:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check_emitted(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            where = f"{w['name']} --trace {trace}"
            try:
                result = run_result(w["name"], trace)
            except RuntimeError as e:
                problems.append(f"{where}: {e}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: fail_frac {result['failed']}/{result['attempted']}")
            print(f"{where}: {len(got)} metrics, {result['failed']}/{result['attempted']} failed")
            if trace:
                again = run_result(w["name"], trace)["metrics"]
                problems += [f"{where}: {name} {result['metrics'][name]['value']} then "
                             f"{again[name]['value']}" for name in EXACT_COUNTS
                             if again[name] != result["metrics"][name]]
    return problems


def corrupt_risk_row(path: Path, row: int, base_row: int) -> None:
    """Set data row `row`'s risk 1e-6 above data row `base_row`'s."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("risk")
    cells = lines[row].split(",")
    cells[col] = repr(float(lines[base_row].split(",")[col]) + 1e-6)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption_counted() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from worker import OUT_DIR, measure
    from workloads import CircleBatch, DeepGD, ShallowFlow

    class RisingRisk(ShallowFlow):
        def run(self, index):
            out = super().run(index)
            if index == 1:
                corrupt_risk_row(out.out / "trajectory.csv", 5, 4)
            return out

    class FinalRiskAboveFirst(DeepGD):
        def run(self, index):
            out = super().run(index)
            if index == 1:
                corrupt_risk_row(out.out / "trajectory.csv", self.integrator_steps + 1, 1)
            return out

    class OffCircle(CircleBatch):
        def run(self, index):
            out = super().run(index)
            if index == 1:
                out.batch.states[10, 3, :2] *= 1.0 + 1e-9
            return out

    class CircleRiskRise(CircleBatch):
        def run(self, index):
            out = super().run(index)
            if index == 1:
                out.batch.states[-1] = out.batch.states[0]
            return out

    problems = []
    for cls in (RisingRisk, FinalRiskAboveFirst, OffCircle, CircleRiskRise):
        phase = measure(cls(SEED, OUT_DIR / "selftest"), units=2)
        failed = [i for i, _ in phase["failures"]]
        print(f"corrupted {cls.name} unit 1: failed units {failed}: "
              f"{[p[0] for _, p in phase['failures']]}")
        if failed != [1]:
            problems.append(f"{cls.__name__}: failed units {failed}, expected [1]")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, "--workload", "shallow_flow", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    print(f"bare directory: exit code {done.returncode}, {len(done.stdout.splitlines())} stdout lines")
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_corruption_counted() + check_bare_directory() + check_emitted(spec)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
