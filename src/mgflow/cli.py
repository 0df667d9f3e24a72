"""Command-line entry point.

    mgflow flow       --config cfg.json [flags]   projected-flow run
    mgflow gd         --config cfg.json [flags]   normalized gradient descent
    mgflow one-neuron --config cfg.json [flags]   circle-constrained run
    mgflow verify     [--seed N --out DIR]        invariant suite

A config file is JSON with the fields of ExperimentConfig; command-line flags
override file values.  Runs write trajectory.csv and summary.json into --out;
verify writes report.json, and timings.json with each criterion's
seconds.  Outputs other than timings.json are byte-deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .runner import ConfigError, ExperimentConfig, config_from_dict, run_experiment
from .verify import verify_all


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="root seed (64-bit)")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--steps", type=int, default=None, help="iterations (gd mode)")
    p.add_argument("--integrator", choices=("euler", "rk4"), default=None)
    p.add_argument("--no-reproject", action="store_true",
                   help="disable the per-step renormalization retraction")
    p.add_argument("--gamma", type=str, default=None,
                   help="step factor: a number, or 'rescaled'")
    p.add_argument("--record-every", type=int, default=None, dest="record_every")
    p.add_argument("--quad-nodes", type=int, default=None, dest="quad_nodes",
                   help="composite quadrature nodes per axis")
    p.add_argument("--smoothing-r", type=float, default=None, dest="smoothing_r",
                   help="finite smoothing index (default: exact ReLU)")
    p.add_argument("--architecture", type=str, default=None,
                   help="comma-separated layer widths, e.g. 1,8,1")
    p.add_argument("--target", type=str, default=None,
                   help="JSON target spec, e.g. '{\"name\":\"affine\",\"slope\":1}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgflow",
        description="Manifold-constrained gradient flow experiments for ReLU networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in ("flow", "gd", "one-neuron"):
        p = sub.add_parser(mode, help=f"run a {mode} experiment")
        _add_run_flags(p)
    v = sub.add_parser("verify", help="run the invariant verification suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", type=str, default="verify_out")
    return parser


def _gamma_value(text: str):
    if text == "rescaled":
        return "rescaled"
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"config field 'gamma': must be a number or 'rescaled', got {text!r}")


def _resolve_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config field 'config': file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config field 'config': invalid JSON ({e})")
    raw["mode"] = args.command
    for name in ("seed", "out", "t_end", "step", "steps", "integrator",
                 "record_every", "quad_nodes", "smoothing_r"):
        val = getattr(args, name)
        if val is not None:
            raw[name] = val
    if args.no_reproject:
        raw["reproject"] = False
    if args.gamma is not None:
        raw["gamma"] = _gamma_value(args.gamma)
    if args.architecture is not None:
        try:
            raw["architecture"] = [int(d) for d in args.architecture.split(",")]
        except ValueError:
            raise ConfigError(f"config field 'architecture': expected integers, got {args.architecture!r}")
    if args.target is not None:
        try:
            raw["target"] = json.loads(args.target)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config field 'target': invalid JSON ({e})")
    if args.command == "one-neuron":
        raw.setdefault("architecture", [1, 1, 1])
        raw.setdefault("measure", {"kind": "uniform", "a": 0.0, "b": 1.0})
    return config_from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        outcome = verify_all(args.seed, echo=print)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(json.dumps(outcome.report(args.seed), sort_keys=True, indent=1) + "\n")
        (out / "timings.json").write_text(json.dumps(outcome.timings, indent=1) + "\n")
        print(f"report written to {report_path}")
        return 0 if outcome.all_passed else 1
    try:
        cfg = _resolve_config(args)
        summary = run_experiment(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"termination: {summary['termination']}  rows: {summary['rows']}  "
          f"final risk: {summary['final_risk']:.6g}  output: {cfg.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
