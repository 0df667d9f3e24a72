import json

import numpy as np
import pytest

from mgflow.cli import main
from mgflow.runner import ConfigError, ExperimentConfig, config_from_dict, run_experiment


class TestConfigValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            config_from_dict({"mode": "flow", "stepsize": 0.1})

    def test_bad_step_named(self):
        with pytest.raises(ConfigError, match="'step'"):
            config_from_dict({"mode": "flow", "step": -1.0})

    def test_one_neuron_architecture_forced(self):
        with pytest.raises(ConfigError, match="'architecture'"):
            config_from_dict({"mode": "one-neuron", "architecture": [1, 2, 1]})

    def test_one_neuron_measure_forced(self):
        with pytest.raises(ConfigError, match="'measure'"):
            config_from_dict(
                {"mode": "one-neuron", "architecture": [1, 1, 1],
                 "measure": {"kind": "uniform", "a": 0.0, "b": 2.0}}
            )

    def test_gamma_strings(self):
        cfg = config_from_dict({"mode": "flow", "gamma": "rescaled"})
        assert cfg.gamma == "rescaled"
        with pytest.raises(ConfigError, match="'gamma'"):
            config_from_dict({"mode": "flow", "gamma": "fast"})

    def test_bad_target_named(self):
        cfg = ExperimentConfig(mode="flow", target={"name": "mystery"})
        with pytest.raises(ConfigError, match="'target'"):
            run_experiment(cfg)


class TestCliExitCodes:
    def test_invalid_flag_value_exits_nonzero(self, tmp_path, capsys):
        rc = main(["flow", "--out", str(tmp_path), "--gamma", "warp"])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_flow_run_exit_zero(self, tmp_path):
        rc = main([
            "flow", "--out", str(tmp_path), "--seed", "5", "--architecture", "1,3,1",
            "--t-end", "0.02", "--step", "1e-3",
        ])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.json").exists()


class TestExperimentOutputs:
    def test_one_neuron_stationary_writes_two_identical_rows(self, tmp_path):
        cfg = ExperimentConfig(
            mode="one-neuron", architecture=(1, 1, 1),
            target={"name": "constant", "value": 0.0},
            theta0=[0.0, -1.0, 2.0],  # empty activity: gradient is zero
            t_end=1.0, step=1e-2, out=str(tmp_path),
        )
        summary = run_experiment(cfg)
        assert summary["termination"] == "stationary"
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + start/end
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_flow_risk_column_monotone(self, tmp_path):
        cfg = ExperimentConfig(
            mode="flow", architecture=(1, 8, 1),
            target={"name": "abs_offset", "center": 0.3},
            t_end=1.0, step=1e-3, record_every=20, seed=2, out=str(tmp_path),
        )
        run_experiment(cfg)
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        risk_col = header.index("risk")
        risks = np.array([float(r.split(",")[risk_col]) for r in rows[1:]])
        assert np.all(np.diff(risks) <= 1e-8)
        assert len(header) == 1 + 25 + 3

    def test_one_neuron_has_regime_and_lyapunov_columns(self, tmp_path):
        cfg = ExperimentConfig(
            mode="one-neuron", architecture=(1, 1, 1),
            target={"name": "affine", "intercept": 0.0, "slope": 1.0},
            t_end=0.05, step=1e-3, seed=4, out=str(tmp_path),
        )
        run_experiment(cfg)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0].split(",")
        for col in ("regime", "E_full", "V_right", "V_left"):
            assert col in header

    def test_summary_echoes_resolved_config(self, tmp_path):
        cfg = ExperimentConfig(
            mode="gd", architecture=(1, 2, 1), steps=3,
            target={"name": "constant", "value": 0.5},
            seed=9, out=str(tmp_path),
        )
        run_experiment(cfg)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["mode"] == "gd"
        assert summary["config"]["steps"] == 3
        assert summary["config"]["record_every"] == 1  # default filled in
        assert summary["seed"] == 9

    def test_fixed_seed_reruns_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            mode="one-neuron", architecture=(1, 1, 1),
            target={"name": "abs_offset", "center": 0.3},
            t_end=0.2, step=1e-3, seed=11, out=str(tmp_path),
        )
        run_experiment(cfg)
        first = (tmp_path / "trajectory.csv").read_bytes(), (tmp_path / "summary.json").read_bytes()
        run_experiment(cfg)
        second = (tmp_path / "trajectory.csv").read_bytes(), (tmp_path / "summary.json").read_bytes()
        assert first == second

    def test_different_seeds_differ(self, tmp_path):
        outs = []
        for seed in (1, 2):
            cfg = ExperimentConfig(
                mode="one-neuron", architecture=(1, 1, 1),
                target={"name": "abs_offset", "center": 0.3},
                t_end=0.05, step=1e-2, seed=seed, out=str(tmp_path / str(seed)),
            )
            run_experiment(cfg)
            outs.append((tmp_path / str(seed) / "trajectory.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "architecture": [1, 2, 1],
            "target": {"name": "constant", "value": 0.0},
            "t_end": 0.5, "step": 1e-2, "seed": 1,
        }))
        out = tmp_path / "run"
        rc = main(["flow", "--config", str(cfg_path), "--out", str(out), "--t-end", "0.02"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["t_end"] == 0.02  # flag wins over file


class TestCsvFormatting:
    def test_full_precision_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            mode="one-neuron", architecture=(1, 1, 1),
            target={"name": "affine", "intercept": 0.0, "slope": 1.0},
            t_end=0.01, step=1e-3, seed=13, out=str(tmp_path),
        )
        run_experiment(cfg)
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        theta1 = rows[1].split(",")[1]
        assert float(theta1) == float(format(float(theta1), ".17g"))
        # 17 significant digits are enough to round-trip a double exactly
        assert len(theta1.replace("-", "").replace(".", "").lstrip("0")) <= 17


class TestVerifyCommand:
    def test_timings_file_beside_an_unchanged_report(self, tmp_path, monkeypatch, capsys):
        from mgflow import cli
        from mgflow.verify import CheckResult, VerifyOutcome

        results = [CheckResult("first", True, {"x": 1}), CheckResult("second", False, {})]
        timings = {"first": 1.25, "second": 17.625}

        def fake_verify_all(seed, echo=None):
            echo("[PASS] first (1.2 s)")
            return VerifyOutcome(results, timings)

        monkeypatch.setattr(cli, "verify_all", fake_verify_all)
        rc = main(["verify", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 1  # one criterion failed
        report = (tmp_path / "report.json").read_text()
        expected = VerifyOutcome(results, timings).report(3)
        assert report == json.dumps(expected, sort_keys=True, indent=1) + "\n"
        assert "1.25" not in report
        assert json.loads((tmp_path / "timings.json").read_text()) == timings
        assert "[PASS] first (1.2 s)" in capsys.readouterr().out

    def test_echo_lines_carry_seconds(self, monkeypatch):
        from mgflow import verify
        from mgflow.verify import CheckResult

        def stub(name, value=None):
            return lambda *args: CheckResult(name, True) if value is None else (CheckResult(name, True), value)

        for name in [n for n in dir(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, stub(name, [] if name == "check_flow_invariance" else None))
        lines = []
        outcome = verify.verify_all(0, echo=lines.append)
        assert len(lines) == len(outcome.results) == 14
        for line, res in zip(lines, outcome.results):
            assert line == f"[PASS] {res.name} ({outcome.timings[res.name]:.1f} s)"
