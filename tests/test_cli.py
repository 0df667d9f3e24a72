import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mgflow.cli import main
from mgflow.runner import ConfigError, ExperimentConfig, _row_format, config_from_dict, run_experiment
from mgflow.verify import blas_core


def strict_json(path):
    """The JSON file at path, read by a parser that refuses NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


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
        assert ExperimentConfig(mode="one-neuron").architecture == (1, 1, 1)
        assert ExperimentConfig(mode="gd").architecture == (1, 8, 1)

    def test_one_neuron_measure_forced(self):
        with pytest.raises(ConfigError, match="'measure'"):
            config_from_dict(
                {"mode": "one-neuron", "architecture": [1, 1, 1],
                 "measure": {"kind": "uniform", "a": 0.0, "b": 2.0}}
            )

    def test_verify_mode_rejected(self, tmp_path):
        # the CLI runs the verify suite before any config is built; a config
        # in verify mode would otherwise run normalized descent
        with pytest.raises(ConfigError, match="'mode'"):
            config_from_dict({"mode": "verify", "steps": 3, "out": str(tmp_path)})
        with pytest.raises(ConfigError, match="'mode'"):
            run_experiment(ExperimentConfig(mode="verify", steps=3, out=str(tmp_path)))
        assert not list(tmp_path.iterdir())

    def test_gamma_strings(self):
        cfg = config_from_dict({"mode": "flow", "gamma": "rescaled"})
        assert cfg.gamma == "rescaled"
        with pytest.raises(ConfigError, match="'gamma'"):
            config_from_dict({"mode": "flow", "gamma": "fast"})

    @pytest.mark.parametrize("mode", ["flow", "one-neuron"])
    def test_bad_target_named(self, mode, tmp_path):
        # the output directory is made only after the target and the measure build
        arch = (1, 1, 1) if mode == "one-neuron" else (1, 8, 1)
        cfg = ExperimentConfig(mode=mode, architecture=arch, target={"name": "mystery"},
                               out=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="'target'"):
            run_experiment(cfg)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, mode, raw", [
        ("t_end", "flow", {"t_end": "1"}),
        ("t_end", "flow", {"t_end": float("inf"), "step": 0.5}),
        ("step", "flow", {"step": None}),
        ("step", "flow", {"t_end": 1e300, "step": 1e-10}),
        ("record_every", "flow", {"record_every": "2"}),
        ("steps", "gd", {"steps": "5"}),
        ("quad_nodes", "flow", {"quad_nodes": "64"}),
        ("smoothing_r", "flow", {"smoothing_r": "x"}),
        ("theta0", "flow", {"theta0": ["0.5"] * 25}),
        ("measure", "flow", {"measure": "uniform"}),
        ("measure", "one-neuron", {"architecture": [1, 1, 1], "measure": "uniform"}),
        ("target", "flow", {"target": "abs"}),
        ("seed", "flow", {"seed": "x"}),
        ("seed", "flow", {"seed": -1}),
        ("reproject", "flow", {"reproject": "no"}),
        ("reproject", "gd", {"reproject": False}),
        ("gamma", "gd", {"gamma": [0.1, 0.1]}),
        ("gamma", "flow", {"gamma": None}),
        ("target", "flow", {"target": {"name": "abs_offset", "center": "0.3"}}),
        ("measure", "flow", {"measure": {"kind": "uniform", "a": "0", "b": 1.0}}),
        ("gamma", "flow", {"gamma": True}),
        ("steps", "gd", {"steps": True}),
        ("seed", "flow", {"seed": True}),
        ("t_end", "flow", {"t_end": True, "step": True}),
        ("step", "flow", {"step": True}),
        ("record_every", "flow", {"record_every": True}),
        ("smoothing_r", "flow", {"smoothing_r": True}),
        ("theta0", "flow", {"theta0": [True] + [0.5] * 24}),
        ("t3_scale", "one-neuron", {"architecture": [1, 1, 1], "t3_scale": True}),
    ])
    def test_mistyped_field_named(self, name, mode, raw, tmp_path):
        # each of these ended in a traceback, or ran silently: reproject with
        # the retraction on (descent always retracts), a JSON boolean as the
        # number 0 or 1; the config names the field and writes nothing
        with pytest.raises(ConfigError, match=f"'{name}'") as refused:
            run_experiment(config_from_dict({"mode": mode, **raw, "out": str(tmp_path / "out")}))
        assert not list(tmp_path.iterdir())
        if not isinstance(raw[name], dict):  # a spec object is checked when the run builds it
            with pytest.raises(ConfigError) as built:
                ExperimentConfig(mode=mode, **raw)
            assert str(built.value) == str(refused.value)

    @pytest.mark.parametrize("name, raw", [
        ("architecture", {"architecture": [1, 8.7, 1]}),
        ("architecture", {"architecture": [1, True, 1]}),
        ("architecture", {"architecture": "181"}),
        ("measure", {"measure": {"kind": "uniform", "a": None}}),
        ("measure", {"measure": {"kind": "discrete", "points": None, "weights": [1.0]}}),
        ("target", {"target": {"name": "abs_offset", "center": None}}),
        ("target", {"target": {"name": "affine", "slope": None}}),
        ("target", {"target": {"name": "polynomial", "coeffs": None}}),
        ("target", {"target": {"name": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, None], [1.0, 0.0]]}}),
        ("target", {"target": {"name": "piecewise_linear", "knots": [[0.0, 0.0], [None, 1.0], [1.0, 0.0]]}}),
        ("target", {"architecture": [2, 3, 1],
                    "target": {"name": "affine_map", "weights": [[None, 1.0]], "offset": [0.0]}}),
        ("target", {"architecture": [2, 3, 1],
                    "target": {"name": "affine_map", "weights": [[1.0]], "offset": [0.0]}}),
        ("target", {"architecture": [2, 3, 1], "target": {"name": "constant", "value": None}}),
        ("target", {"architecture": [2, 3, 1], "target": {"name": "constant", "value": "a"}}),
        ("target", {"target": {"name": "abs_offset", "center": True}}),
        ("target", {"target": {"name": "piecewise_linear", "knots": [[0.0, False], [1.0, True]]}}),
        ("measure", {"measure": {"kind": "uniform", "a": False, "b": True}}),
        ("measure", {"measure": {"kind": "discrete", "points": [[0.2, 0.5]], "weights": [1.0]}}),
        ("measure", {"architecture": [2, 3, 1], "target": {"name": "zero"},
                     "measure": {"kind": "discrete", "points": [[0.2], [0.5]], "weights": [1.0, 1.0]}}),
        ("step", {"t_end": 1.0, "step": 0.6}),
        ("step", {"t_end": 1.0, "step": 0.4}),
    ])
    def test_bad_shape_named(self, name, raw, tmp_path):
        # integral floats and booleans were truncated into layer widths; null
        # entries ended in a TypeError traceback or turned into nan; boolean
        # scalars built as 0 and 1
        with pytest.raises(ConfigError, match=f"config field '{name}'") as refused:
            run_experiment(config_from_dict({"mode": "flow", "t_end": 0.002, **raw, "out": str(tmp_path)}))
        assert not list(tmp_path.iterdir())
        if not isinstance(raw[name], dict):  # a spec object is checked when the run builds it
            with pytest.raises(ConfigError) as built:
                ExperimentConfig(mode="flow", **{"t_end": 0.002, **raw})
            assert str(built.value) == str(refused.value)

    @pytest.mark.parametrize("name, raw, key", [
        ("target", {"target": {"name": "constant"}}, "value"),
        ("measure", {"measure": {"kind": "discrete", "points": [[0.2], [0.5]]}}, "weights"),
    ], ids=["target_value", "measure_weights"])
    def test_missing_key_named(self, name, raw, key, tmp_path):
        # the message was the KeyError alone: "config field 'target': 'value'"
        with pytest.raises(ConfigError, match=f"^config field '{name}': missing key '{key}'$"):
            run_experiment(config_from_dict({"mode": "flow", **raw, "out": str(tmp_path / "out")}))
        assert not list(tmp_path.iterdir())


class TestCliExitCodes:
    def test_invalid_flag_value_exits_nonzero(self, tmp_path, capsys):
        rc = main(["flow", "--out", str(tmp_path), "--gamma", "warp"])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_mistyped_reproject_exits_2_with_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"architecture": [1, 3, 1], "reproject": "no"}))
        rc = main(["flow", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config field 'reproject'")

    def test_flow_run_exit_zero(self, tmp_path):
        rc = main([
            "flow", "--out", str(tmp_path), "--seed", "5", "--architecture", "1,3,1",
            "--t-end", "0.02", "--step", "1e-3",
        ])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_negative_verify_seed_exits_2_before_the_suite(self, tmp_path, monkeypatch, capsys):
        from mgflow import cli

        def no_suite(seed, echo=None):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "verify_all", no_suite)
        rc = main(["verify", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config field 'seed': ")
        assert not list(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "1.5", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode, theta0", [
        ("flow", [1e200] * 25),
        ("flow", [0.5] * 3 + [float("nan")] + [0.5] * 21),
        ("one-neuron", [0.6, float("nan"), 1.0]),
        ("one-neuron", [1e300] * 3),
    ], ids=["overflowing", "one_nan", "one_neuron_nan", "one_neuron_overflowing"])
    def test_non_finite_start_exits_nonzero_with_one_error_line(self, mode, theta0, tmp_path, capsys):
        # the rescaled start is not finite (1e200 overflows the cascade, and
        # 1e300 the one-neuron start's t3 * |(t1, t2)|), so the run stops
        # before any pass, with no numpy warning
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theta0": theta0} if mode == "one-neuron"
                                     else {"architecture": [1, 8, 1], "theta0": theta0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([mode, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc != 0
        assert capsys.readouterr().err.splitlines() == ["error: rescaled start has non-finite components"]
        assert not (tmp_path / "out").exists()  # a failed run writes nothing

    @pytest.mark.parametrize("mode", ["flow", "gd"])
    def test_a_grid_numpy_cannot_allocate_exits_1_before_writing(self, mode, tmp_path, capsys, monkeypatch):
        # a --quad-nodes 1000000 grid on two inputs asks numpy for 7.28 TiB; the
        # node builder raises what numpy raises then, without allocating it
        def unallocatable(measure, resolution=None):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

        monkeypatch.setattr("mgflow.network.quadrature_nodes", unallocatable)
        rc = main([mode, "--architecture", "2,3,1", "--target", '{"name": "zero"}', "--quad-nodes", "1000000",
                   "--t-end", "0.001", "--step", "0.001", "--steps", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["flow", "--gamma", "1e308", "--t-end", "0.01", "--step", "0.01"],
        ["flow", "--gamma", "inf", "--t-end", "0.01", "--step", "0.01"],
        ["one-neuron", "--gamma", "1e308", "--t-end", "0.02", "--step", "0.01", "--seed", "3"],
    ], ids=["flow_1e308", "flow_inf", "one_neuron_1e308"])
    def test_overflowing_rk4_step_freezes_the_run_quietly(self, argv, tmp_path, capsys):
        # the RK4 stage states are huge or not finite, so the field cannot be
        # evaluated there: the step is non-finite and the run freezes at its
        # start, as an Euler step into nan does, without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 0 and not caught
        assert capsys.readouterr().err == ""
        summary = strict_json(tmp_path / "summary.json")
        assert summary["termination"] == "nonfinite" and summary["rows"] == 2

    @pytest.mark.parametrize("theta0, flags", [
        ([0.6, 0.8, 1e200], []),
        ([1e200, 0.8, 1.0], ["--no-reproject"]),
    ], ids=["huge_t3", "huge_t1_no_reproject"])
    def test_one_neuron_start_over_the_guard_ends_quietly(self, theta0, flags, tmp_path, capsys):
        # the start is over the divergence guard: the first step freezes the
        # run, and the monitors and the sup-norm of its overflowing states
        # make numpy print no warning
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theta0": theta0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["one-neuron", "--config", str(config), "--t-end", "0.02", "--step", "0.01",
                       *flags, "--out", str(tmp_path / "out")])
        assert rc == 0 and not caught
        assert capsys.readouterr().err == ""
        summary = strict_json(tmp_path / "out" / "summary.json")
        assert summary["termination"] == "nonfinite"
        assert summary["final_risk"] is None  # the risk at the frozen state overflows to nan

    @pytest.mark.parametrize("argv", [
        ["gd", "--architecture", "2,3,1", "--steps", "2", "--target", '{"name": "zero"}', "--config"],
        ["one-neuron", "--t-end", "1", "--step", "0.6", "--config"],
    ], ids=["gd_one_column_points", "one_neuron_partial_step"])
    def test_an_input_that_does_not_fit_exits_2_before_writing(self, argv, tmp_path, capsys):
        # the gd run used the one coordinate as both inputs; the circle flow
        # ran to t = 1.2, the whole steps nearest to t_end
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"measure": {"kind": "discrete", "points": [[0.2], [0.5]], "weights": [1.0, 1.0]}}
            if argv[0] == "gd" else {}))
        rc = main(argv + [str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        name = "measure" if argv[0] == "gd" else "step"
        assert len(err) == 1 and err[0].startswith(f"error: config field '{name}': ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, echo", [
        (["--step", "2"], {"t_end": 1.0, "step": 2.0, "integrator": "rk4"}),
        (["--integrator", "rk4", "--t-end", "0.5", "--step", "0.5"], {"t_end": 0.5, "step": 0.5, "integrator": "rk4"}),
    ], ids=["step_2", "rk4_half_steps"])
    def test_gd_neither_reads_nor_checks_the_flow_schedule(self, flags, echo, tmp_path, capsys):
        # gd runs Euler steps of h = 1: t_end, step and integrator are only
        # echoed in summary.json, and the trajectory is the one without them
        argv = ["gd", "--architecture", "1,4,1", "--steps", "2"]
        assert main([*argv, *flags, "--out", str(tmp_path / "given")]) == 0
        assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "given" / "trajectory.csv").read_bytes()
                == (tmp_path / "plain" / "trajectory.csv").read_bytes())
        config = strict_json(tmp_path / "given" / "summary.json")["config"]
        assert {name: config[name] for name in echo} == echo

    @pytest.mark.parametrize("mode", ["flow", "gd"])
    def test_unaddressable_width_exits_2_before_writing(self, mode, tmp_path, capsys):
        # 10**30 hidden neurons: no numpy array can hold the parameters, so
        # the draw fails at once, before the output directory is made
        rc = main([mode, "--architecture", f"1,{10**30},1", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config field 'architecture': ")
        assert not list(tmp_path.iterdir())


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

    def test_one_neuron_start_off_the_circle_is_rescaled_onto_it(self, tmp_path):
        # (t1, t2, t3) -> (t1 / rho, t2 / rho, rho t3) with rho = |(t1, t2)| keeps the
        # realization, so row 0 has the given start's risk and psi 0; the start was
        # recorded as given (psi 3), and the first retraction dropped the risk to 0.0279
        cfg = ExperimentConfig(mode="one-neuron", architecture=(1, 1, 1), theta0=[2.0, 0.0, 1.0],
                               t_end=0.01, step=1e-3, out=str(tmp_path))
        summary = run_experiment(cfg)
        row0 = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert row0[:6] == ["0", "1", "0", "2", "0.18323333333333347", "0"]
        assert summary["psi_max_dev_max"] <= 1e-12 and summary["config"]["theta0"] == [2.0, 0.0, 1.0]

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

    def test_rerun_replaces_stale_hard_linked_files(self, tmp_path):
        # a run unlinks each output path and creates a new file, so a stale,
        # longer file is gone and a hard-linked sibling keeps its bytes
        out = tmp_path / "out"
        cfg = ExperimentConfig(mode="gd", architecture=(1, 2, 1), steps=3, seed=6, out=str(out))
        run_experiment(cfg)
        names = ("trajectory.csv", "summary.json")
        fresh = {name: (out / name).read_bytes() for name in names}
        for name in names:
            stale = b"stale\n" * (len(fresh[name]) // 3)
            sibling = tmp_path / f"sibling_{name}"
            sibling.write_bytes(stale)
            (out / name).unlink()
            os.link(sibling, out / name)
        run_experiment(cfg)
        for name in names:
            assert (out / name).read_bytes() == fresh[name]
            assert (tmp_path / f"sibling_{name}").read_bytes() == b"stale\n" * (len(fresh[name]) // 3)

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

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=12),
           st.integers(0, 12))
    @example([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2250738585072e-308,
              1.7976931348623157e308, 0.1, 1e16, 123456789012345678.0], 4)
    def test_row_format_equals_per_cell_format(self, row, tag_at):
        cells = [format(x, ".17g") for x in row]
        assert _row_format(len(row)) % tuple(row) == ",".join(cells)
        tag_at = min(tag_at, len(row))
        assert (_row_format(len(row) + 1, tag_at) % tuple(row[:tag_at] + ["full"] + row[tag_at:])
                == ",".join(cells[:tag_at] + ["full"] + cells[tag_at:]))

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("mode", ["flow", "one-neuron"], ids=["network", "one-neuron"])
    def test_csv_equals_the_per_row_format(self, rows, mode, tmp_path):
        # the whole table in one % equals one format per row, tag column included
        from mgflow import one_neuron as on
        from mgflow.dynamics import TrajectoryRecord
        from mgflow.runner import _write_csv

        rng = np.random.default_rng(rows)
        one_neuron_mode = mode == "one-neuron"
        states = on.random_circle_states(rng, rows) if one_neuron_mode else rng.standard_normal((rows, 5))
        states[0, -1] = -0.0
        risk = rng.uniform(0, 1, rows)
        risk[-1] = np.nan
        times, dev, grad = np.arange(rows) * 1e-3, np.full(rows, np.inf), rng.uniform(0, 1, rows)
        rec = TrajectoryRecord(times, states, risk, dev, grad, stopped=np.array(0))
        _write_csv(tmp_path / "t.csv", rec, mode)
        extra = []
        if one_neuron_mode:
            code, _ = on._regime_codes(states[:, 0], states[:, 1])
            extra = [[on.REGIME_TAGS[c] for c in code]] + [list(v) for v in on.lyapunov_values(states)]
        lines = []
        for i in range(rows):
            cells = [times[i], *states[i], risk[i], dev[i], grad[i]] + [col[i] for col in extra]
            lines.append(",".join(c if isinstance(c, str) else format(c, ".17g") for c in cells))
        text = (tmp_path / "t.csv").read_text()
        header, *body = text.split("\n")
        assert header.startswith("t,theta_1,") and body == lines + [""]
        assert header.endswith(",grad_norm,regime,E_full,V_right,V_left" if one_neuron_mode else ",grad_norm")


class TestJsonWriter:
    @staticmethod
    def round_trip_writer(path, obj, sort_keys=True):
        """The strict writer as it was: dump, read back with NaN and Infinity
        as null, dump again."""
        strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
        path.write_text(json.dumps(strict, sort_keys=sort_keys, indent=1, allow_nan=False) + "\n")

    @pytest.mark.parametrize("sort_keys", [True, False])
    def test_one_walk_writes_the_round_trip_bytes(self, sort_keys, tmp_path):
        from mgflow.runner import _write_json

        obj = {
            "z": [np.nan, -np.inf, {"inf": np.inf, "neg_zero": -0.0, "f64": np.float64(0.1)}],
            "a": (1, 2.5, (np.float64(np.nan), -0.0, [np.float64(-np.inf), 1e-310])),
            "m": {"nested": {"t": (True, None, "text"), "big": 1.7976931348623157e308, "n": 3}},
            "f": np.float64(1 / 3),
        }
        _write_json(tmp_path / "new.json", obj, sort_keys=sort_keys)
        self.round_trip_writer(tmp_path / "old.json", obj, sort_keys=sort_keys)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


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
        assert json.loads((tmp_path / "timings.json").read_text()) == {**timings, "blas_core": blas_core()}
        assert "[PASS] first (1.2 s)" in capsys.readouterr().out

    def test_timings_file_names_the_blas_kernel(self, tmp_path, monkeypatch):
        from mgflow import cli
        from mgflow.verify import CheckResult, VerifyOutcome

        outcome = VerifyOutcome([CheckResult("first", True, {"x": 1})], {"first": 0.5})
        monkeypatch.setattr(cli, "verify_all", lambda seed, echo=None: outcome)
        assert main(["verify", "--seed", "0", "--out", str(tmp_path)]) == 0
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings["blas_core"] == blas_core() != "unknown"  # numpy's wheel bundles OpenBLAS
        assert "blas_core" not in (tmp_path / "report.json").read_text()

    def test_a_nan_measurement_is_written_as_null(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        from mgflow import cli
        from mgflow.verify import VerifyOutcome, check_monotone_risk

        result = check_monotone_risk([SimpleNamespace(risk=np.array([1.0, np.nan]))])
        monkeypatch.setattr(cli, "verify_all", lambda seed, echo=None: VerifyOutcome([result], {result.name: 0.5}))
        assert main(["verify", "--seed", "0", "--out", str(tmp_path)]) == 1
        (criterion,) = strict_json(tmp_path / "report.json")["criteria"]
        assert criterion["passed"] is False
        assert criterion["details"] == {"max_risk_increase_per_step": None, "tolerance": 1e-8}

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
