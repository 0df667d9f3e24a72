"""The CLI's contract over generated run configs.  Every run exits 0, 1
(numerical failure) or 2 (config refused).  A run that fails prints one
`error:` line and no warning, and leaves no output directory; a run that
succeeds prints nothing to stderr and writes a strict summary.json and
`rows` trajectory rows.

The draws are small enough to run in milliseconds: widths of at most 4,
`quad_nodes` of at most 32 and at most 20 steps, with odd values (null,
nan, +-inf, text, 1e308, 5e-324 and booleans) in any field or spec entry."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgflow.cli import main
from mgflow.params import Architecture
from test_cli import strict_json

ODD = [None, math.nan, math.inf, -math.inf, "text", 1e308, 5e-324, True, False]


def measure(draw, pick, mode, in_dim):
    if mode == "one-neuron" or draw(st.booleans()):
        b = st.just(1.0) if mode == "one-neuron" else st.sampled_from([1.0, 2.0])
        return {"kind": "uniform", "a": pick(st.just(0.0)), "b": pick(b)}
    k = draw(st.integers(1, 4))
    points = [[pick(st.floats(0.0, 1.0)) for _ in range(in_dim)] for _ in range(k)]
    return {"kind": "discrete", "points": points, "weights": [pick(st.floats(0.0, 2.0)) for _ in range(k)]}


def target(draw, pick, in_dim, out_dim):
    def number():
        return pick(st.floats(-2.0, 2.0))

    if in_dim == out_dim == 1:
        name = draw(st.sampled_from(["abs_offset", "affine", "constant", "polynomial", "piecewise_linear", "zero"]))
        params = {
            "abs_offset": lambda: {"center": number()},
            "affine": lambda: {"intercept": number(), "slope": number()},
            "constant": lambda: {"value": number()},
            "polynomial": lambda: {"coeffs": [number() for _ in range(draw(st.integers(1, 3)))]},
            "piecewise_linear": lambda: {"knots": [[0.0, number()], [pick(st.floats(0.1, 0.9)), number()],
                                                   [1.0, number()]]},
            "zero": lambda: {},
        }[name]()
    else:
        name = draw(st.sampled_from(["affine_map", "zero", "constant"]))
        params = {
            "affine_map": lambda: {"weights": [[number() for _ in range(in_dim)] for _ in range(out_dim)],
                                   "offset": [number() for _ in range(out_dim)]},
            "zero": lambda: {},
            "constant": lambda: {"value": number()},
        }[name]()
    return {"name": name, **params}


@st.composite
def runs(draw):
    """(argv without --config and --out, the config file's object).  A draw
    puts an odd value in no field, or in about one field or spec entry in
    twenty, or in about three in twenty."""
    rate = draw(st.sampled_from([0, 1, 3]))

    def pick(normal, odd=ODD):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 19)) < rate else draw(normal)

    mode = draw(st.sampled_from(["flow", "gd", "one-neuron"]))
    if mode == "one-neuron":
        arch = [1, 1, 1]
    else:
        hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        arch = [draw(st.integers(1, 2)), *hidden, draw(st.integers(1, 2))]
    h = draw(st.sampled_from([0.001, 0.005, 0.01, 0.02]))
    n = draw(st.integers(1, 20))
    raw = {
        "architecture": pick(st.just(arch)),
        "measure": pick(st.just(measure(draw, pick, mode, arch[0]))),
        "target": pick(st.just(target(draw, pick, arch[0], arch[-1]))),
        "t_end": pick(st.just(n * h)),
        "step": pick(st.just(h)),
        "integrator": pick(st.sampled_from(["rk4", "euler"])),
        "reproject": pick(st.just(True) if mode == "gd" else st.booleans()),
        "gamma": pick(st.sampled_from([0.0, 0.5, 1.0, "rescaled"])),
        "record_every": pick(st.integers(1, 5)),
        "steps": pick(st.integers(0, 20)),
        "seed": pick(st.integers(0, 2**32)),
        # the default grid has 2048 nodes per axis (4.2M on two inputs): on
        # more than one input, quad_nodes is always given
        "quad_nodes": pick(st.integers(2, 32), odd=ODD[1:] if arch[0] > 1 else ODD),
        "smoothing_r": pick(st.sampled_from([None, 1.0, 5.0, 50.0])),
        "t3_scale": pick(st.sampled_from([0.5, 1.0, 3.0])),
    }
    if draw(st.booleans()):
        count = 3 if mode == "one-neuron" else Architecture(tuple(arch)).param_count
        entry = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))  # zero hidden rows too
        raw["theta0"] = pick(st.just([pick(entry) for _ in range(count)]))
    if mode == "one-neuron" and draw(st.booleans()):
        del raw["architecture"]  # the mode's default, (1, 1, 1)
    flags = [[], ["--integrator", "euler"], ["--gamma", "rescaled"]] + [["--no-reproject"]] * (mode != "gd")
    return [mode, *draw(st.sampled_from(flags))], raw


@settings(max_examples=200, deadline=None)
@given(runs())
# a uniform measure on [0, 1e308] in two inputs: its total mass overflows
@example((["flow"], {"architecture": [2, 2, 1], "measure": {"kind": "uniform", "a": 0, "b": 1e308},
                     "target": {"name": "affine_map", "weights": [[1.0, 1.0]], "offset": [0]},
                     "t_end": 0.01, "step": 0.01}))
# a smoothing index whose square overflows
@example((["flow", "--smoothing-r", "1e200", "--t-end", "0.01", "--step", "0.01"], {}))
# the composite grid on [0, 1e308]
@example((["flow", "--architecture", "1,2,2,1", "--t-end", "0.01", "--step", "0.01"],
          {"measure": {"kind": "uniform", "a": 0, "b": 1e308}}))
# a one-neuron start drawn at a t3 scale of 1e308
@example((["one-neuron", "--t-end", "0.02", "--step", "0.01", "--seed", "3"], {"t3_scale": 1e308}))
# a start with a zero hidden row, which summary.json counts
@example((["flow", "--t-end", "0.01", "--step", "0.01"], {"architecture": [1, 1, 1], "theta0": [0.0, 0.0, 0.0, 0.0]}))
def test_every_run_exits_cleanly_or_writes_strict_outputs(run):
    argv, raw = run
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main([*argv, "--config", str(config), "--out", str(out)])
        err = stderr.getvalue().splitlines()
        assert rc in (0, 1, 2)
        assert [str(w.message) for w in caught] == []
        if rc == 0:
            assert err == []
            summary = strict_json(out / "summary.json")
            assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + summary["rows"]
        else:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert not out.exists()
