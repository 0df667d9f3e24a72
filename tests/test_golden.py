"""Golden output bytes: sha256 digests of `trajectory.csv` and of
`summary.json` (with `config.out` removed) for a few tiny runs.

The acceptance suite's determinism criterion compares two runs of the same
code; these digests compare the code with the recorded outputs, so a
refactor that changes a single output bit fails here.  A deliberate numeric
change must update the digests and say so in CHANGES.md.

The digests hold under one OpenBLAS kernel: another kernel rounds the network
pass's matrix products in another order, so a failure names the kernel the
digests were recorded under and the one this run used.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mgflow.runner import ExperimentConfig, run_experiment

RECORDED_UNDER = "SkylakeX"  # the OpenBLAS kernel that wrote DIGESTS

AFFINE_MAP = {"name": "affine_map", "weights": [[0.5, -0.3]], "offset": [0.1]}

CONFIGS = {
    "flow_181": dict(mode="flow", architecture=(1, 8, 1), t_end=0.02, step=1e-3, seed=0),
    "flow_181_r50": dict(mode="flow", architecture=(1, 8, 1), t_end=0.02, step=1e-3,
                         smoothing_r=50.0, seed=0),
    "flow_181_rescaled": dict(mode="flow", architecture=(1, 8, 1), t_end=0.02, step=1e-3,
                              gamma="rescaled", seed=0),
    "flow_141_no_reproject": dict(mode="flow", architecture=(1, 4, 1), t_end=0.02, step=1e-3,
                                  reproject=False, seed=0),
    "gd_2441": dict(mode="gd", architecture=(2, 4, 4, 1), target=AFFINE_MAP, steps=10,
                    quad_nodes=16, seed=0),
    "gd_1331_rescaled": dict(mode="gd", architecture=(1, 3, 3, 1), gamma="rescaled", steps=10,
                             seed=2),
    "one_neuron_constant": dict(mode="one-neuron", architecture=(1, 1, 1), t_end=0.5,
                                step=1e-2, record_every=3, seed=3),
    "one_neuron_rescaled": dict(mode="one-neuron", architecture=(1, 1, 1), t_end=0.5,
                                step=1e-2, gamma="rescaled", seed=3),
    "one_neuron_stationary": dict(mode="one-neuron", architecture=(1, 1, 1),
                                  target={"name": "constant", "value": 0.0},
                                  theta0=[0.0, -1.0, 2.0], t_end=1.0, step=1e-2),
    "flow_stationary": dict(mode="flow", architecture=(1, 1, 1), target={"name": "zero"},
                            theta0=[0.0, -1.0, 0.0, 0.0], t_end=0.5, step=1e-2),
}

# (trajectory.csv, summary.json without config.out)
DIGESTS = {
    "flow_181": (
        "e7930776a3d68b6a8e73b0a65f3e193af88b451968050c0746346edfec5a8242",
        "91135ec2959511ed04971f7386b0ca54407683fe6be8a49eab016454bb62b5e5",
    ),
    "flow_181_r50": (
        "699fbbaf6c0f9335f2faf6afc32055ee504dffac9d331d2931f2a00b44f674fb",
        "219823f93f0fc33d73941e98ec81a6b2721cb898c07bc43565223e92d68a1097",
    ),
    "flow_181_rescaled": (
        "edc8cab5543a30f55fba15854d3fa50663d6538bdabc6010bc0d4b7495db086a",
        "42e0c75ffef23ead1b9df1a3f32791977f6fb01b1b0b8a6fdaa0f6a16b9b57fe",
    ),
    "flow_141_no_reproject": (
        "83c143db10a2e3a1ae1e6ddb609ada4be7f566811d3df0e0999f4a243f43a25b",
        "9a000f2a34d609823e0fd8b204043dba37b35457ee558ee4a701aa6608f2b486",
    ),
    "gd_1331_rescaled": (
        "6744d1aff1d5733883cb893cb3ffdddb074252dce1992441807bca665a4565d4",
        "15fa2f0677a4457c9e03c28ff6c29dbdf1a8fa21299b2e59e8157cd8c9b7a9cd",
    ),
    "gd_2441": (
        "d594fb77d5dee81d6690f1f2f10bfa007288f1540b69cff1de783298c8334a52",
        "e26cf580c5ad09f6b776d051b86f2effa233e28e619e4f3075a397d22cc66344",
    ),
    "one_neuron_constant": (
        "b9528382890a8b09476845bf28df72e8bbdbcf86392813db6f38fd53c756bd0f",
        "fdb9833f263173b9da9a1a8de30fdf02f9dec64c950af51d31280c980e3c92e7",
    ),
    "one_neuron_rescaled": (
        "1350408ee2fda2a327c4db3757adc017883711f0dce587e0a2d54c2644a4cd2a",
        "f1bd3985f543a9b4900ebde1844d05941a19b39faffea74a105839bdedf38a85",
    ),
    "one_neuron_stationary": (
        "d7d6cdce97ec98140045d4a8cd4de6808319f728da38cca86cb073e59fb7ee48",
        "eac68baae4b43dfc8cec7d1478040cdaab637cb4baa397fa1b7c3d45e93e08fa",
    ),
    "flow_stationary": (
        "8cd82ba9e42dc8ab520725eaa78c38de84d20d4598279870464b0172a09ff529",
        "06ca3fffdf7ff653743db48ec0363f9c9d1665deb3fb4ee82a63fe775c4f73a5",
    ),
}


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked at load time (as
    OPENBLAS_CORETYPE names it), or "unknown" without a bundled OpenBLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def output_digests(name, out):
    run_experiment(ExperimentConfig(out=str(out), **CONFIGS[name]))
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["out"]
    return (
        hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(summary, sort_keys=True, indent=1).encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_the_recorded_digests(name, tmp_path):
    assert output_digests(name, tmp_path) == DIGESTS[name], (
        f"digests recorded under the OpenBLAS kernel {RECORDED_UNDER}; this run used {blas_core()}")
