"""Golden output bytes: sha256 digests of `trajectory.csv` and of
`summary.json` (with `config.out` removed) for a few tiny runs, and of the
reports of verify's network criteria c01-c08 at seed 0.

The acceptance suite's determinism criterion compares two runs of the same
code; these digests compare the code with the recorded outputs, so a
refactor that changes a single output bit fails here.  A deliberate numeric
change must update the digests and say so in CHANGES.md.

The digests hold under one OpenBLAS kernel: another kernel rounds the network
pass's matrix products in another order.  So all ten configs and the eight
criteria run in one subprocess started with OPENBLAS_CORETYPE set to the
kernel the digests were recorded under, one that every x86-64 CI runner has,
whatever kernel the calling process picked; a test checks that the
subprocess got that kernel, so a silent fallback cannot pass.  Run as a script, this file prints the
subprocess's kernel and digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mgflow import verify
from mgflow.runner import ExperimentConfig, run_experiment
from mgflow.verify import blas_core

RECORDED_UNDER = "Haswell"  # the OpenBLAS kernel that wrote DIGESTS

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
        "1a306e93219a3275599329ddf669b27e0090db4891d752895af813849a33c15a",
        "2889fa57d42506c848d09e40e31e2728970c3910b321dd171d6bb6eb6879cad0",
    ),
    "flow_181_r50": (
        "702cd5954bdb33ff7c3600e9dec15be8dd6aff7ab505c6141c56388ac7ab82d8",
        "219823f93f0fc33d73941e98ec81a6b2721cb898c07bc43565223e92d68a1097",
    ),
    "flow_181_rescaled": (
        "df95853f314c45f2221ff9cfc592018cf3aa439fbc194ffa9a6a1a508d5d479c",
        "42e0c75ffef23ead1b9df1a3f32791977f6fb01b1b0b8a6fdaa0f6a16b9b57fe",
    ),
    "flow_141_no_reproject": (
        "37629b90a6a3c57398439d061cc7b6d077be74389313af844b8a5fba46a706f7",
        "9a000f2a34d609823e0fd8b204043dba37b35457ee558ee4a701aa6608f2b486",
    ),
    "gd_1331_rescaled": (
        "8a41203b4c81c938f4ae736804089c8e363208950e8cc93b0019ba921f274463",
        "0ea991d970ad1d7945e070b65b0afd3a7000d20d76baad95e7e19287b0337117",
    ),
    "gd_2441": (
        "721575b9dabdab70f88f50d39cfd7b7b6d13b12be140dee50950f79a6b8169d0",
        "a0ccbbaa44ead3c16247b52c59c2bfc719e5b8237485faa9388250fe9bb56d26",
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

# sha256 of the `as_dict()` JSON (sorted keys) of c01-c08 at seed 0, c04 on
# c03's trajectories
CRITERION_DIGESTS = {
    "gradient_fd_oracle":
        "eb0374afcd9b0a3a4ae42115e74832d59e7bf448dfa170464ff272d32d92fd1c",
    "integral_identities":
        "72c25b6bc873b549de739be3ae5d14fe4c82b161a0a507ae263cc4ff6d326829",
    "monotone_risk":
        "793b73a1f2f941b72ccd180bc278cfb95fc47850fc21da727f9a1e5325a9a9b8",
    "one_neuron_gradient_identity":
        "0db7f36ea9f4fea046e7907d65db1ca9b55740b2db22a897f83c4fc9afbad439",
    "projected_gradient_tangency":
        "bb206cf1f047dbb4e0ceaf8dd270dab76378533bb3587acf5eec6662af6dd4a4",
    "psi_invariance_along_flow":
        "0c740fddbd202ac1ca37e7aa762dc1d719706ad0c8629403ef1b6c1cfb9820e8",
    "rescaling_realization_invariance":
        "cb884f7c06ab5752854c9fe1520799ccc5323db26ba6d9ab43505464f75eb42a",
    "unit_norm_postcondition":
        "bcdb39dedd30746aa12f30419926690f1b1cad1b287a8dc06401f3c199b452bf",
}


def output_digests(name, out):
    run_experiment(ExperimentConfig(out=str(out), **CONFIGS[name]))
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["out"]
    return (
        hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest(),
        hashlib.sha256(json.dumps(summary, sort_keys=True, indent=1).encode()).hexdigest(),
    )


def criterion_digests(seed=0):
    """{name: sha256 of its report} for c01-c08 at seed, as `verify_all` runs them."""
    flow, trajectories = verify.check_flow_invariance(seed)
    results = [
        verify.check_rescaling_invariance(seed), verify.check_unit_norms(seed), flow,
        verify.check_monotone_risk(trajectories), verify.check_tangency(seed),
        verify.check_gradient_fd_oracle(seed), verify.check_one_neuron_gradient_identity(seed),
        verify.check_integral_identities(seed),
    ]
    return {r.name: hashlib.sha256(json.dumps(r.as_dict(), sort_keys=True).encode()).hexdigest()
            for r in results}


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """{"core": kernel, "digests": {name: [csv, summary]}, "criteria": {name:
    report}} from one subprocess run of every config and of c01-c08 under
    OPENBLAS_CORETYPE = RECORDED_UNDER."""
    env = dict(os.environ, OPENBLAS_CORETYPE=RECORDED_UNDER, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path_factory.mktemp("golden"))],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_digests_run_under_the_pinned_kernel(pinned_run):
    assert pinned_run["core"] == RECORDED_UNDER, (
        f"OPENBLAS_CORETYPE={RECORDED_UNDER} gave the kernel {pinned_run['core']}")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_the_recorded_digests(name, pinned_run):
    assert tuple(pinned_run["digests"][name]) == DIGESTS[name], (
        f"digests recorded under the OpenBLAS kernel {RECORDED_UNDER}; this run used {pinned_run['core']}")


@pytest.mark.parametrize("name", sorted(CRITERION_DIGESTS))
def test_criterion_report_bytes_match_the_recorded_digests(name, pinned_run):
    assert pinned_run["criteria"][name] == CRITERION_DIGESTS[name], (
        f"digests recorded under the OpenBLAS kernel {RECORDED_UNDER}; this run used {pinned_run['core']}")


if __name__ == "__main__":
    out = Path(sys.argv[1])
    digests = {name: output_digests(name, out / name) for name in sorted(CONFIGS)}
    print(json.dumps({"core": blas_core(), "digests": digests, "criteria": criterion_digests()}))
