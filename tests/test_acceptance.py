"""Acceptance gate: every verification criterion at its stated tolerance.

The suite runs once per session (fixed seed); each test asserts one criterion
and prints its pass/fail line.  Wall-clock budgets are asserted here for the
checks that carry one.
"""

import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from mgflow import verify
from mgflow.params import ParamVector
from mgflow.verify import verify_all

SEED = 0


@pytest.fixture(scope="session")
def outcome():
    return verify_all(SEED)


def _criterion(outcome, name):
    result = next(r for r in outcome.results if r.name == name)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {name}: {json.dumps(result.details, default=str)[:240]}")
    return result


def test_c01_rescaling_realization_invariance(outcome):
    res = _criterion(outcome, "rescaling_realization_invariance")
    assert res.passed, res.details
    assert res.details["theta_count"] == 200
    assert outcome.timings[res.name] < 10.0


def test_c02_unit_norm_postcondition(outcome):
    res = _criterion(outcome, "unit_norm_postcondition")
    assert res.passed, res.details


def test_c03_psi_invariance_along_flow(outcome):
    res = _criterion(outcome, "psi_invariance_along_flow")
    assert res.passed, res.details
    assert outcome.timings[res.name] < 60.0


def test_c04_monotone_risk(outcome):
    res = _criterion(outcome, "monotone_risk")
    assert res.passed, res.details


def test_c05_projected_gradient_tangency(outcome):
    res = _criterion(outcome, "projected_gradient_tangency")
    assert res.passed, res.details


def test_c06_gradient_fd_oracle(outcome):
    res = _criterion(outcome, "gradient_fd_oracle")
    assert res.passed, res.details
    assert res.details["theta_count"] == 100


def test_c07_one_neuron_gradient_identity(outcome):
    res = _criterion(outcome, "one_neuron_gradient_identity")
    assert res.passed, res.details
    assert outcome.timings[res.name] < 10.0


def test_c08_integral_identities(outcome):
    res = _criterion(outcome, "integral_identities")
    assert res.passed, res.details
    assert res.details["draws"] == 10000


def test_c09_full_regime_conservation(outcome):
    res = _criterion(outcome, "full_regime_conservation")
    assert res.passed, res.details
    assert res.details["checked_pairs"] >= 1000


def test_c10_lyapunov_monotonicity(outcome):
    res = _criterion(outcome, "lyapunov_monotonicity")
    assert res.passed, res.details


def test_c11_boundedness_evidence(outcome):
    res = _criterion(outcome, "boundedness_evidence")
    assert res.passed, res.details
    assert res.details["trajectories"] == 100


def test_c12_affine_integral_bound(outcome):
    res = _criterion(outcome, "affine_integral_bound")
    assert res.passed, res.details
    assert res.details["draws"] == 100000


def test_c13_rescaled_flow_identity(outcome):
    res = _criterion(outcome, "rescaled_flow_identity")
    assert res.passed, res.details
    assert res.details["checked_steps"] >= 100


def test_c14_determinism(outcome):
    res = _criterion(outcome, "determinism")
    assert res.passed, res.details


def test_all_criteria_present(outcome):
    assert len(outcome.results) == 14
    assert outcome.all_passed


# sha256 of the `as_dict()` JSON (sorted keys) at SEED of c09-c13, the
# criteria of the one-neuron circle flow and its lemmas.  None of these criteria takes a BLAS reduction, so the bytes hold
# under every OpenBLAS kernel.  A deliberate change to the circle flow, its
# monitors or these reports updates the digests and says so in CHANGES.md.
CIRCLE_FLOW_DIGESTS = {
    "full_regime_conservation": "60594e8ccce2172cd582a9dde75addf1dbe49746960f4f650e9f907a945f6323",
    "lyapunov_monotonicity": "c8b7c365efe51e98523bbb94b14e35b2255db4f7fae67852e0f05a5df23e3ea1",
    "boundedness_evidence": "a19a5908629e932d9a9923683892afbed32d5ec6da3c3e5919ef572df4cc59ea",
    "affine_integral_bound": "f82c858350c92d8a2e2995bfbacc5b447c4e85cd33b675ecd8d07694acc99dad",
    "rescaled_flow_identity": "2eaddfce9bac0da5a75b6d83a856085869f89a097a7e693483e860f0d4f52c71",
}


@pytest.mark.parametrize("name", sorted(CIRCLE_FLOW_DIGESTS))
def test_circle_flow_report_bytes(outcome, name):
    text = json.dumps(_criterion(outcome, name).as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CIRCLE_FLOW_DIGESTS[name]


# A nan measurement fails its criterion and is reported as nan: a worst kept
# with Python's `max` would drop it (`max(0.0, nan)` is 0.0) and pass.


def _nan_on_call(monkeypatch, name, spoil, call=5):
    """Replace verify's `name` with a wrapper whose result on its `call`-th call
    (counted from 0) goes through `spoil`."""
    real, calls = getattr(verify, name), itertools.count()

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        return spoil(out) if next(calls) == call else out

    monkeypatch.setattr(verify, name, wrapper)


def test_a_nan_state_fails_the_unit_norm_criterion(monkeypatch):
    def nan_state(theta):
        return ParamVector(theta.arch, np.full_like(theta.values, np.nan))

    _nan_on_call(monkeypatch, "rescale_full", nan_state)
    res = verify.check_unit_norms(SEED)
    assert not res.passed
    assert np.isnan(res.details["max_norm_deviation"])


def test_a_nan_risk_fails_the_monotone_risk_criterion():
    records = [SimpleNamespace(risk=np.array([1.0, 0.5])), SimpleNamespace(risk=np.array([1.0, np.nan, 0.5]))]
    res = verify.check_monotone_risk(records)
    assert not res.passed
    assert np.isnan(res.details["max_risk_increase_per_step"])


def test_a_nan_output_bias_component_fails_the_gradient_identity(monkeypatch):
    def nan_bias(G):
        G = G.copy()
        G[3] = np.nan
        return G

    _nan_on_call(monkeypatch, "project_gradient", nan_bias)
    res = verify.check_one_neuron_gradient_identity(SEED)
    assert not res.passed
    assert np.isnan(res.details["max_output_bias_component"])
    assert res.details["max_component_deviation"] <= res.details["tolerance"]
