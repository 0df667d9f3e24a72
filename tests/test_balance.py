"""The rescaling symmetry as a check of the raw exact-ReLU gradient: the
pointwise identity at random states, and the balance law along the
unprojected flow (`tests/balance.py`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance import balance, identity_scale, identity_sides, standard_flow
from mgflow import (
    Architecture,
    ParamVector,
    TargetFunction,
    abs_offset_target,
    affine_target,
    discrete_measure,
    random_params,
    risk_and_gradient,
    uniform_measure,
)

MU = uniform_measure(0, 1, 1)
_POINTS = np.random.default_rng(5)
SETUPS = {  # (dims, measure, resolution): exact path, default grid, grid 24, a discrete measure
    "1,1,1": ((1, 1, 1), MU, None),
    "1,8,1": ((1, 8, 1), MU, None),
    "1,3,3,1": ((1, 3, 3, 1), MU, None),
    "2,4,4,1": ((2, 4, 4, 1), uniform_measure(0, 1, 2), 24),
    "2,3,1 discrete": ((2, 3, 1), discrete_measure(_POINTS.uniform(0, 1, (50, 2)), _POINTS.uniform(0.1, 1.0, 50)),
                       None),
}


def _target(dims):
    if dims[0] == 1:
        return TargetFunction.from_scalar(abs_offset_target(0.3))
    return TargetFunction.affine_map([[0.5, -0.25]], [0.1])


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SETUPS)))
@settings(max_examples=200, deadline=None)
def test_rescaling_identity_within_the_rounding_bound(seed, setup):
    """<g_row, row> = <g_col, col> per hidden neuron, for the raw gradient of
    `risk_and_gradient` at exact ReLU, to a derived rounding bound.

    Per node x (weights w_x carried by the deltas), with z = V_k A_{k-1} the
    pre-activations, a = max(z, 0), delta = W_{k+1}^T dz_{k+1} and
    dz = 1[z > 0] delta: both sides equal sum_x delta_i a_i, because
    1[z > 0] z = a.  Both are formed from the pass's own float values, so
    only the last roundings separate them, not the forward pass's error.
    With u = eps / 2, n nodes, m = l_{k-1} + 1 and p = l_{k+1}, to first order:
    - the row side sums n node products into each gradient entry, dots
      m entries with the row and stands for sum_x dz_i z_i, z itself an
      m-term sum: off by at most (n + 2m) u S_row;
    - below the last hidden layer the column side is the same with n + p
      roundings, and delta is a p-term sum: (n + 2p) u S_col;
    - at the last hidden layer the column side pairs the residual R with the
      centered activations a - m_a, and delta carries R - R_bar, so the
      centering, the node weights and the products add 4 roundings; and
      R_bar and m_a, each an n-term sum, cancel between the sides only up to
      2 n u (|R_bar| alpha_i + |m_a,i| rho) <= 4 n u C.
    `balance.identity_scale` gives S_row, S_col and C.  So
    |<g_row, row> - <g_col, col>| <= (n + 2m + 2p + 4) u (S_row + S_col) + 4 n u C.

    S_row + S_col is n u times sum_j |g_j theta_j| over the identity's terms
    with each g_j's node sum taken in absolute value.  Without the absolute
    value, sum_j |g_j theta_j| is no bound: node sums cancel, and over 1,000
    states per setup the residual reached 11.6 n eps sum_j |g_j theta_j| on
    1,1,1 and 1.0 on 1,3,3,1.  Against the bound above the largest residual
    was 2.2% of it.
    """
    dims, measure, resolution = SETUPS[setup]
    f = _target(dims)
    theta = random_params(Architecture(dims), np.random.default_rng(seed))
    raw = risk_and_gradient(theta, measure, f, resolution=resolution)[1]
    n, scales = identity_scale(theta, measure, f, resolution)
    u = np.finfo(float).eps / 2
    for k, ((row, col), (S_row, S_col, C)) in enumerate(zip(identity_sides(theta.arch, theta.values, raw), scales)):
        m, p = dims[k] + 1, dims[k + 2]
        bound = (n + 2 * m + 2 * p + 4) * u * (S_row + S_col) + 4 * n * u * C
        assert np.all(np.abs(row - col) <= bound), (k, row, col, bound)


START_111 = {"kink at 0.4, rising": [2.0, -0.8, 1.5, 0.0], "kink at 0.7, falling": [-3.0, 2.1, 2.0, 0.0]}


@pytest.mark.parametrize("start", [("1,1,1", name) for name in START_111] + [("1,8,1", seed) for seed in range(4)],
                         ids=str)
@pytest.mark.parametrize("target", ["abs_offset", "affine_up"])
def test_balance_drift_shrinks_at_rk4_order(start, target):
    """|[W_k | b_k]_i|^2 - |W_{k+1}[:, i]|^2 is conserved by the unprojected
    flow, so its drift after an RK4 run to t = 4 is the scheme's global error
    C h^4 (1 + O(h)) plus rounding: halving h divides the first part by 16
    up to the O(h) term.  Each step rounds each entry theta_j by at most
    u |theta_j|, which moves theta_j^2 by 2 u theta_j^2, so rounding moves the
    balance by at most about steps eps |theta|^2 (the field's rounding adds
    t times the identity's residual, far less).  The drift at h / 2 must be
    at least 100 times that, so rounding moves the ratio by at most 2%, and
    the ratio must be at least 12, leaving the rest of 16 for the O(h) term.
    From these starts the ratios were 16.3 to 16.95."""
    arch_name, key = start
    arch = Architecture(tuple(int(d) for d in arch_name.split(",")))
    theta = (ParamVector(arch, START_111[key]) if arch_name == "1,1,1"
             else random_params(arch, np.random.default_rng(key)))
    f = TargetFunction.from_scalar(abs_offset_target(0.3) if target == "abs_offset" else affine_target(0.0, 1.0))
    b0 = balance(arch, theta.values)
    drift = []
    for h in (0.1, 0.05):
        n_steps = int(round(4.0 / h))
        rec = standard_flow(theta, MU, f, h, n_steps)
        assert rec.termination[0] == "completed"
        drift.append(np.max(np.abs(balance(arch, rec.states[-1, 0]) - b0)))
    rounding = n_steps * np.finfo(float).eps * np.max(np.sum(rec.states[:, 0] ** 2, axis=-1))
    assert drift[1] >= 100.0 * rounding, (drift, rounding)
    assert drift[0] >= 12.0 * drift[1], drift
