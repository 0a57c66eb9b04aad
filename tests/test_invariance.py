"""Invariance of the five statistics to how a panel is expressed.

The tests are functions of the t-ratios and the residual correlations,
so relabelling the securities, measuring each security in other units,
reparametrising the factors (F -> FA) or adding factor-spanned returns
(Y -> Y + BF') must leave every statistic unchanged up to roundoff.
The panels are small (N <= 60, T = 60) and use threshold constant 1, so
the active block is non-empty and PSD repair fires on nearly all of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.alpha_tests import TestConfig as Config, run_all_detailed
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.ols import FactorPanel

CONFIG = Config(threshold_delta=1.0)
RTOL = 1e-9

panels = st.builds(
    lambda model, dist, n, m, seed: simulate_panel(
        ScenarioConfig(n=n, t=60, cov_model=model, error_dist=dist, m=m, seed=seed), m, 0),
    model=st.sampled_from(["M1", "M2", "M3", "M4"]),
    dist=st.sampled_from(["normal", "t5_scaled"]),
    n=st.integers(30, 60),
    m=st.integers(0, 3),
    seed=st.integers(0, 10_000),
)
draws = st.integers(0, 2**32 - 1)


def _statistics(panel):
    results, diag = run_all_detailed(panel, CONFIG)
    return {r.name: r.statistic for r in results}, diag


def _assert_same(panel, transformed):
    base, diag = _statistics(panel)
    assert diag["coupled"] > 0
    other, _ = _statistics(transformed)
    for name, value in base.items():
        assert abs(other[name] - value) <= RTOL * max(1.0, abs(value)), (name, value, other[name])


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_permuting_securities(panel, draw):
    perm = np.random.default_rng(draw).permutation(panel.n_securities)
    _assert_same(panel, FactorPanel(returns=panel.returns[perm], factors=panel.factors))


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_rescaling_each_security(panel, draw):
    scale = 10.0 ** np.random.default_rng(draw).uniform(-9.0, 9.0, panel.n_securities)
    _assert_same(panel, FactorPanel(returns=scale[:, None] * panel.returns,
                                    factors=panel.factors))


@given(panels, draws)
@settings(max_examples=10, deadline=None)
def test_rescaling_securities_by_1e150(panel, draw):
    # the squares stay normal doubles at either end of the double range
    scale = 10.0 ** (150.0 * np.random.default_rng(draw).choice([-1, 0, 1], panel.n_securities))
    _assert_same(panel, FactorPanel(returns=scale[:, None] * panel.returns,
                                    factors=panel.factors))


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_reparametrising_factors(panel, draw):
    # A = U diag(s) V' with singular values spread over at most 1e3
    rng = np.random.default_rng(draw)
    p = panel.n_factors
    u, _ = np.linalg.qr(rng.standard_normal((p, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (u * 10.0 ** rng.uniform(-1.5, 1.5, p)) @ v.T
    assert np.linalg.cond(a) <= 1e3
    _assert_same(panel, FactorPanel(returns=panel.returns, factors=panel.factors @ a))


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_adding_factor_spanned_returns(panel, draw):
    b = 10.0 * np.random.default_rng(draw).standard_normal(
        (panel.n_securities, panel.n_factors))
    _assert_same(panel, FactorPanel(returns=panel.returns + b @ panel.factors.T,
                                    factors=panel.factors))
