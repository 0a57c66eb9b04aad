"""Invariance of the five statistics to how a panel is expressed.

The tests are functions of the t-ratios and the residual correlations,
so relabelling the securities, measuring each security in other units,
reparametrising the factors (F -> FA) or adding factor-spanned returns
(Y -> Y + BF') must leave every statistic unchanged up to roundoff.
The simulated panels are small (N <= 60, T = 60) and use threshold
constant 1, so the active block is non-empty and PSD repair fires on
nearly all of them; there the root is one stack slice with no padding.
The benchmark's N=1000, T=120 CLI panels at the default threshold reach
the padded multi-component stack.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.alpha_tests import TestConfig as Config, run_all_detailed
from alphatest.dependence import estimate_dependence
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.ols import FactorPanel, fit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import cli_panel  # noqa: E402  the benchmark's CLI input panels

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


def _statistics(panel, config):
    results, diag = run_all_detailed(panel, config)
    return {r.name: r.statistic for r in results}, diag


def _assert_same(panel, transformed, config=CONFIG):
    base, diag = _statistics(panel, config)
    assert diag["coupled"] > 0
    other, _ = _statistics(transformed, config)
    for name, value in base.items():
        assert abs(other[name] - value) <= RTOL * max(1.0, abs(value)), (name, value, other[name])


def _permuted(panel, draw):
    perm = np.random.default_rng(draw).permutation(panel.n_securities)
    return FactorPanel(returns=panel.returns[perm], factors=panel.factors)


def _rescaled(panel, draw):
    scale = 10.0 ** np.random.default_rng(draw).uniform(-9.0, 9.0, panel.n_securities)
    return FactorPanel(returns=scale[:, None] * panel.returns, factors=panel.factors)


def _reparametrised(panel, draw):
    # A = U diag(s) V' with singular values spread over at most 1e3
    rng = np.random.default_rng(draw)
    p = panel.n_factors
    u, _ = np.linalg.qr(rng.standard_normal((p, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = (u * 10.0 ** rng.uniform(-1.5, 1.5, p)) @ v.T
    assert np.linalg.cond(a) <= 1e3
    return FactorPanel(returns=panel.returns, factors=panel.factors @ a)


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_permuting_securities(panel, draw):
    _assert_same(panel, _permuted(panel, draw))


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_rescaling_each_security(panel, draw):
    _assert_same(panel, _rescaled(panel, draw))


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
    _assert_same(panel, _reparametrised(panel, draw))


@given(panels, draws)
@settings(max_examples=20, deadline=None)
def test_adding_factor_spanned_returns(panel, draw):
    b = 10.0 * np.random.default_rng(draw).standard_normal(
        (panel.n_securities, panel.n_factors))
    _assert_same(panel, FactorPanel(returns=panel.returns + b @ panel.factors.T,
                                    factors=panel.factors))


@pytest.mark.parametrize("seed", range(3))
def test_cli_panel_root_is_a_padded_stack(seed):
    # what the transformations below run through: many components, each
    # padded to the largest, and PSD repair
    panel = FactorPanel(*cli_panel(seed, 0))
    fitted, config = fit(panel), Config()
    dep = estimate_dependence(fitted.residuals, fitted.dof, config.threshold_delta,
                              config.q_mt, config.delta_mt)
    assert 183 <= dep.root.slots.shape[0] <= 195
    assert (dep.root.slots == panel.n_securities).any() and dep.repaired


@pytest.mark.parametrize("transform", [_permuted, _rescaled, _reparametrised])
@pytest.mark.parametrize("seed", range(3))
def test_cli_panel_invariance(seed, transform):
    panel = FactorPanel(*cli_panel(seed, 0))
    _assert_same(panel, transform(panel, seed), Config())
