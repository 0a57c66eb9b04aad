import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.alpha_tests import (
    METHODS,
    adjusted_critical,
    chisq4_quantile,
    chisq4_sf,
    fisher_combine,
    gumbel_cdf,
    gumbel_quantile,
    max_p_value,
    max_stat,
    py_p_value,
    py_stat,
    run_all,
    run_all_detailed,
)
from alphatest.alpha_tests import TestConfig as Config
from alphatest.dgp import (
    assemble_panel,
    build_cov,
    cov_sqrt,
    gen_betas,
    gen_errors,
    gen_factors,
)
from alphatest.errors import DegenerateDof, DimensionError, NegativeInput
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.ols import FactorPanel
from dense_reference import max_stat_standardized


class TestMaxStat:
    def test_basic(self):
        assert max_stat(np.array([1.0, -2.0, 3.0])) == 9.0
        assert max_stat(np.zeros(4)) == 0.0

    def test_matches_loop(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(50)
        assert max_stat(t) == max(x**2 for x in t)


class TestMaxStatStandardized:
    def test_worked_example(self):
        omega_root = np.array([[1.296353, -0.529389], [-0.529389, 1.296353]])
        stat = max_stat_standardized(np.array([1.0, 1.0]), omega_root)
        assert np.isclose(stat, 0.588234, atol=1e-6)

    def test_identity_reduces_to_max1(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(20)
        assert np.isclose(max_stat_standardized(t, np.eye(20)), max_stat(t))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            max_stat_standardized(np.zeros(3), np.eye(2))


class TestGumbel:
    def test_cdf_at_zero(self):
        assert np.isclose(gumbel_cdf(0.0), 0.5688209, atol=1e-6)

    def test_quantile_005(self):
        assert np.isclose(gumbel_quantile(0.05), 4.7956606, atol=1e-6)

    def test_quantile_at_cdf_zero(self):
        gamma = 1.0 - gumbel_cdf(0.0)
        assert abs(gumbel_quantile(gamma)) < 1e-10

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_quantile_cdf_roundtrip(self, gamma):
        assert np.isclose(gumbel_cdf(gumbel_quantile(gamma)), 1.0 - gamma, atol=1e-12)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            gumbel_quantile(0.0)


class TestMaxPValue:
    def test_at_centering_point(self):
        n = 200
        m = 2.0 * math.log(n) - math.log(math.log(n))
        assert np.isclose(max_p_value(m, n), 1.0 - 0.5688209, atol=1e-6)

    def test_quantile_roundtrip(self):
        n = 200
        m = 2.0 * math.log(n) - math.log(math.log(n)) + gumbel_quantile(0.05)
        assert np.isclose(max_p_value(m, n), 0.05, atol=1e-10)

    def test_clamped_to_unit_interval(self):
        assert 0.0 < max_p_value(0.0, 200) <= 1.0
        assert max_p_value(1e6, 200) >= 1e-300


class TestPyStat:
    def test_worked_example(self):
        # N=2, v=10, t^2 = (2, 3), no dependence correction:
        # (2.5/sqrt(2)) / (1.25*sqrt(3)) = 0.81650
        t = np.array([np.sqrt(2.0), np.sqrt(3.0)])
        assert np.isclose(py_stat(t, 0.0, 10), 0.81650, atol=1e-5)

    def test_dependence_correction_shrinks_stat(self):
        t = np.full(10, 2.0)
        assert py_stat(t, 0.2, 20) < py_stat(t, 0.0, 20)

    def test_degenerate_dof(self):
        with pytest.raises(DegenerateDof):
            py_stat(np.ones(3), 0.0, 4)

    def test_p_value_one_sided(self):
        assert np.isclose(py_p_value(0.0), 0.5)
        assert py_p_value(10.0) < 1e-10
        assert py_p_value(-10.0) > 0.999


class TestChisq4:
    def test_sf_at_quantile(self):
        assert np.isclose(chisq4_sf(9.48773), 0.05, atol=1e-5)

    def test_quantile(self):
        assert np.isclose(chisq4_quantile(0.05), 9.48773, atol=1e-5)

    def test_sf_matches_scipy(self):
        from scipy.stats import chi2

        for x in (0.5, 3.0, 9.0, 20.0):
            assert np.isclose(chisq4_sf(x), chi2.sf(x, 4), atol=1e-12)

    def test_negative_raises(self):
        with pytest.raises(NegativeInput):
            chisq4_sf(-1.0)

    @pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9])
    def test_quantile_matches_scipy(self, gamma):
        from scipy.stats import chi2

        expected = chi2.isf(gamma, 4)
        assert np.isclose(chisq4_quantile(gamma), expected, rtol=1e-12, atol=0.0)


class TestFisherCombine:
    def test_worked_example(self):
        assert np.isclose(fisher_combine(0.05, 0.05), 11.98293, atol=1e-5)

    def test_clamps_zero(self):
        stat = fisher_combine(0.0, 1.0)
        assert np.isfinite(stat)
        assert np.isclose(stat, -2.0 * math.log(1e-300))

    @given(st.floats(1e-12, 1.0), st.floats(1e-12, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, p_a, p_b):
        assert fisher_combine(p_a, p_b) >= 0.0


class TestAdjustedCritical:
    def test_worked_example(self):
        # scipy.stats.chi2.isf(0.05, 4) * (1 + 1/log(100*sqrt(200))) = 10.795600...
        assert np.isclose(adjusted_critical(100, 200, 0.05), 10.79560, atol=1e-4)

    def test_shrinks_to_asymptotic(self):
        big = adjusted_critical(10000, 10000, 0.05)
        assert chisq4_quantile(0.05) < big < adjusted_critical(100, 200, 0.05)


def _synthetic_panel(seed, n=40, t=60, alpha=None):
    rng = np.random.default_rng(seed)
    sigma = build_cov("M1", n, rng)
    factors = gen_factors(t, rng=rng)
    errors = gen_errors(cov_sqrt(sigma), "normal", t, rng)
    betas = gen_betas(n, rng)
    if alpha is None:
        alpha = np.zeros(n)
    return assemble_panel(alpha, betas, factors, errors)


class TestRunAll:
    def test_order_and_fields(self):
        results = run_all(_synthetic_panel(0))
        assert tuple(r.name for r in results) == METHODS
        for r in results:
            assert 0.0 <= r.p_value <= 1.0
            assert np.isfinite(r.statistic)
            if r.name in ("PY", "MAX1", "MAX2"):
                assert r.reject == (r.p_value < r.gamma)
            else:
                assert r.reject == (r.statistic > r.critical_value)

    def test_deterministic(self):
        a = run_all(_synthetic_panel(1))
        b = run_all(_synthetic_panel(1))
        assert a == b

    def test_permutation_invariance(self):
        panel = _synthetic_panel(2)
        rng = np.random.default_rng(3)
        perm = rng.permutation(panel.n_securities)
        permuted = FactorPanel(returns=panel.returns[perm], factors=panel.factors)
        a = run_all(panel)
        b = run_all(permuted)
        for ra, rb in zip(a, b):
            assert np.isclose(ra.statistic, rb.statistic, atol=1e-8), ra.name

    def test_huge_alpha_rejects(self):
        n, t = 40, 60
        alpha = np.zeros(n)
        alpha[0] = 10.0 * np.sqrt(np.log(n) / t)
        results = {r.name: r for r in run_all(_synthetic_panel(4, alpha=alpha))}
        assert results["MAX2"].reject

    def test_diagnostics(self):
        _, diag = run_all_detailed(_synthetic_panel(5))
        assert diag["N"] == 40 and diag["T"] == 60 and diag["p"] == 3
        assert diag["v"] == 60 - 3 - 1
        assert diag["threshold_used"] > 0
        assert 0.0 <= diag["rho_bar_sq"] < 1.0
        assert 0 <= diag["coupled"] <= 40
        # Model 1 thresholding leaves an indefinite block at this seed; 72
        # of the 780 pairs clear the multiple-testing cut
        assert diag["repaired"] is True
        assert diag["mt_survivors"] == 72

    def test_m3_null_block_is_empty(self):
        # at N=200, T=100 no Model 3 correlation clears the threshold 0.691,
        # so the precision root is the identity and MAX2 equals MAX1
        scenario = ScenarioConfig(n=200, t=100, cov_model="M3", m=0, seed=11)
        results, diag = run_all_detailed(simulate_panel(scenario, 0, 0))
        stats = {r.name: r.statistic for r in results}
        assert diag["coupled"] == 0 and diag["repaired"] is False
        assert stats["MAX2"] == stats["MAX1"]

    def test_raw_critical_flag(self):
        panel = _synthetic_panel(6)
        adj = {r.name: r for r in run_all(panel)}
        raw = {r.name: r for r in run_all(panel, Config(use_adjusted_critical=False))}
        assert np.isclose(raw["FC2"].critical_value, chisq4_quantile(0.05), atol=1e-6)
        assert raw["FC2"].critical_value < adj["FC2"].critical_value
        assert np.isclose(raw["FC2"].statistic, adj["FC2"].statistic)


@pytest.mark.slow
def test_null_rejection_rates(m3_null_details):
    # simulated global null: each test's rejection rate at 5% within [2%, 8%]
    first_1000 = m3_null_details[:1000]
    for name in METHODS:
        rate = np.mean([d[name].reject for d in first_1000])
        assert 0.02 <= rate <= 0.08, f"{name} null rate {rate:.4f}"


@pytest.mark.slow
def test_fisher_null_law(m3_null_details):
    # empirical law of the FC2 statistic vs chi-square(4), KS distance
    stats = np.sort([d["FC2"].statistic for d in m3_null_details])
    n = stats.size
    cdf = 1.0 - np.array([chisq4_sf(s) for s in stats])
    ks = np.abs(cdf - (np.arange(1, n + 1) / n)).max()
    ks = max(ks, np.abs(cdf - np.arange(n) / n).max())
    assert ks <= 0.06, f"KS distance {ks:.4f}"
