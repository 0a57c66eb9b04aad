import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import erfcx, ndtri
from scipy.stats import chi2, gumbel_r, norm

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
from alphatest.ols import FactorPanel, fit
from dense_reference import hard_threshold, max_stat_standardized, tiled_correlation


def normal_tail(x):
    """Upper normal tail ``erfcx(z) * exp(-z**2) / 2`` at ``z = x * sqrt(1/2)``,
    the argument scipy's `ndtr` forms, with z**2 split into a head whose square
    is exact and a small rest.  `norm.sf` rounds z**2 before its exp, which
    costs it up to 5e-14 relative below p = 1e-80."""
    z = x * math.sqrt(0.5)
    head = math.ldexp(round(math.ldexp(z, 20)), -20)  # <= 25 bits below z = 32
    return 0.5 * erfcx(z) * math.exp(-head * head) * math.exp(-(z - head) * (z + head))


def gumbel_tail(x):
    """Upper tail of the max-statistic limit law exp(-exp(-x/2)/sqrt(pi)).

    `gumbel_r.sf` with loc = -log(pi) rounds the shift x + log(pi), which
    costs up to ulp(x)/4 relative: 4e-15 below x = 80, 5e-14 at x = 1380.
    From x = 80 on, exp(-x/2) < 5e-18, so the tail is
    ``gumbel_r.sf(x, scale=2) / sqrt(pi)``, with no shift, to 1e-17 relative.
    """
    if x < 80.0:
        return gumbel_r.sf(x, loc=-math.log(math.pi), scale=2.0)
    return gumbel_r.sf(x, scale=2.0) / math.sqrt(math.pi)


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

    @pytest.mark.parametrize("m", [5.0, 9.0, 20.0, 60.0, 88.0, 100.0, 300.0, 1000.0, 1385.0])
    def test_tail_matches_scipy(self, m):
        # 1 - cdf lost every digit below p = 1e-16: max_p_value(100, 200) read P_FLOOR
        n = 200
        centered = m - 2.0 * math.log(n) + math.log(math.log(n))
        want = gumbel_tail(centered)
        assert 1e-300 <= want < 1.0
        assert max_p_value(m, n) == pytest.approx(want, rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("p", [0.5, 0.05, 1e-8, 1e-15, 6e-16, 1e-20, 1e-50, 1e-100,
                                   1e-200, 2e-300])
    def test_p_value_tail_matches_scipy(self, p):
        # 1 - ndtr lost every digit below 1e-16: py_p_value(8) was 7% high,
        # and from PY ~ 8.3 on p read P_FLOOR
        x = norm.isf(p)
        assert py_p_value(x) == pytest.approx(normal_tail(x), rel=1e-14, abs=0.0)
        if p >= 1e-80:
            assert py_p_value(x) == pytest.approx(norm.sf(x), rel=1e-14, abs=0.0)

    def test_fisher_statistic_keeps_growing_with_py(self):
        # with p = 0 clamped to P_FLOOR, FC read 1382.94 for every PY from ~8.3 on
        fc = [fisher_combine(py_p_value(stat), 0.5) for stat in (8.0, 9.0, 20.0, 30.0)]
        assert np.all(np.diff(fc) > 0.0) and fc[-1] < -2.0 * math.log(1e-300)

    def test_critical_value_matches_ndtri(self):
        for gamma in (1e-6, 0.01, 0.05, 0.1, 0.5):
            py = run_all(_synthetic_panel(0), Config(gamma=gamma))[0]
            assert py.critical_value == pytest.approx(ndtri(1.0 - gamma), rel=1e-15, abs=0.0)


class TestChisq4:
    def test_sf_at_quantile(self):
        assert np.isclose(chisq4_sf(9.48773), 0.05, atol=1e-5)

    def test_quantile(self):
        assert np.isclose(chisq4_quantile(0.05), 9.48773, atol=1e-5)

    def test_sf_matches_scipy(self):
        for x in (0.5, 3.0, 9.0, 20.0):
            assert np.isclose(chisq4_sf(x), chi2.sf(x, 4), atol=1e-12)

    def test_negative_raises(self):
        with pytest.raises(NegativeInput):
            chisq4_sf(-1.0)

    @pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.5, 0.9])
    def test_quantile_matches_scipy(self, gamma):
        expected = chi2.isf(gamma, 4)
        assert np.isclose(chisq4_quantile(gamma), expected, rtol=1e-12, atol=0.0)

    def test_quantile_to_the_last_bits(self):
        gammas = np.concatenate([np.geomspace(1e-6, 0.999, 400), [0.05, 0.1]])
        got = np.array([chisq4_quantile(float(g)) for g in gammas])
        np.testing.assert_allclose(got, chi2.isf(gammas, 4), rtol=2e-15, atol=0.0)

    def test_quantile_near_one(self):
        # u - log1p(u) cancels for small u; its series keeps the quantile
        # accurate all the way to the largest level below 1
        gammas = np.concatenate([np.geomspace(1e-300, 0.5, 500),
                                 1.0 - np.geomspace(0.5, 2.0**-53, 500)])
        got = np.array([chisq4_quantile(float(g)) for g in gammas])
        np.testing.assert_allclose(got, chi2.isf(gammas, 4), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-100, 0.9999, 1.0 - 1e-12])
    def test_quantile_at_extreme_levels(self, gamma):
        # the Newton loop ends on these too, at the quantile
        assert chisq4_sf(chisq4_quantile(gamma)) == pytest.approx(gamma, rel=1e-9)


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

    def test_component_diagnostics(self):
        # the 12 active rows of this Model 1 panel split into four connected
        # components, each of scipy's components of the thresholded block
        panel = _synthetic_panel(5)
        _, diag = run_all_detailed(panel)
        assert (diag["coupled"], diag["components"], diag["largest_component"]) == (12, 4, 4)
        res = fit(panel)
        corr = tiled_correlation(res.residuals)
        block, _, _ = hard_threshold(corr, 60, Config().threshold_delta)
        count, label = connected_components(block != 0, directed=False)
        assert (count, np.bincount(label).max()) == (4, 4)

    def test_m3_null_block_is_empty(self):
        # at N=200, T=100 no Model 3 correlation clears the threshold 0.691,
        # so the precision root is the identity and MAX2 equals MAX1
        scenario = ScenarioConfig(n=200, t=100, cov_model="M3", m=0, seed=11)
        results, diag = run_all_detailed(simulate_panel(scenario, 0, 0))
        stats = {r.name: r.statistic for r in results}
        assert diag["coupled"] == 0 and diag["repaired"] is False
        assert diag["components"] == diag["largest_component"] == 0
        assert stats["MAX2"] == stats["MAX1"]

    def test_raw_critical_flag(self):
        panel = _synthetic_panel(6)
        adj = {r.name: r for r in run_all(panel)}
        raw = {r.name: r for r in run_all(panel, Config(use_adjusted_critical=False))}
        assert np.isclose(raw["FC2"].critical_value, chisq4_quantile(0.05), atol=1e-6)
        assert raw["FC2"].critical_value < adj["FC2"].critical_value
        assert np.isclose(raw["FC2"].statistic, adj["FC2"].statistic)


class TestConfigKnobs:
    @pytest.mark.parametrize("field", ["threshold_delta", "q_mt", "delta_mt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_knob_raises(self, field, value):
        # a NaN threshold would keep no pair, silently
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Config(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_non_positive_threshold_raises(self, value):
        # every pair would survive a threshold at or below zero
        with pytest.raises(ValueError, match="threshold_delta must be positive"):
            Config(threshold_delta=value)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_non_positive_qmt_raises(self, value):
        # the multiple-testing tail q_mt / (2 N**delta_mt) must be a probability above 0
        with pytest.raises(ValueError, match="q_mt must be positive"):
            Config(q_mt=value)

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.1, float("nan"),
                                       2.0**-54, 1e-17, 5e-324])
    def test_gamma_outside_unit_interval_raises(self, value):
        # at or below 2**-54, 1 - gamma rounds to 1 and the critical values fail
        with pytest.raises(ValueError, match=rf"gamma must be in \(0, 1\).*, got {value}$"):
            Config(gamma=value)

    def test_smallest_gamma_gives_finite_critical_values(self):
        gamma = math.nextafter(2.0**-54, 1.0)
        results = run_all(_synthetic_panel(0), Config(gamma=gamma))
        assert all(math.isfinite(r.critical_value) for r in results)

    @pytest.mark.parametrize("field,value", [
        ("gamma", True), ("threshold_delta", True), ("q_mt", False), ("delta_mt", True),
        ("gamma", "0.05"), ("threshold_delta", None), ("q_mt", 0.05j), ("delta_mt", [1.0]),
        ("use_adjusted_critical", "no"), ("use_adjusted_critical", 1),
        ("use_adjusted_critical", np.True_),
    ])
    def test_mistyped_knob_raises(self, field, value):
        # a bool is no delta, and a non-empty string would read as an adjusted critical value
        want = "a bool" if field == "use_adjusted_critical" else "a real number"
        message = f"^{field} must be {want}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            Config(**{field: value})

    def test_numbers_are_stored_as_floats(self):
        config = Config(gamma=np.float32(0.25), threshold_delta=2, q_mt=Fraction(1, 20),
                        delta_mt=np.int64(1))
        values = [config.gamma, config.threshold_delta, config.q_mt, config.delta_mt]
        assert [type(value) for value in values] == [float] * 4
        assert values == [0.25, 2.0, 0.05, 1.0]

    def test_scenario_json_round_trip(self):
        # every config the constructor accepts is written as JSON that reads back as it
        test = Config(gamma=0.1, threshold_delta=2, q_mt=np.float64(0.01), delta_mt=np.int64(2),
                      use_adjusted_critical=False)
        scenario = ScenarioConfig(n=20, t=40, test=test)
        assert ScenarioConfig.from_json(scenario.to_json()) == scenario
        with pytest.raises(ValueError, match="^use_adjusted_critical must be a bool, got 'no'$"):
            ScenarioConfig(n=20, t=40, test=Config(use_adjusted_critical="no"))


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
