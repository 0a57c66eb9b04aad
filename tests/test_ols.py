import numpy as np
import pytest

from alphatest.errors import (DegenerateDesign, DimensionError, ShapeMismatch, TooFewObservations,
                              ZeroResidualVariance)
from alphatest.ols import FactorPanel, fit


def make_panel(n=5, t=30, p=3, seed=0, alpha=None):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((t, p))
    betas = rng.standard_normal((n, p))
    eps = rng.standard_normal((n, t))
    if alpha is None:
        alpha = np.zeros(n)
    y = alpha[:, None] + betas @ f.T + eps
    return FactorPanel(returns=y, factors=f)


def full_design_oracle(panel):
    """Intercept estimate and t-ratio from a regression on (1, F)."""
    f = panel.factors
    t, p = f.shape
    x = np.column_stack([np.ones(t), f])
    xtx_inv = np.linalg.inv(x.T @ x)
    v = t - p - 1
    alphas, tees, sigmas = [], [], []
    for y in panel.returns:
        coef = xtx_inv @ x.T @ y
        resid = y - x @ coef
        s2 = resid @ resid / v
        alphas.append(coef[0])
        sigmas.append(s2)
        tees.append(coef[0] / np.sqrt(s2 * xtx_inv[0, 0]))
    return np.array(alphas), np.array(sigmas), np.array(tees)


class TestFactorPanel:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            FactorPanel(returns=np.zeros((5, 10)), factors=np.zeros((9, 2)))

    def test_too_few_securities(self):
        with pytest.raises(DimensionError):
            FactorPanel(returns=np.zeros((1, 10)), factors=np.zeros((10, 2)))

    def test_too_short(self):
        # T > p + 5 keeps v > 4
        with pytest.raises(DimensionError):
            FactorPanel(returns=np.zeros((3, 8)), factors=np.zeros((8, 3)))

    def test_period_rules_come_first(self):
        # periods agree, then T > p + 5, then N >= 2, each with its own
        # DimensionError; a single security is not reached here
        with pytest.raises(ShapeMismatch, match="^returns have 10 periods but factors have 9$"):
            FactorPanel(returns=np.zeros((1, 10)), factors=np.zeros((9, 2)))
        with pytest.raises(TooFewObservations, match=r"^need T > p \+ 5, got T=8, p=3$"):
            FactorPanel(returns=np.zeros((1, 8)), factors=np.zeros((8, 3)))
        assert issubclass(ShapeMismatch, DimensionError)
        assert issubclass(TooFewObservations, DimensionError)

    def test_nonfinite_rejected(self):
        y = np.zeros((3, 12))
        y[1, 4] = np.nan
        with pytest.raises(DimensionError):
            FactorPanel(returns=y, factors=np.zeros((12, 2)))

    def test_properties(self):
        panel = make_panel(n=4, t=25, p=2)
        assert (panel.n_securities, panel.n_periods, panel.n_factors) == (4, 25, 2)


class TestFit:
    def test_constant_series_is_pure_intercept(self):
        # a constant series is fitted exactly by its intercept: no t-ratio
        rng = np.random.default_rng(1)
        f = rng.standard_normal((20, 3))
        y = rng.standard_normal((4, 20))
        y[[1, 3]] = 2.5
        with pytest.raises(ZeroResidualVariance, match=r"securities \[1, 3\]$"):
            fit(FactorPanel(returns=y, factors=f))

    def test_zero_noise_factor_returns(self):
        # Y = F b exactly: a zero intercept does not make the fit usable
        rng = np.random.default_rng(2)
        f = rng.standard_normal((15, 2))
        b = rng.standard_normal((3, 2))
        with pytest.raises(ZeroResidualVariance, match=r"securities \[0, 1, 2\]$"):
            fit(FactorPanel(returns=b @ f.T, factors=f))

    def test_constant_series_is_exact_intercept_fit(self):
        # a nonzero intercept with no noise has no finite t-ratio either
        rng = np.random.default_rng(3)
        f = rng.standard_normal((15, 2))
        with pytest.raises(ZeroResidualVariance):
            fit(FactorPanel(returns=np.full((2, 15), 1.5), factors=f))

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_exact_fit_raises_at_every_scale(self, scale):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((30, 3))
        y = rng.standard_normal((5, 30))
        y[2] = 0.3 + f @ rng.standard_normal(3)
        with pytest.raises(ZeroResidualVariance, match=r"securities \[2\]$"):
            fit(FactorPanel(returns=scale * y, factors=f))
        assert np.isfinite(fit(FactorPanel(returns=scale * y[[0, 1, 3, 4]], factors=f))
                           .t_stats).all()

    def test_all_zero_security_raises_without_warning(self):
        rng = np.random.default_rng(13)
        y = rng.standard_normal((3, 20))
        y[0] = 0.0
        with np.errstate(all="raise"), pytest.raises(ZeroResidualVariance):
            fit(FactorPanel(returns=y, factors=rng.standard_normal((20, 2))))

    @pytest.mark.parametrize("scale,cause", [(1e154, "overflow"), (1e-160, "underflow"),
                                             (1e-170, "underflow")])
    def test_squares_outside_the_normal_doubles_raise(self, scale, cause):
        # at 1e154 the squares overflow to inf and at 1e-170 underflow to 0,
        # which is not an exact fit; at 1e-160 subnormal sums lose digits
        rng = np.random.default_rng(15)
        f = rng.standard_normal((100, 3))
        y = 0.5 + 4.0 * rng.standard_normal((50, 100))
        y[[4, 9]] *= scale
        message = rf"{cause} double precision for securities \[4, 9\]"
        with pytest.raises(DimensionError, match=message):
            fit(FactorPanel(returns=y, factors=f))

    def test_tiny_noise_is_not_an_exact_fit(self):
        # residual noise at 1e-8 of the RMS return is a fit with a t-ratio
        rng = np.random.default_rng(14)
        f = rng.standard_normal((40, 3))
        exact = 1.0 + f @ rng.standard_normal((3, 4))
        rms = np.sqrt(np.mean(exact.T**2, axis=1))
        y = exact.T + 1e-8 * rms[:, None] * rng.standard_normal((4, 40))
        result = fit(FactorPanel(returns=y, factors=f))
        assert np.isfinite(result.t_stats).all() and (np.abs(result.t_stats) > 1e6).all()

    def test_matches_full_design_oracle(self):
        panel = make_panel(n=6, t=20, p=3, seed=4, alpha=np.linspace(-1, 1, 6))
        result = fit(panel)
        alpha_o, sigma_o, t_o = full_design_oracle(panel)
        assert np.abs(result.alpha_hat - alpha_o).max() < 1e-9
        assert np.abs(result.sigma_hat - sigma_o).max() < 1e-9
        assert np.abs(result.t_stats - t_o).max() < 1e-9

    def test_small_panel_normal_equations(self):
        panel = make_panel(n=3, t=7, p=1, seed=5)
        result = fit(panel)
        alpha_o, sigma_o, _ = full_design_oracle(panel)
        assert np.abs(result.alpha_hat - alpha_o).max() < 1e-9
        assert np.abs(result.sigma_hat - sigma_o).max() < 1e-9

    def test_dof(self):
        assert fit(make_panel(t=30, p=3)).dof == 26

    def test_residual_orthogonality(self):
        panel = make_panel(n=8, t=40, p=3, seed=6)
        result = fit(panel)
        scale = 1e-8 * np.abs(panel.returns).max()
        assert np.abs(result.residuals @ panel.factors).max() < scale
        assert np.abs(result.residuals.sum(axis=1)).max() < scale

    def test_factor_shift_equivariance(self):
        # adding a factor combination to every series changes nothing
        panel = make_panel(n=5, t=30, p=3, seed=7)
        shift = panel.factors @ np.array([0.5, -1.0, 2.0])
        shifted = FactorPanel(returns=panel.returns + shift, factors=panel.factors)
        a, b = fit(panel), fit(shifted)
        assert np.abs(a.alpha_hat - b.alpha_hat).max() < 1e-9
        assert np.abs(a.t_stats - b.t_stats).max() < 1e-9

    def test_scale_equivariance_of_t(self):
        panel = make_panel(n=5, t=30, p=3, seed=8)
        doubled = FactorPanel(returns=2.0 * panel.returns, factors=panel.factors)
        assert np.abs(fit(panel).t_stats - fit(doubled).t_stats).max() < 1e-9

    def test_degenerate_design(self):
        rng = np.random.default_rng(9)
        f = np.column_stack([np.ones(20), rng.standard_normal(20)])
        with pytest.raises(DegenerateDesign):
            fit(FactorPanel(returns=rng.standard_normal((3, 20)), factors=f))


class TestTRatios:
    def test_matches_fit(self):
        # t = alpha * sqrt(1'M1) / sqrt(sigma), with M the factor annihilator
        panel = make_panel(seed=10)
        result = fit(panel)
        x = np.column_stack([np.ones(panel.n_periods), panel.factors])
        leverage = 1.0 / np.linalg.inv(x.T @ x)[0, 0]
        expect = result.alpha_hat * np.sqrt(leverage / result.sigma_hat)
        assert np.abs(result.t_stats - expect).max() < 1e-9

    def test_degenerate_variance_raises(self):
        rng = np.random.default_rng(11)
        f = rng.standard_normal((15, 2))
        b = rng.standard_normal((3, 2))
        with pytest.raises(ZeroResidualVariance, match="exact fit"):
            fit(FactorPanel(returns=b @ f.T, factors=f))


def test_null_t_moments():
    # under iid normal errors with fixed F, t_i ~ Student-t(v):
    # mean ~ 0, variance ~ v/(v-2); one stacked fit plays 10000 replications
    reps = 10000
    rng = np.random.default_rng(12)
    t, p = 30, 3
    f = rng.standard_normal((t, p))
    y = rng.standard_normal((reps, t))
    result = fit(FactorPanel(returns=y, factors=f))
    v = result.dof
    tees = result.t_stats
    assert abs(tees.mean()) < 4.0 / np.sqrt(reps)
    target = v / (v - 2.0)
    assert abs(tees.var() - target) < 0.15 * target
