import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest import linalg
from alphatest.errors import (DegenerateDesign, DimensionError, ShapeMismatch, SingularDesign,
                              TooFewObservations, ZeroResidualVariance)
from alphatest.ols import FactorPanel, annihilator, design_qr, fit
from dense_reference import annihilator_fit


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
        # the max tests' centering 2 log N - log log N needs N >= 3
        for n in (0, 1, 2):
            with pytest.raises(TooFewObservations, match=f"^need N >= 3, got N={n}$"):
                FactorPanel(returns=np.zeros((n, 10)), factors=np.zeros((10, 2)))
        FactorPanel(returns=np.zeros((3, 10)), factors=np.zeros((10, 2)))

    def test_too_short(self):
        # T > p + 5 keeps v > 4
        with pytest.raises(DimensionError):
            FactorPanel(returns=np.zeros((3, 8)), factors=np.zeros((8, 3)))

    def test_period_rules_come_first(self):
        # periods agree, then T > p + 5, then N >= 3, each with its own
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
            fit(FactorPanel(returns=np.full((3, 15), 1.5), factors=f))

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

    def test_no_factor_columns_raises(self):
        y = np.random.default_rng(24).standard_normal((3, 20))
        with pytest.raises(DimensionError, match=r"^need at least one factor column, got 20x0$"):
            fit(FactorPanel(returns=y, factors=np.zeros((20, 0))))


def exposed_panel(n, t, seed, scales=(1.0, 1.0, 1.0)):
    """Returns alpha + B F' + noise on factor columns scaled by `scales`, each
    security's exposure scaled back, so every factor moves returns by O(1)."""
    rng = np.random.default_rng(seed)
    scales = np.asarray(scales)
    f = rng.standard_normal((t, scales.size)) * scales
    betas = rng.standard_normal((n, scales.size)) / scales
    y = 0.3 + betas @ f.T + rng.standard_normal((n, t))
    return FactorPanel(returns=y, factors=f)


# (N, T, factor column scales): well conditioned at three sizes, then factors
# in mismatched units, with cond(F'F) near 1e10, inside the 1e12 cut
DESIGNS = [(3, 9, (1.0, 1.0, 1.0)), (200, 100, (1.0, 1.0, 1.0)), (1000, 120, (1.0, 1.0, 1.0)),
           (200, 100, (1.0, 1e-2, 1e3)), (200, 100, (1e-3, 1.0, 1e2))]
DESIGN_IDS = ["3-9", "200-100", "1000-120", "200-100-units-1,1e-2,1e3", "200-100-units-1e-3,1,1e2"]


class TestRankPResiduals:
    """`fit` projects the centred returns through the p factor columns; the
    T x T annihilator product of `annihilator_fit` is the reference."""

    @pytest.mark.parametrize("n,t,scales", DESIGNS, ids=DESIGN_IDS)
    def test_matches_the_annihilator_product(self, n, t, scales):
        panel = exposed_panel(n, t, seed=n + t, scales=scales)
        f = panel.factors
        cond = np.linalg.cond(f.T @ f)
        assert cond < 1e11 and (cond > 1e9) == (len(set(scales)) > 1)
        result = fit(panel)
        alpha, resid = annihilator_fit(panel.returns, f)
        assert np.abs(result.residuals - resid).max() <= 1e-12 * np.abs(resid).max()
        assert np.abs(result.alpha_hat - alpha).max() <= 1e-12 * np.abs(alpha).max()

    @pytest.mark.parametrize("n,t,scales", DESIGNS, ids=DESIGN_IDS)
    def test_residuals_are_orthogonal_to_the_design(self, n, t, scales):
        # E F = 0 and E 1 = 0, each entry against the norms of its row and column
        panel = exposed_panel(n, t, seed=5, scales=scales)
        e = fit(panel).residuals
        yc = panel.returns - panel.returns.mean(axis=1, keepdims=True)
        x = np.column_stack([np.ones(t), panel.factors])
        bound = np.linalg.norm(yc, axis=1)[:, None] * np.linalg.norm(x, axis=0)
        assert (np.abs(e @ x) <= 1e-12 * bound).all()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("gap", [1e-5, 3e-6])
    def test_near_collinear_factors_match_lstsq(self, gap, seed):
        # factor 3 is factor 2 plus gap * noise: cond(F'F) is 4e10 to 5e11,
        # inside the 1e12 cut, where the normal equations lose 1e-8 to 4e-5
        rng = np.random.default_rng(seed)
        n, t = 200, 100
        f = rng.standard_normal((t, 3))
        f[:, 2] = f[:, 1] + gap * rng.standard_normal(t)
        y = 0.3 + rng.standard_normal((n, 3)) @ f.T + rng.standard_normal((n, t))
        assert 1e10 < np.linalg.cond(f.T @ f) < 1e12
        result = fit(FactorPanel(returns=y, factors=f))
        x = np.column_stack([f, np.ones(t)])
        coef = np.linalg.lstsq(x, y.T, rcond=None)[0]
        resid = y - (x @ coef).T
        assert np.abs(result.residuals - resid).max() <= 1e-9 * np.abs(resid).max()
        assert np.abs(result.alpha_hat - coef[3]).max() <= 1e-9 * np.abs(coef[3]).max()

    def test_singular_and_degenerate_messages(self):
        rng = np.random.default_rng(22)
        col = rng.standard_normal(20)
        y = rng.standard_normal((3, 20))
        with pytest.raises(SingularDesign, match="^factor Gram matrix is numerically singular$"):
            fit(FactorPanel(returns=y, factors=np.column_stack([col, 2.0 * col])))
        f = np.column_stack([np.ones(20), col])
        with pytest.raises(DegenerateDesign,
                           match="^intercept is collinear with the factor columns$"):
            fit(FactorPanel(returns=y, factors=f))

    def test_no_eigensolver_call(self, eigen_calls):
        fit(exposed_panel(200, 100, seed=23))
        assert eigen_calls == []


class TestAnnihilator:
    def test_trace_is_t_minus_p(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((10, 3))
        m = annihilator(f)
        assert np.isclose(np.trace(m), 7.0, atol=1e-10)

    @given(st.integers(0, 1000), st.integers(5, 30), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_projection_properties(self, seed, t, p):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((t, p))
        m = annihilator(f)
        assert np.array_equal(m, m.T)
        assert np.allclose(m @ m, m, atol=1e-10)
        assert np.abs(m @ f).max() < 1e-10
        assert np.isclose(np.trace(m), t - p, atol=1e-9)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(12)
        f = np.column_stack([col, 2.0 * col])
        with pytest.raises(SingularDesign):
            annihilator(f)

    def test_wide_matrix_raises(self):
        with pytest.raises(DimensionError):
            annihilator(np.ones((3, 5)))

    def test_1d_raises(self):
        with pytest.raises(DimensionError):
            annihilator(np.ones(5))

    def test_no_factor_columns_raises(self):
        with pytest.raises(DimensionError, match=r"^need at least one factor column, got 12x0$"):
            annihilator(np.ones((12, 0)))


class TestDesignQR:
    """The contract `fit` reads off `design_qr`: X = [F, 1] = QR, intercept last."""

    @pytest.mark.parametrize("n,t,scales", DESIGNS, ids=DESIGN_IDS)
    def test_factors_the_design_intercept_last(self, n, t, scales):
        f = exposed_panel(n, t, seed=t, scales=scales).factors
        p = f.shape[1]
        q, r = design_qr(f)
        x = np.column_stack([f, np.ones(t)])
        assert q.shape == (t, p + 1) and r.shape == (p + 1, p + 1)
        assert np.abs(q @ r - x).max() <= 1e-12 * np.abs(x).max()
        assert np.abs(q.T @ q - np.eye(p + 1)).max() <= 1e-12
        ones = np.ones(t)
        assert np.isclose(r[p, p] ** 2, ones @ annihilator(f) @ ones, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("factors,error,message", [
        (np.column_stack([np.arange(12.0), 2.0 * np.arange(12.0)]), SingularDesign,
         "factor Gram matrix is numerically singular"),
        (np.ones(5), DimensionError, "factor matrix must be 2-d, got ndim=1"),
        (np.ones((3, 5)), DimensionError, "need more rows than columns, got 3x5"),
        (np.ones((12, 0)), DimensionError, "need at least one factor column, got 12x0"),
    ], ids=["collinear", "1d", "wide", "no-columns"])
    def test_messages(self, factors, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            design_qr(factors)

    def test_ols_owns_the_design(self):
        # one definition of each, where the fit and the benchmark tracer look it up
        assert design_qr.__module__ == annihilator.__module__ == "alphatest.ols"
        assert not hasattr(linalg, "design_qr") and not hasattr(linalg, "annihilator")


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
