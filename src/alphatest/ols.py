"""Security-by-security OLS fits for the linear factor pricing model.

Each security's return series is regressed on an intercept and the shared
factor matrix.  The projection M onto the factor complement is computed
once per panel and reused across all N securities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, DimensionError, ZeroResidualVariance
from .linalg import annihilator

__all__ = ["FactorPanel", "OlsFit", "fit", "t_ratios"]


@dataclass(frozen=True)
class FactorPanel:
    """Observed N x T returns plus the shared T x p factor matrix."""

    returns: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        f = np.asarray(self.factors, dtype=float)
        if r.ndim != 2 or f.ndim != 2:
            raise DimensionError("returns and factors must be 2-d arrays")
        if r.shape[1] != f.shape[0]:
            raise DimensionError(
                f"returns have T={r.shape[1]} but factors have T={f.shape[0]}"
            )
        n, t = r.shape
        p = f.shape[1]
        if n < 2:
            raise DimensionError(f"need at least 2 securities, got {n}")
        # T >= p + 6 keeps v = T - p - 1 > 4, which the sum-type test needs.
        if t < p + 6:
            raise DimensionError(f"need T >= p + 6, got T={t}, p={p}")
        if not (np.isfinite(r).all() and np.isfinite(f).all()):
            raise DimensionError("panel contains non-finite entries")
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "factors", f)

    @property
    def n_securities(self) -> int:
        return self.returns.shape[0]

    @property
    def n_periods(self) -> int:
        return self.returns.shape[1]

    @property
    def n_factors(self) -> int:
        return self.factors.shape[1]


@dataclass(frozen=True)
class OlsFit:
    """Per-security intercept estimates and residual diagnostics.

    Attributes
    ----------
    alpha_hat : ndarray, shape (N,)
        OLS intercept estimates.
    residuals : ndarray, shape (N, T)
        Rows are the per-security OLS residual series.
    sigma_hat : ndarray, shape (N,)
        Residual variances with divisor v = T - p - 1.
    t_stats : ndarray, shape (N,)
        Intercept t-ratios.
    dof : int
        Residual degrees of freedom v.
    """

    alpha_hat: np.ndarray
    residuals: np.ndarray
    sigma_hat: np.ndarray
    t_stats: np.ndarray
    dof: int


def fit(panel: FactorPanel) -> OlsFit:
    """Fit the factor model to every security in the panel.

    Securities with a numerically exact zero-noise fit get t = 0 when the
    intercept estimate is also zero, and an infinite t otherwise; use
    :func:`t_ratios` for the strict variant that rejects such fits.

    Raises
    ------
    DegenerateDesign
        If the intercept is numerically collinear with the factors.
    """
    y = panel.returns
    f = panel.factors
    n, t = y.shape
    v = t - f.shape[1] - 1
    m = annihilator(f)
    ones = np.ones(t)
    m_ones = m @ ones
    leverage = float(ones @ m_ones)
    if leverage <= 1e-10 * t:
        raise DegenerateDesign("intercept is collinear with the factor columns")
    alpha = (y @ m_ones) / leverage
    resid = (y - alpha[:, None]) @ m
    sigma = np.einsum("ij,ij->i", resid, resid) / v
    t_stats = _safe_t(alpha, sigma, leverage)
    return OlsFit(
        alpha_hat=alpha,
        residuals=resid,
        sigma_hat=sigma,
        t_stats=t_stats,
        dof=v,
    )


def _safe_t(alpha, sigma, leverage):
    tiny = sigma < 1e-14
    if not tiny.any():
        return alpha * np.sqrt(leverage) / np.sqrt(sigma)
    # exact-fit securities: zero intercept gives t = 0, a nonzero one
    # has no finite t-ratio and is marked infinite
    t = np.zeros_like(alpha)
    ok = ~tiny
    t[ok] = alpha[ok] * np.sqrt(leverage) / np.sqrt(sigma[ok])
    blown = tiny & (np.abs(alpha) > 1e-10)
    t[blown] = np.sign(alpha[blown]) * np.inf
    return t


def t_ratios(fit_result: OlsFit) -> np.ndarray:
    """Intercept t-ratios alpha * sqrt(1'M1) / sqrt(sigma)."""
    sigma = fit_result.sigma_hat
    if (sigma < 1e-14).any():
        raise ZeroResidualVariance("residual variance below 1e-14")
    return fit_result.t_stats
