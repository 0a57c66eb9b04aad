"""Security-by-security OLS fits for the linear factor pricing model.

Each security's return series is regressed on an intercept and the shared
factor matrix.  The projection M onto the factor complement is computed
once per panel and reused across all N securities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDesign, DimensionError, ShapeMismatch, TooFewObservations,
                     ZeroResidualVariance)
from .linalg import annihilator

__all__ = ["FactorPanel", "OlsFit", "fit"]

# A residual standard deviation below 1e-10 of the security's RMS return is
# an exact fit: the relative cut does not depend on the security's units.
EXACT_FIT_FRAC = 1e-20


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
            raise ShapeMismatch(
                f"returns have {r.shape[1]} periods but factors have {f.shape[0]}"
            )
        n, t = r.shape
        p = f.shape[1]
        # T > p + 5 keeps v = T - p - 1 > 4, which the sum-type test needs.
        if t <= p + 5:
            raise TooFewObservations(f"need T > p + 5, got T={t}, p={p}")
        if n < 2:
            raise DimensionError(f"need at least 2 securities, got {n}")
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

    Raises
    ------
    DegenerateDesign
        If the intercept is numerically collinear with the factors.
    DimensionError
        If a security's mean squared return, or its residual sum of squares
        short of an exact fit, is not a finite normal double.
    ZeroResidualVariance
        If a security is fitted exactly: its residual variance is at most
        `EXACT_FIT_FRAC` of its mean squared return, so it has no t-ratio.
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
    mean_sq = np.einsum("ij,ij->i", y, y) / t  # einsum overflows to inf without a warning
    rss = np.einsum("ij,ij->i", resid, resid)
    sigma = rss / v
    exact = sigma <= EXACT_FIT_FRAC * mean_sq
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    normal = (tiny <= mean_sq) & (mean_sq <= huge) & (rss <= huge) & ((rss >= tiny) | exact)
    for cause, side in (("overflow", mean_sq > 1.0), ("underflow", mean_sq <= 1.0)):
        if (bad := side & ~normal & y.any(axis=1)).any():
            raise DimensionError(f"squared returns or residuals {cause} double precision for "
                                 f"securities {np.flatnonzero(bad).tolist()}; rescale them")
    if exact.any():
        raise ZeroResidualVariance(
            f"exact fit (residual variance at most {EXACT_FIT_FRAC:g} of the mean "
            f"squared return) for securities {np.flatnonzero(exact).tolist()}"
        )
    t_stats = alpha * np.sqrt(leverage) / np.sqrt(sigma)
    return OlsFit(
        alpha_hat=alpha,
        residuals=resid,
        sigma_hat=sigma,
        t_stats=t_stats,
        dof=v,
    )

