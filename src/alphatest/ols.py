"""Security-by-security OLS fits for the linear factor pricing model.

Each security's return series is regressed on the shared factors and an
intercept through `design_qr`, the one checked factorization of the design
``X = [F, 1]``: a security's intercept is ``(y Q)[p] / R[p, p]`` and its
residual ``y - (y Q) Q'``, O(Tp) per security, with no normal equations
and no T x T projection; `annihilator` builds that projection for the tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDesign, DimensionError, ShapeMismatch, SingularDesign,
                     TooFewObservations, ZeroResidualVariance)

__all__ = ["FactorPanel", "OlsFit", "design_qr", "annihilator", "fit"]

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
        if n < 3:  # the max tests' centering 2 log N - log log N needs N >= 3
            raise TooFewObservations(f"need N >= 3, got N={n}")
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


def design_qr(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR, ``(Q, R)`` with ``Q @ R == X``, of the T x (p+1) design
    ``X = [F, 1]``, intercept last: ``Q[:, :p]`` spans F and ``R[p, p]**2`` is
    ``1'M1``.  F must be 2-d with T > p >= 1, and cond(F'F), that is
    ``cond(R[:p, :p])**2`` from the SVD, at most 1e12."""
    f = np.asarray(factors, dtype=float)
    if f.ndim != 2:
        raise DimensionError(f"factor matrix must be 2-d, got ndim={f.ndim}")
    t, p = f.shape
    if t <= p:
        raise DimensionError(f"need more rows than columns, got {t}x{p}")
    if p == 0:
        raise DimensionError(f"need at least one factor column, got {t}x0")
    q, r = np.linalg.qr(np.column_stack([f, np.ones(t)]))
    if np.linalg.cond(r[:p, :p]) ** 2 > 1e12:
        raise SingularDesign("factor Gram matrix is numerically singular")
    return q, r


def annihilator(factors: np.ndarray) -> np.ndarray:
    """The T x T projection ``M = I - Q_F Q_F'`` off the columns of a T x p factor
    matrix F, as `design_qr` takes it, Q_F the first p columns of its Q: exactly
    symmetric and idempotent, with ``M @ F == 0`` and trace(M) == T - p."""
    q_f = design_qr(factors)[0][:, :-1]
    return np.eye(q_f.shape[0]) - q_f @ q_f.T


def fit(panel: FactorPanel) -> OlsFit:
    """Fit the factor model to every security in the panel.

    Raises
    ------
    SingularDesign
        If the factors are numerically collinear: cond(F'F) > 1e12.
    DegenerateDesign
        If the intercept is numerically collinear with the factors.
    DimensionError
        If there is no factor column, or a security's mean squared return, or
        its residual sum of squares short of an exact fit, is not a finite
        normal double.
    ZeroResidualVariance
        If a security is fitted exactly: its residual variance is at most
        `EXACT_FIT_FRAC` of its mean squared return, so it has no t-ratio.
    """
    y = panel.returns
    t = y.shape[1]
    q, r = design_qr(panel.factors)  # its intercept column last
    v = t - q.shape[1]
    leverage = float(r[-1, -1]) ** 2  # 1'M1, M the factors' annihilator
    if leverage <= 1e-10 * t:
        raise DegenerateDesign("intercept is collinear with the factor columns")
    yq = y @ q
    alpha = yq[:, -1] / r[-1, -1]
    resid = yq @ q.T
    np.subtract(y, resid, out=resid)  # y - (y Q) Q', in place on the projection
    mean_sq = np.einsum("ij,ij->i", y, y) / t  # einsum overflows to inf without a warning
    rss = np.einsum("ij,ij->i", resid, resid)
    sigma = rss / v
    exact = sigma <= EXACT_FIT_FRAC * mean_sq
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    normal = (tiny <= mean_sq) & (mean_sq <= huge) & (rss <= huge) & ((rss >= tiny) | exact)
    if not normal.all():  # scan only then; an all-zero security is an exact fit
        nonzero = y.any(axis=1)
        for cause, side in (("overflow", mean_sq > 1.0), ("underflow", mean_sq <= 1.0)):
            if (bad := side & ~normal & nonzero).any():
                raise DimensionError(
                    f"squared returns or residuals {cause} double precision for "
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

