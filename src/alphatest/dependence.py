"""Residual dependence estimation.

Produces the three correlation-structure ingredients the tests need:

* a hard-thresholded covariance estimate (Bickel-Levina style) and the
  correlation matrix derived from it,
* the symmetric inverse square root of that correlation matrix, used to
  decorrelate the t-ratio vector before taking a maximum,
* the multiple-testing average of squared thresholded correlations that
  corrects the sum-type test's variance for cross-sectional dependence.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NonPositiveDiagonal
from .linalg import coupled, inv_sqrt_psd, psd_repair, spectrum

__all__ = [
    "DependenceEstimate",
    "MtCorrelation",
    "sample_cov",
    "hard_threshold",
    "correlation_from_cov",
    "precision_root",
    "mt_rho_bar_sq",
    "estimate_dependence",
]

# Fraction of the largest diagonal entry (resp. eigenvalue) used as the
# PSD-repair epsilon and the inverse-root eigenvalue floor.  Hard
# thresholding of a banded correlation structure routinely produces an
# indefinite matrix; with a tiny floor the inverse root amplifies the
# repaired directions by orders of magnitude and the standardized max
# test rejects almost always.  These fractions keep that amplification
# below ~3x and reproduce the reference null rejection rates.
PSD_EPS_FRAC = 0.15
EIGEN_FLOOR_FRAC = 0.12


@dataclass(frozen=True)
class DependenceEstimate:
    sigma_hat: np.ndarray
    sigma_thresholded: np.ndarray
    r_hat: np.ndarray
    omega_root: np.ndarray
    threshold_used: float
    coupled: int  # securities in the block the precision root decomposed


@dataclass(frozen=True)
class MtCorrelation:
    """Average of squared surviving pairwise correlations."""

    rho_bar_sq: float
    survivors: int
    mt_threshold: float


def sample_cov(residuals: np.ndarray, dof: int) -> np.ndarray:
    """Residual covariance with divisor `dof`."""
    e = np.asarray(residuals, dtype=float)
    s = (e @ e.T) / dof
    return (s + s.T) / 2.0


def hard_threshold(sigma: np.ndarray, t: int, delta: float):
    """Zero small off-diagonal entries on the correlation scale.

    An off-diagonal entry survives iff its correlation magnitude is at
    least ``delta * sqrt(log(N) / t)``.  The diagonal is untouched; the
    result is passed through PSD repair since thresholding can break
    positive definiteness.

    Returns
    -------
    (ndarray, float)
        The repaired thresholded matrix and the threshold that was used.
    """
    s = np.asarray(sigma, dtype=float)
    n = s.shape[0]
    threshold = delta * np.sqrt(np.log(n) / t)
    d = np.sqrt(np.diag(s))
    corr = s / np.outer(d, d)
    keep = np.abs(corr) >= threshold
    np.fill_diagonal(keep, True)
    out = np.where(keep, s, 0.0)
    out = psd_repair(out, PSD_EPS_FRAC * np.diag(s).max())
    return out, threshold


def correlation_from_cov(sigma: np.ndarray) -> np.ndarray:
    """Scale a covariance matrix to unit diagonal."""
    s = np.asarray(sigma, dtype=float)
    d = np.diag(s)
    if (d <= 0).any():
        raise NonPositiveDiagonal("covariance diagonal must be positive")
    inv_sd = 1.0 / np.sqrt(d)
    r = s * np.outer(inv_sd, inv_sd)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def precision_root(r_hat: np.ndarray, floor: float | None = None) -> np.ndarray:
    """Symmetric inverse square root of a correlation matrix."""
    r = np.asarray(r_hat, dtype=float)
    if floor is None:
        floor = EIGEN_FLOOR_FRAC * spectrum(r)[-1]
    return inv_sqrt_psd(r, floor)


def mt_rho_bar_sq(
    sigma_hat: np.ndarray, v: int, q_mt: float, delta_mt: float
) -> MtCorrelation:
    """Multiple-testing estimate of the mean squared pairwise correlation.

    A pairwise sample correlation rho_ij survives iff
    ``sqrt(v) * |rho_ij| >= ndtri(1 - q_mt / (2 * N**delta_mt))``; the
    estimate averages the squared survivors over all N(N-1)/2 pairs.
    """
    s = np.asarray(sigma_hat, dtype=float)
    n = s.shape[0]
    d = np.sqrt(np.diag(s))
    corr = s / np.outer(d, d)
    c_n = float(ndtri(1.0 - q_mt / (2.0 * n**delta_mt)))
    iu = np.triu_indices(n, k=1)
    rho = corr[iu]
    survive = np.sqrt(v) * np.abs(rho) >= c_n
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho[survive] ** 2))
    return MtCorrelation(
        rho_bar_sq=rho_bar_sq, survivors=int(survive.sum()), mt_threshold=c_n
    )


def estimate_dependence(
    residuals: np.ndarray, dof: int, t: int, delta: float
) -> DependenceEstimate:
    """Full dependence pipeline: covariance, threshold, correlation, root."""
    sigma = sample_cov(residuals, dof)
    thresholded, used = hard_threshold(sigma, t, delta)
    r_hat = correlation_from_cov(thresholded)
    omega_root = precision_root(r_hat)
    return DependenceEstimate(
        sigma_hat=sigma,
        sigma_thresholded=thresholded,
        r_hat=r_hat,
        omega_root=omega_root,
        threshold_used=used,
        coupled=int(coupled(r_hat).size),
    )
