"""Residual dependence estimation, held in block form.

Produces the correlation-structure ingredients the tests need:

* the correlation scale ``s_ij / sqrt(s_ii s_jj)`` of the residual
  covariance, computed once and read by both thresholds below,
* a hard-thresholded (Bickel-Levina style), PSD-repaired correlation
  matrix and its symmetric inverse square root, used to decorrelate the
  t-ratio vector before taking a maximum,
* the multiple-testing average of squared surviving correlations that
  corrects the sum-type test's variance for cross-sectional dependence.

Everything after the correlation scale works on it alone, so the
estimate does not depend on any security's units.

Block form: thresholding leaves most rows with no off-diagonal survivor.
Such a decoupled row stays a unit diagonal row through PSD repair,
diagonal restoration and the root, and its entry in the root has the
closed form ``1 / sqrt(max(1, floor))``.  So repair and root run on the
*active* rows only: those with a surviving off-diagonal correlation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NonPositiveDiagonal
from .linalg import inv_sqrt_psd, psd_repair, spectrum

__all__ = [
    "DependenceEstimate",
    "MtCorrelation",
    "sample_cov",
    "correlation_scale",
    "hard_threshold",
    "correlation_from_cov",
    "precision_root",
    "mt_rho_bar_sq",
    "estimate_dependence",
]

# PSD-repair epsilon, as a fraction of the thresholded correlation's unit
# diagonal, and the inverse-root eigenvalue floor, as a fraction of the
# repaired correlation's largest eigenvalue.  Hard thresholding of a
# banded correlation structure routinely produces an indefinite matrix;
# with a tiny floor the inverse root amplifies the repaired directions by
# orders of magnitude and the standardized max test rejects almost always.
# These fractions keep that amplification below ~3x and reproduce the
# reference null rejection rates.
PSD_EPS_FRAC = 0.15
EIGEN_FLOOR_FRAC = 0.12


@dataclass(frozen=True)
class DependenceEstimate:
    """Correlation scale and block-form inverse correlation root.

    The root is block diagonal: `root` on the ascending indices `active`,
    and ``1 / sqrt(max(1, floor))`` on the diagonal of every other row.
    """

    corr: np.ndarray  # correlation scale of the residual covariance, N x N
    active: np.ndarray
    root: np.ndarray
    floor: float  # eigenvalue floor of the root
    threshold_used: float
    repaired: bool  # PSD repair clipped an eigenvalue

    def standardize(self, t: np.ndarray) -> np.ndarray:
        """The estimated inverse correlation root times `t`."""
        t = np.asarray(t, dtype=float)
        nu = t * (1.0 / np.sqrt(max(1.0, self.floor)))
        nu[self.active] = self.root @ t[self.active]
        return nu


@dataclass(frozen=True)
class MtCorrelation:
    """Average of squared surviving pairwise correlations."""

    rho_bar_sq: float
    survivors: int
    mt_threshold: float


def sample_cov(residuals: np.ndarray, dof: int) -> np.ndarray:
    """Residual covariance with divisor `dof`, exactly symmetric.

    numpy evaluates ``e @ e.T`` of a contiguous `e` with one BLAS syrk and
    mirrors its triangle, so no symmetrizing pass is needed.
    """
    e = np.ascontiguousarray(residuals, dtype=float)
    s = e @ e.T
    s /= dof
    return s


def correlation_scale(sigma: np.ndarray) -> np.ndarray:
    """``sigma_ij / sqrt(sigma_ii * sigma_jj)`` for every pair, diagonal included."""
    s = np.asarray(sigma, dtype=float)
    d = np.sqrt(np.diag(s))
    scale = np.outer(d, d)
    return np.divide(s, scale, out=scale)


def hard_threshold(corr: np.ndarray, t: int, delta: float):
    """Zero small off-diagonal correlations, in block form.

    An off-diagonal entry of `corr` (a symmetric `correlation_scale`)
    survives iff its magnitude is at least ``delta * sqrt(log(N) / t)``;
    the diagonal is untouched.  The active rows are those with a survivor;
    every other row is diagonal in the result.

    Returns
    -------
    (ndarray, ndarray, float)
        The thresholded correlation on the active rows, the ascending
        active indices, and the threshold that was used.
    """
    corr = np.asarray(corr, dtype=float)
    n = corr.shape[0]
    threshold = delta * np.sqrt(np.log(n) / t)
    keep = corr >= threshold  # |corr| >= threshold, without an N x N |corr|
    keep |= corr <= -threshold
    np.fill_diagonal(keep, False)
    active = np.flatnonzero(keep.any(axis=1))
    block = np.ix_(active, active)
    keep = keep[block]
    np.fill_diagonal(keep, True)
    return np.where(keep, corr[block], 0.0), active, threshold


def correlation_from_cov(sigma: np.ndarray) -> np.ndarray:
    """Scale a covariance matrix to unit diagonal; exactly symmetric if `sigma` is.

    `estimate_dependence` uses it to restore the unit diagonal of the
    PSD-repaired correlation block.
    """
    s = np.asarray(sigma, dtype=float)
    d = np.diag(s)
    if (d <= 0).any():
        raise NonPositiveDiagonal("covariance diagonal must be positive")
    inv_sd = 1.0 / np.sqrt(d)
    r = s * np.outer(inv_sd, inv_sd)
    np.fill_diagonal(r, 1.0)
    return r


def precision_root(r_hat: np.ndarray, floor: float) -> np.ndarray:
    """Symmetric inverse square root of a correlation matrix, eigenvalues
    floored at `floor` (`estimate_dependence` sets it)."""
    return inv_sqrt_psd(r_hat, floor)


def mt_rho_bar_sq(
    corr: np.ndarray, v: int, q_mt: float, delta_mt: float
) -> MtCorrelation:
    """Multiple-testing estimate of the mean squared pairwise correlation.

    A pairwise sample correlation rho_ij (an entry of `corr`, the
    `correlation_scale` of the residual covariance) survives iff
    ``sqrt(v) * |rho_ij| >= ndtri(1 - q_mt / (2 * N**delta_mt))``; the
    estimate averages the squared survivors over all N(N-1)/2 pairs.
    """
    c = np.asarray(corr, dtype=float)
    n = c.shape[0]
    c_n = float(ndtri(1.0 - q_mt / (2.0 * n**delta_mt)))
    # Candidates clear a cut a relative 1e-9 below c_n / sqrt(v), more than
    # the rounding of either side, so they include every survivor; the
    # exact test then runs on the candidates alone.
    cut = c_n / np.sqrt(v) * (1.0 - 1e-9)
    candidate = c >= cut
    candidate |= c <= -cut
    np.fill_diagonal(candidate, False)
    rows = np.flatnonzero(candidate.any(axis=1))
    i, j = np.nonzero(candidate[rows])
    i = rows[i]
    upper = j > i  # row-major order over the upper triangle, as `triu_indices`
    rho = c[i[upper], j[upper]]
    rho = rho[np.sqrt(v) * np.abs(rho) >= c_n]
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho**2))
    return MtCorrelation(rho_bar_sq=rho_bar_sq, survivors=rho.size, mt_threshold=c_n)


def estimate_dependence(
    residuals: np.ndarray, dof: int, t: int, delta: float
) -> DependenceEstimate:
    """Covariance, correlation scale, threshold, repair and root.

    Only the covariance, its correlation scale and the threshold
    comparisons are N x N; repair and root run on the active block.
    """
    corr = correlation_scale(sample_cov(residuals, dof))
    thresholded, active, used = hard_threshold(corr, t, delta)
    block = psd_repair(thresholded, PSD_EPS_FRAC)
    r_hat = correlation_from_cov(block)
    w = spectrum(r_hat)
    if active.size < corr.shape[0]:
        w = np.append(w, 1.0)  # each decoupled row outside is the eigenpair (1, e_i)
    floor = EIGEN_FLOOR_FRAC * w.max()
    return DependenceEstimate(
        corr=corr,
        active=active,
        root=precision_root(r_hat, floor),
        floor=floor,
        threshold_used=used,
        repaired=not np.array_equal(block, thresholded),
    )
