"""Dense N x N forms of the block-form dependence estimate, for tests.

`hard_threshold` and `estimate_dependence` hold the thresholded
correlation and the inverse correlation root on their active rows only.
`densify`, `thresholded_dense` and `dense_root` rebuild the N x N
matrices from those blocks.  `dense_oracle` recomputes the estimate
without the block form: the threshold on the whole correlation scale,
then PSD repair, diagonal restoration, the eigenvalue floor and the
precision root on N x N, and the multiple-testing sum over
`triu_indices`.  `max_stat_standardized` is MAX2 from an N x N root.
"""

import numpy as np
from scipy.special import ndtri

from alphatest.dependence import (
    EIGEN_FLOOR_FRAC,
    PSD_EPS_FRAC,
    correlation_from_cov,
    correlation_scale,
    hard_threshold,
    precision_root,
    sample_cov,
)
from alphatest.errors import DimensionError
from alphatest.linalg import psd_repair, spectrum


def max_stat_standardized(t, omega_root):
    """Maximum squared entry of omega_root @ t."""
    t = np.asarray(t, dtype=float)
    omega_root = np.asarray(omega_root, dtype=float)
    if omega_root.shape != (t.size, t.size):
        raise DimensionError(
            f"omega_root shape {omega_root.shape} does not match t length {t.size}"
        )
    return float(np.max((omega_root @ t) ** 2))


def densify(block, active, diag):
    """N x N matrix: `block` on the `active` rows, `diag` on the others' diagonal."""
    out = np.diag(np.asarray(diag, dtype=float))
    out[np.ix_(active, active)] = block
    return out


def thresholded_dense(sigma, t, delta):
    """`hard_threshold` of the correlation scale of `sigma` as an N x N
    matrix, PSD-repaired, and the threshold used."""
    corr = correlation_scale(sigma)
    block, active, used = hard_threshold(corr, t, delta)
    return psd_repair(densify(block, active, np.diag(corr)), PSD_EPS_FRAC), used


def dense_root(dep):
    """The N x N inverse correlation root of a `DependenceEstimate`."""
    n = dep.corr.shape[0]
    outside = 1.0 / np.sqrt(np.maximum(1.0, dep.floor))
    return densify(dep.root, dep.active, np.full(n, outside))


def dense_oracle(residuals, dof, t, delta, q_mt, delta_mt):
    """(rho_bar_sq, N x N root, thresholded-and-repaired correlation) from
    the dense pipeline; `dof` is also the MT step's v."""
    sigma = sample_cov(residuals, dof)
    n = sigma.shape[0]
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)
    keep = np.abs(corr) >= delta * np.sqrt(np.log(n) / t)
    np.fill_diagonal(keep, True)
    repaired = psd_repair(np.where(keep, corr, 0.0), PSD_EPS_FRAC)
    r_hat = correlation_from_cov(repaired)
    root = precision_root(r_hat, EIGEN_FLOOR_FRAC * spectrum(r_hat)[-1])
    rho = corr[np.triu_indices(n, k=1)]
    c_n = float(ndtri(1.0 - q_mt / (2.0 * n**delta_mt)))
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho[np.sqrt(dof) * np.abs(rho) >= c_n] ** 2))
    return rho_bar_sq, root, repaired
