"""Dense N x N forms of the block-form dependence estimate, for tests.

`hard_threshold` and `estimate_dependence` hold the thresholded
covariance and the inverse correlation root on their active rows only.
`densify`, `thresholded_dense` and `dense_root` rebuild the N x N
matrices from those blocks.  `dense_oracle` recomputes the estimate
without the block form: the threshold on the whole correlation scale,
then PSD repair, correlation scaling and the precision root on N x N,
and the multiple-testing sum over `triu_indices`.
"""

import numpy as np
from scipy.special import ndtri

from alphatest.dependence import (
    PSD_EPS_FRAC,
    correlation_from_cov,
    correlation_scale,
    hard_threshold,
    precision_root,
    sample_cov,
)
from alphatest.linalg import psd_repair


def densify(block, active, diag):
    """N x N matrix: `block` on the `active` rows, `diag` on the others' diagonal."""
    out = np.diag(np.asarray(diag, dtype=float))
    out[np.ix_(active, active)] = block
    return out


def thresholded_dense(sigma, t, delta):
    """`hard_threshold` of `sigma` as an N x N matrix, PSD-repaired, and the
    threshold used."""
    sigma = np.asarray(sigma, dtype=float)
    block, active, used = hard_threshold(sigma, correlation_scale(sigma), t, delta)
    dense = densify(block, active, np.diag(sigma))
    return psd_repair(dense, PSD_EPS_FRAC * np.diag(sigma).max()), used


def dense_root(dep):
    """The N x N inverse correlation root of a `DependenceEstimate`."""
    n = dep.corr.shape[0]
    outside = 1.0 / np.sqrt(np.maximum(1.0, dep.floor))
    return densify(dep.root, dep.active, np.full(n, outside))


def dense_oracle(residuals, dof, t, delta, q_mt, delta_mt):
    """(rho_bar_sq, N x N root, thresholded-and-repaired covariance) from
    the dense pipeline; `dof` is also the MT step's v."""
    sigma = sample_cov(residuals, dof)
    n = sigma.shape[0]
    d = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(d, d)
    keep = np.abs(corr) >= delta * np.sqrt(np.log(n) / t)
    np.fill_diagonal(keep, True)
    repaired = psd_repair(np.where(keep, sigma, 0.0), PSD_EPS_FRAC * np.diag(sigma).max())
    root = precision_root(correlation_from_cov(repaired))
    rho = corr[np.triu_indices(n, k=1)]
    c_n = float(ndtri(1.0 - q_mt / (2.0 * n**delta_mt)))
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho[np.sqrt(dof) * np.abs(rho) >= c_n] ** 2))
    return rho_bar_sq, root, repaired
