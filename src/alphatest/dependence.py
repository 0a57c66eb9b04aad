"""Residual dependence estimation, held in block form.

Produces the correlation-structure ingredients the tests need:

* the pairs of securities whose residual correlation clears the lower
  of the two cuts below, found in one tiled pass over unit-norm rows,
* a hard-thresholded (Bickel-Levina style), PSD-repaired correlation
  matrix and its symmetric inverse square root, used to decorrelate the
  t-ratio vector before taking a maximum,
* the multiple-testing average of squared surviving correlations that
  corrects the sum-type test's variance for cross-sectional dependence.

The estimate works on the correlation scale alone, so it does not
depend on any security's units, and it forms no N x N array.

Block form: thresholding leaves most rows with no off-diagonal survivor.
Such a decoupled row stays a unit diagonal row through PSD repair,
diagonal restoration and the root, and its entry in the root has the
closed form ``1 / sqrt(max(1, floor))``; the root's `BlockDiagonal`
diagonal is the only place it lives.  Repair and root run on the
*active* rows alone: those with a surviving off-diagonal correlation.
Their connected components are labelled once, from the surviving pairs,
and `linalg` decomposes them one component at a time; the repair test,
the diagonal restoration and the floor stay decisions over all
components together.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NonPositiveDiagonal
from .linalg import BlockDiagonal, edge_components, inv_sqrt_psd, psd_repair, spectrum

__all__ = [
    "CorrelationPairs",
    "DependenceEstimate",
    "MtCorrelation",
    "sample_cov",
    "correlation_pairs",
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

# Rows of the correlation per tile of `correlation_pairs`; a tile holds
# TILE_ROWS x N doubles (1 MB at N=1000).  On M2 residuals at T=100, one
# core, 64, 128 and 256 rows time alike: a pass takes 1.2-1.3 ms at
# N=500, 4.9-5.6 ms at N=1000 and 109-114 ms at N=5000.
TILE_ROWS = 128


@dataclass(frozen=True)
class CorrelationPairs:
    """The pairs i < j of N securities whose correlation clears `cut` in magnitude.

    `i`, `j` and `rho` list them in row-major order over the upper
    triangle; ``rho_ij = u_i . u_j`` for the residual rows `u` scaled to
    unit norm.  The diagonal is 1 by definition.
    """

    i: np.ndarray
    j: np.ndarray
    rho: np.ndarray
    n: int
    cut: float


@dataclass(frozen=True)
class DependenceEstimate:
    """Correlation pairs and block-form inverse correlation root.

    `root` holds the root on the active rows as its block and
    ``1 / sqrt(max(1, floor))`` on the diagonal of every other row;
    ``root @ t`` standardizes the t-ratios.
    """

    pairs: CorrelationPairs  # every pair the threshold or the MT step may keep
    root: BlockDiagonal
    floor: float  # eigenvalue floor of the root
    threshold_used: float
    repaired: bool  # PSD repair clipped an eigenvalue
    components: int  # connected components of the thresholded correlation's active rows
    largest_component: int  # rows in the largest of them


@dataclass(frozen=True)
class MtCorrelation:
    """Average of squared surviving pairwise correlations."""

    rho_bar_sq: float
    survivors: int
    mt_threshold: float


def sample_cov(residuals: np.ndarray, dof: int) -> np.ndarray:
    """Residual covariance with divisor `dof`, exactly symmetric: numpy
    evaluates ``e @ e.T`` of a contiguous `e` with one BLAS syrk and mirrors
    its triangle.  The estimate never forms it; the dense test references
    and the benchmark's trace site use it."""
    e = np.ascontiguousarray(residuals, dtype=float)
    s = e @ e.T
    s /= dof
    return s


def correlation_pairs(residuals: np.ndarray, cut: float) -> CorrelationPairs:
    """The pairs whose residual correlation clears `cut` in magnitude.

    Each of the N residual rows is scaled to unit norm once, as `u`; then
    for each block of `TILE_ROWS` rows the product ``u[lo:hi] @ u[lo:].T``
    is a tile of the correlation matrix.  One pass over the upper
    triangle keeps each pair i < j with ``|rho_ij| >= cut``, in row-major
    order, and discards the tile; no N x N array is formed.
    """
    e = np.asarray(residuals, dtype=float)
    n = e.shape[0]
    u = e / np.sqrt(np.einsum("ij,ij->i", e, e))[:, None]
    found = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for lo in range(0, n, TILE_ROWS):
        hi = min(lo + TILE_ROWS, n)
        rho = u[lo:hi] @ u[lo:].T
        keep = rho >= cut  # |rho| >= cut, without a tile of |rho|
        keep |= rho <= -cut
        keep[:, :hi - lo] = np.triu(keep[:, :hi - lo], 1)  # j > i in the tile's square
        flat = np.flatnonzero(keep)  # row-major, and ~10x faster than a 2-D nonzero
        r, c = np.divmod(flat, n - lo)
        found.append((r + lo, c + lo, rho.ravel()[flat]))
    i, j, rho = map(np.concatenate, zip(*found))
    return CorrelationPairs(i, j, rho, n, cut)


def hard_threshold(pairs: CorrelationPairs, threshold: float):
    """Zero the correlations below `threshold` in magnitude, in block form.

    A pair of `pairs` survives iff ``|rho_ij| >= threshold``, so
    `threshold` must be at least ``pairs.cut``; the diagonal is 1.
    The active rows are those with a survivor; every other row is
    diagonal in the result.

    Returns
    -------
    (ndarray, ndarray, (ndarray, ndarray))
        The thresholded correlation on the active rows, the ascending
        active indices, and the survivors' (row, column) positions in
        that block, each pair once.
    """
    if threshold < pairs.cut:
        raise ValueError(f"threshold {threshold} is below the pairs' cut {pairs.cut}")
    keep = pairs.rho >= threshold
    keep |= pairs.rho <= -threshold
    i, j, rho = pairs.i[keep], pairs.j[keep], pairs.rho[keep]
    active = np.flatnonzero(np.bincount(np.concatenate([i, j]), minlength=pairs.n))
    i, j = np.searchsorted(active, i), np.searchsorted(active, j)
    block = np.eye(active.size)
    block[i, j] = rho
    block[j, i] = rho
    return block, active, (i, j)


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


def precision_root(r_hat: np.ndarray, floor: float, label=None) -> np.ndarray:
    """Symmetric inverse square root of a correlation matrix, eigenvalues
    floored at `floor` (`estimate_dependence` sets it); `label` holds the
    component labels of `r_hat`, as `linalg.edge_components` gives them."""
    return inv_sqrt_psd(r_hat, floor, label)


def _mt_cuts(n: int, v: int, q_mt: float, delta_mt: float) -> tuple[float, float]:
    """The multiple-testing critical value c_n and the candidates' cut.

    Candidates clear a cut a relative 1e-9 below c_n / sqrt(v), more than
    the rounding of either side, so they include every pair that passes
    the exact test ``sqrt(v) * |rho_ij| >= c_n``.  A c_n that is not finite,
    as when ``q_mt <= 0`` or ``q_mt / N**delta_mt >= 2``, is a ValueError.
    """
    c_n = float(ndtri(1.0 - q_mt / (2.0 * n**delta_mt)))
    if not np.isfinite(c_n):
        raise ValueError(f"q_mt={q_mt} and delta_mt={delta_mt} give the multiple-testing "
                         f"critical value {c_n} at N={n}")
    return c_n, c_n / np.sqrt(v) * (1.0 - 1e-9)


def mt_rho_bar_sq(
    pairs: CorrelationPairs, v: int, q_mt: float, delta_mt: float
) -> MtCorrelation:
    """Multiple-testing estimate of the mean squared pairwise correlation.

    A pairwise sample correlation rho_ij survives iff
    ``sqrt(v) * |rho_ij| >= ndtri(1 - q_mt / (2 * N**delta_mt))``; the
    estimate averages the squared survivors over all N(N-1)/2 pairs.  The
    exact test runs on `pairs`, whose cut must not exceed the candidates'
    cut of `_mt_cuts`, and sums the survivors in its row-major order.
    """
    n = pairs.n
    c_n, cut = _mt_cuts(n, v, q_mt, delta_mt)
    if pairs.cut > cut:
        raise ValueError(f"pairs cut {pairs.cut} is above the candidates' cut {cut}")
    rho = pairs.rho[np.sqrt(v) * np.abs(pairs.rho) >= c_n]
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho**2))
    return MtCorrelation(rho_bar_sq=rho_bar_sq, survivors=rho.size, mt_threshold=c_n)


def estimate_dependence(
    residuals: np.ndarray, dof: int, t: int, delta: float, q_mt: float, delta_mt: float
) -> DependenceEstimate:
    """Correlation pairs, threshold, repair and root of the N x T residuals.

    No N x N array is formed.  One tiled pass over the unit-norm residual
    rows keeps the correlations that clear the hard threshold or the
    candidates' cut of the multiple-testing step (`q_mt`, `delta_mt`),
    whichever is lower; `dof` is that step's v.  Repair and root run on
    the active block, whose components are labelled once, from the
    surviving pairs.
    """
    n = np.shape(residuals)[0]
    threshold = delta * np.sqrt(np.log(n) / t)
    cut = min(threshold, _mt_cuts(n, dof, q_mt, delta_mt)[1])
    pairs = correlation_pairs(residuals, cut)
    thresholded, active, edges = hard_threshold(pairs, threshold)
    label = edge_components(active.size, *edges)
    sizes = np.bincount(label)
    block = psd_repair(thresholded, PSD_EPS_FRAC, label)
    r_hat = correlation_from_cov(block)
    # a decoupled row's eigenvalue 1 is below the largest of a non-empty block
    floor = EIGEN_FLOOR_FRAC * spectrum(r_hat, label).max(initial=1.0)
    outside = np.full(n, 1.0 / np.sqrt(max(1.0, floor)))
    return DependenceEstimate(
        pairs=pairs,
        root=BlockDiagonal(outside, active, precision_root(r_hat, floor, label)),
        floor=floor,
        threshold_used=threshold,
        repaired=not np.array_equal(block, thresholded),
        components=int(np.count_nonzero(sizes)),
        largest_component=int(sizes.max(initial=0)),
    )
