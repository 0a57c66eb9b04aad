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
The surviving pairs are labelled into connected components once, over
all N rows, and written straight into a `linalg.BlockDiagonal`: one
``(c, m, m)`` stack of the components' principal submatrices, and a
diagonal on which each decoupled row is its own eigenvalue.  Repair,
diagonal restoration, the floor's spectrum and the root take and return
that form, one eigensolver call on the stack each, so a decoupled row's
entry in the root, ``1 / sqrt(max(1, floor))``, falls out of the same
map; the repair test, the diagonal restoration and the floor stay
decisions over all rows together.  Repair returns a correlation, so no
stage rescales it; `correlation_from_cov` and `precision_root` (bound to
`linalg.inv_sqrt_psd`) stay importable here for the tracer and the tests.
"""

from dataclasses import dataclass
from statistics import NormalDist, StatisticsError

import numpy as np

from .linalg import (BlockDiagonal, correlation_from_cov, edge_components, inv_sqrt_psd,
                     layout, psd_repair, spectrum)

__all__ = [
    "CorrelationPairs",
    "DependenceEstimate",
    "MtCorrelation",
    "sample_cov",
    "correlation_pairs",
    "hard_threshold",
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

    `root` holds the root of each component of the thresholded
    correlation in its stack and ``1 / sqrt(max(1, floor))`` on the
    diagonal of every decoupled row; ``root @ t`` standardizes the t-ratios.
    """

    pairs: CorrelationPairs  # every pair the threshold or the MT step may keep
    root: BlockDiagonal
    floor: float  # eigenvalue floor of the root
    threshold_used: float
    repaired: bool  # PSD repair clipped an eigenvalue
    coupled: int  # rows with a surviving off-diagonal correlation
    components: int  # connected components of the thresholded correlation's coupled rows
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
    `threshold` must be at least ``pairs.cut``; the diagonal is 1.  The
    survivors are labelled by `edge_components` over all N rows, laid out
    by `linalg.layout` and each written straight into its slot.

    Returns
    -------
    (BlockDiagonal, ndarray)
        The thresholded correlation, and each row's component label
        (-1 for a row with no survivor).
    """
    if threshold < pairs.cut:
        raise ValueError(f"threshold {threshold} is below the pairs' cut {pairs.cut}")
    keep = pairs.rho >= threshold
    keep |= pairs.rho <= -threshold
    i, j, rho = pairs.i[keep], pairs.j[keep], pairs.rho[keep]
    label = edge_components(pairs.n, i, j)
    slots = layout(label)
    m = slots.shape[1]
    flat = np.flatnonzero(slots < pairs.n)  # c * m + p for block c's row in slot p
    slot = np.empty(pairs.n, dtype=np.intp)
    slot[slots.ravel()[flat]] = flat
    stack = np.zeros(slots.shape + (m,))
    rows = stack.reshape(slots.size, m)  # row c * m + p of the stack is row p of slice c
    rows[flat, flat % m] = 1.0
    rows[slot[i], slot[j] % m] = rho
    rows[slot[j], slot[i] % m] = rho
    return BlockDiagonal(np.ones(pairs.n), slots, stack), label


precision_root = inv_sqrt_psd  # the inverse correlation root, under its old name


def _mt_cuts(n: int, v: int, q_mt: float, delta_mt: float) -> tuple[float, float]:
    """The multiple-testing critical value c_n and the candidates' cut.

    Candidates clear a cut a relative 1e-9 below c_n / sqrt(v), more than
    the rounding of either side, so they include every pair that passes
    the exact test ``sqrt(v) * |rho_ij| >= c_n``.  c_n is read off the tail
    ``p = q_mt / (2 * N**delta_mt)`` itself, finite even where p vanishes next
    to 1; a p not in (0, 1), or an N**delta_mt that overflows, is a ValueError.
    """
    try:  # N**delta_mt may overflow or be 0; inv_cdf rejects 0 and 1 (c_n = +inf, -inf)
        c_n = -NormalDist().inv_cdf(q_mt / (2.0 * n**delta_mt))
    except (OverflowError, ZeroDivisionError, StatisticsError):
        c_n = np.nan
    if not np.isfinite(c_n):
        raise ValueError(f"q_mt={q_mt} and delta_mt={delta_mt} give no finite multiple-testing "
                         f"critical value at N={n}")
    return c_n, c_n / np.sqrt(v) * (1.0 - 1e-9)


def mt_rho_bar_sq(
    pairs: CorrelationPairs, v: int, q_mt: float, delta_mt: float
) -> MtCorrelation:
    """Multiple-testing estimate of the mean squared pairwise correlation.

    A pairwise sample correlation rho_ij survives iff
    ``sqrt(v) * |rho_ij| >= -Phi^-1(q_mt / (2 * N**delta_mt))``; the
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
    residuals: np.ndarray, dof: int, delta: float, q_mt: float, delta_mt: float
) -> DependenceEstimate:
    """Correlation pairs, threshold, repair and root of the N x T residuals.

    No N x N array is formed.  One tiled pass over the unit-norm residual
    rows keeps the correlations that clear the hard threshold
    ``delta * sqrt(log N / T)`` or the candidates' cut of the
    multiple-testing step (`q_mt`, `delta_mt`), whichever is lower; `dof`
    is that step's v.  The survivors are labelled once, and repair and
    root run on their component stack.
    """
    n, t = np.shape(residuals)
    threshold = delta * np.sqrt(np.log(n) / t)
    cut = min(threshold, _mt_cuts(n, dof, q_mt, delta_mt)[1])
    pairs = correlation_pairs(residuals, cut)
    thresholded, label = hard_threshold(pairs, threshold)
    sizes = np.bincount(label[label >= 0])
    r_hat = psd_repair(thresholded, PSD_EPS_FRAC)
    # the decoupled rows' eigenvalue 1 is below the largest of a non-empty stack
    floor = EIGEN_FLOOR_FRAC * spectrum(r_hat)[-1]
    return DependenceEstimate(
        pairs=pairs,
        root=inv_sqrt_psd(r_hat, floor),
        floor=floor,
        threshold_used=threshold,
        repaired=r_hat is not thresholded,
        coupled=int(sizes.sum()),
        components=int(np.count_nonzero(sizes)),
        largest_component=int(sizes.max(initial=0)),
    )
