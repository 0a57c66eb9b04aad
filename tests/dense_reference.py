"""Dense N x N and vector-loop references of the block-form code, for tests.

`dependence.correlation_pairs` keeps only the correlations that clear a
cut, and `dependence.hard_threshold` and `dependence.mt_rho_bar_sq` read
those pairs; `correlation_scale`, `hard_threshold` and `mt_rho_bar_sq`
here are the dense pipeline they replace, on the whole N x N correlation
scale, and `upper_pairs` lists its upper-triangle survivors.
`tiled_correlation` is the N x N residual correlation with the
arithmetic of `correlation_pairs` (unit-norm rows, `TILE_ROWS` gemm
tiles, the upper triangle mirrored, a unit diagonal), so the dense
pipeline on it matches the pairs' bit for bit;
``correlation_scale(sample_cov(e, dof))`` is the same matrix from the
covariance, equal to it up to rounding.
The reference `hard_threshold` returns the thresholded correlation on
its active rows only; `dependence.hard_threshold` returns it as a
`BlockDiagonal`, one stack of its connected components, the form in
which `linalg` repairs and roots it and `build_cov` returns the M2
covariance.  ``np.asarray`` gives any `BlockDiagonal` as its N x N array;
`blocks` goes the other way, gathering a dense matrix's components into
a stack, and `thresholded_dense` is the repaired threshold as an N x N
matrix.
`dense_oracle` recomputes the estimate without the block form or the
component split: the threshold on the whole correlation scale, then PSD
repair, diagonal restoration, the eigenvalue floor and the precision
root from plain ``np.linalg.eigh``/``eigvalsh`` calls on N x N matrices,
and the multiple-testing sum over `triu_indices`.  `dense_statistics`
computes the five test statistics from it.  `max_stat_standardized` is
MAX2 from an N x N root.  `dense_m2_cov` draws the M2 covariance as an
N x N array and `gen_factors_vector` runs the factor recursion on
3-vectors.  `components` labels a dense matrix's components.
`annihilator_fit` is the OLS intercepts and residuals through the T x T
annihilator ``M = I - Q_F Q_F'`` of the factor columns, the centred
returns times M, which `ols.fit` replaces by reading the intercepts and
residuals off the QR factorization of ``[F, 1]`` it shares with M, in
O(NTp) work.
"""

import numpy as np

from alphatest import dgp
from alphatest.alpha_tests import fisher_combine, max_p_value, max_stat, py_p_value, py_stat
from alphatest.dependence import (
    EIGEN_FLOOR_FRAC, PSD_EPS_FRAC, TILE_ROWS, MtCorrelation, _mt_cuts,
)
from alphatest.errors import DimensionError
from alphatest.linalg import BlockDiagonal, edge_components, layout, psd_repair
from alphatest.ols import annihilator, fit


def correlation_scale(sigma):
    """``sigma_ij / sqrt(sigma_ii * sigma_jj)`` for every pair, diagonal included."""
    s = np.asarray(sigma, dtype=float)
    d = np.sqrt(np.diag(s))
    scale = np.outer(d, d)
    return np.divide(s, scale, out=scale)


def tiled_correlation(residuals):
    """N x N correlation of the residual rows, tile by tile as `correlation_pairs`
    computes it: each tile ``u[lo:hi] @ u[lo:].T`` of the unit-norm rows `u`
    is one gemm (a single ``u @ u.T`` would be one syrk, which rounds
    differently), its upper triangle is mirrored and the diagonal is 1."""
    e = np.asarray(residuals, dtype=float)
    n = e.shape[0]
    u = e / np.sqrt(np.einsum("ij,ij->i", e, e))[:, None]
    corr = np.empty((n, n))
    for lo in range(0, n, TILE_ROWS):
        corr[lo:lo + TILE_ROWS, lo:] = u[lo:lo + TILE_ROWS] @ u[lo:].T
    upper = np.triu(corr, 1)
    return upper + upper.T + np.eye(n)


def hard_threshold(corr, t, delta):
    """`dependence.hard_threshold` on the N x N correlation scale `corr`.

    An off-diagonal entry survives iff its magnitude is at least
    ``delta * sqrt(log(N) / t)``; the diagonal is untouched.  Returns the
    thresholded correlation on the active rows (those with a survivor),
    the ascending active indices, and the threshold that was used.
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


def mt_rho_bar_sq(corr, v, q_mt, delta_mt):
    """`dependence.mt_rho_bar_sq` on the N x N correlation scale `corr`.

    A correlation survives iff ``sqrt(v) * |rho_ij| >= c_n``; candidates
    clear a cut a relative 1e-9 below ``c_n / sqrt(v)``, and the exact test
    runs on them in row-major order over the upper triangle.  c_n and the
    cut come from `dependence._mt_cuts`: this checks the pairs, not the
    normal quantile, which `test_dependence.py` holds to scipy's `ndtri`.
    """
    c = np.asarray(corr, dtype=float)
    n = c.shape[0]
    c_n, cut = _mt_cuts(n, v, q_mt, delta_mt)
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


def upper_pairs(corr, cut):
    """(i, j, rho) of the upper-triangle entries of `corr` with |rho| >= cut,
    row-major, from `triu_indices`: the `correlation_pairs` reference."""
    i, j = np.triu_indices(corr.shape[0], k=1)
    keep = np.abs(corr[i, j]) >= cut
    return i[keep], j[keep], corr[i, j][keep]


def max_stat_standardized(t, omega_root):
    """Maximum squared entry of omega_root @ t."""
    t = np.asarray(t, dtype=float)
    omega_root = np.asarray(omega_root, dtype=float)
    if omega_root.shape != (t.size, t.size):
        raise DimensionError(
            f"omega_root shape {omega_root.shape} does not match t length {t.size}"
        )
    return float(np.max((omega_root @ t) ** 2))


def blocks(a):
    """A symmetric matrix as a `BlockDiagonal` on the components of its nonzero
    off-diagonal entries, laid out by `linalg.layout`: each slice gathered
    from `a` as its block's principal submatrix, zero in the padding, and
    the diagonal of `a` on the decoupled rows."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    slots = layout(components(a))
    rows = np.minimum(slots, n - 1)
    stack = a[rows[:, :, None], rows[:, None, :]]
    pad = slots == n
    stack[pad] = 0.0  # the padding rows,
    np.swapaxes(stack, 1, 2)[pad] = 0.0  # and columns
    return BlockDiagonal(np.diag(a).copy(), slots, stack)


def thresholded_dense(sigma, t, delta):
    """`hard_threshold` of the correlation scale of `sigma` as an N x N
    matrix, PSD-repaired in block form as in the estimate, and the
    threshold used."""
    corr = correlation_scale(sigma)
    block, active, used = hard_threshold(corr, t, delta)
    thresholded = np.diag(np.diag(corr))
    thresholded[np.ix_(active, active)] = block
    return np.asarray(psd_repair(blocks(thresholded), PSD_EPS_FRAC)), used


def dense_psd_repair(a, epsilon):
    """`psd_repair` from plain eigensolver calls on the whole matrix, but the
    clip whose diagonal is not restored comes back unscaled; `dense_oracle`
    rescales it."""
    if np.linalg.eigvalsh(a)[0] >= epsilon:
        return a
    w, q = np.linalg.eigh(a)
    repaired = (q * np.maximum(w, epsilon)) @ q.T
    repaired = (repaired + repaired.T) / 2.0
    with_diag = repaired.copy()
    np.fill_diagonal(with_diag, np.diag(a))
    return with_diag if np.linalg.eigvalsh(with_diag)[0] >= epsilon / 2.0 else repaired


def dense_oracle(residuals, dof, t, delta, q_mt, delta_mt):
    """(rho_bar_sq, N x N root, thresholded-and-repaired correlation) from
    the dense pipeline; `dof` is also the MT step's v."""
    corr = tiled_correlation(residuals)
    n = corr.shape[0]
    keep = np.abs(corr) >= delta * np.sqrt(np.log(n) / t)
    np.fill_diagonal(keep, True)
    repaired = dense_psd_repair(np.where(keep, corr, 0.0), PSD_EPS_FRAC)
    sd = np.sqrt(np.diag(repaired))
    r_hat = repaired / np.outer(sd, sd)
    np.fill_diagonal(r_hat, 1.0)
    w, q = np.linalg.eigh(r_hat)
    root = (q / np.sqrt(np.maximum(w, EIGEN_FLOOR_FRAC * w[-1]))) @ q.T
    root = (root + root.T) / 2.0
    rho = corr[np.triu_indices(n, k=1)]
    c_n = _mt_cuts(n, dof, q_mt, delta_mt)[0]
    rho_bar_sq = 2.0 / (n * (n - 1)) * float(np.sum(rho[np.sqrt(dof) * np.abs(rho) >= c_n] ** 2))
    return rho_bar_sq, root, repaired


def dense_statistics(panel, config):
    """{method: statistic} of the five tests, MAX2 and FC2 from `dense_oracle`'s root."""
    res = fit(panel)
    rho_bar_sq, root, _ = dense_oracle(res.residuals, res.dof, panel.n_periods,
                                       config.threshold_delta, config.q_mt, config.delta_mt)
    n = panel.n_securities
    py = py_stat(res.t_stats, rho_bar_sq, res.dof)
    max1, max2 = max_stat(res.t_stats), max_stat_standardized(res.t_stats, root)
    p_sum = py_p_value(py)
    return {
        "PY": py,
        "MAX1": max1,
        "MAX2": max2,
        "FC1": fisher_combine(p_sum, max_p_value(max1, n)),
        "FC2": fisher_combine(p_sum, max_p_value(max2, n)),
    }


def dense_m2_cov(n, rng):
    """The M2 covariance of `build_cov` as an N x N array, from the same draws."""
    diag = rng.uniform(*dgp.DIAG_RANGE, size=n)
    n_spikes = int(n**dgp.SPIKE_EXPONENT)
    b = np.zeros(n)
    positions = rng.choice(n, size=n_spikes, replace=False)
    b[positions] = rng.uniform(*dgp.SPIKE_RANGE, size=n_spikes)
    r = np.eye(n) + np.outer(b, b) - np.diag(b**2)
    root_d = np.sqrt(diag)
    return r * np.outer(root_d, root_d)


def gen_factors_vector(t, zeta):
    """`gen_factors` with the given innovations, all three factors stepped as one vector."""
    a, b, c = map(np.asarray, (dgp.AR_INTERCEPT, dgp.AR_COEF, dgp.GARCH_INTERCEPT))
    d, e = map(np.asarray, (dgp.GARCH_PERSISTENCE, dgp.ARCH_COEF))
    f = np.zeros(3)
    h = np.ones(3)
    out = np.empty((t, 3))
    for step in range(1, dgp.BURN_IN + t + 1):
        h = c + d * h + e * zeta[step - 1] ** 2
        f = a + b * f + np.sqrt(h) * zeta[step]
        idx = step - (dgp.BURN_IN + 1)
        if idx >= 0:
            out[idx] = f
    return out


def components(a):
    """`linalg.edge_components` of the nonzero off-diagonal entries of a square matrix."""
    off = np.asarray(a) != 0
    np.fill_diagonal(off, False)
    return edge_components(off.shape[0], *np.nonzero(off))


def annihilator_fit(returns, factors):
    """(intercepts, N x T residuals) of the OLS fit on an intercept and the factor
    columns, through the annihilator M: alpha = Y M 1 / 1'M1, residuals (Y - alpha) M."""
    m = annihilator(factors)
    ones = np.ones(m.shape[0])
    m_ones = m @ ones
    alpha = (returns @ m_ones) / (ones @ m_ones)
    return alpha, (returns - alpha[:, None]) @ m
