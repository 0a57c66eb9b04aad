"""Synthetic data generation for the simulation study.

Factors follow AR(1) processes with GARCH(1,1) innovations mimicking the
Fama-French three factors; errors are drawn from one of four residual
covariance models under three innovation laws; sparse alpha signals keep
a fixed total signal strength regardless of sparsity.
"""

import math

import numpy as np

from .errors import DimensionError, NotPositiveDefinite
from .linalg import BlockDiagonal, spectral_map, sym_eigen
from .ols import FactorPanel

__all__ = [
    "gen_factors",
    "build_cov",
    "cov_sqrt",
    "gen_errors",
    "gen_betas",
    "gen_alpha",
    "assemble_panel",
]

ERROR_DISTS = ("normal", "t5_scaled", "mixture_scaled")
COV_MODELS = ("M1", "M2", "M3", "M4")

# Market / SMB / HML calibration of the factor recursion
# f_t = a + b * f_{t-1} + sqrt(h_t) * zeta_t with variance
# h_t = c + d * h_{t-1} + e * zeta_{t-1}**2, started at f = 0, h = 1.
AR_INTERCEPT = (0.53, 0.19, 0.19)  # a
AR_COEF = (0.06, 0.19, 0.05)  # b
GARCH_INTERCEPT = (0.89, 0.62, 0.80)  # c
GARCH_PERSISTENCE = (0.85, 0.74, 0.76)  # d
ARCH_COEF = (0.11, 0.19, 0.15)  # e
BURN_IN = 50

# Residual covariance models: band bases of M1 and M3, the spike count
# N**SPIKE_EXPONENT and spike loadings of M2/M4, M2's variances and M4's
# spatial-autoregressive coefficient.
M1_BASE = 0.7
M3_BASE = 0.6
SPIKE_EXPONENT = 0.3
SPIKE_RANGE = (0.7, 0.9)
DIAG_RANGE = (1.0, 2.0)
ROOK_RHO = 0.5


def gen_factors(t: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate T rows of the three-factor AR-GARCH process.

    The recursion starts BURN_IN periods before the sample with f = 0 and
    h = 1; only the final T rows are returned.  At each step the variance
    is updated from the previous innovation first, then the new
    innovation is drawn.  The innovations are one
    ``rng.standard_normal((BURN_IN + T + 1, 3))`` draw.
    """
    k = len(AR_INTERCEPT)
    zeta = rng.standard_normal((BURN_IN + t + 1, k))
    out = np.empty((t, k))
    params = zip(AR_INTERCEPT, AR_COEF, GARCH_INTERCEPT, GARCH_PERSISTENCE, ARCH_COEF)
    # one factor at a time on Python floats: the same operations in the
    # same order as the vector form, without numpy's per-step overhead
    for j, ((a, b, c, d, e), z) in enumerate(zip(params, zeta.T.tolist())):
        f, h = 0.0, 1.0
        path = []
        for prev, now in zip(z, z[1:]):
            h = c + d * h + e * (prev * prev)
            f = a + b * f + math.sqrt(h) * now
            path.append(f)
        out[:, j] = path[BURN_IN:]
    return out


def build_cov(kind: str, n: int, rng: np.random.Generator) -> np.ndarray | BlockDiagonal:
    """Construct an N x N residual covariance matrix for one of the models.

    M1: AR(1)-style bands 0.7**|i-j|.  M2: single random spiked factor in
    the correlation, random U(1,2) variances.  M3: inverse of 0.6**|i-j|,
    in its closed tridiagonal form.
    M4: rank-one spike plus a rook-form spatial-autoregressive part.
    Every model is positive definite by construction; `cov_sqrt` checks
    the draw.

    M2 is diagonal off its spike positions, so it is returned as a
    `BlockDiagonal` with them as its one block, the others as dense arrays.
    """
    if kind not in COV_MODELS:
        raise ValueError(f"unknown covariance model {kind!r}")
    if n < 2:
        raise DimensionError(f"need N >= 2, got {n}")
    if kind == "M1":
        idx = np.arange(n)
        return M1_BASE ** np.abs(idx[:, None] - idx[None, :])
    if kind == "M3":  # Kac-Murdock-Szego: the inverse of rho**|i-j| is tridiagonal
        sigma = (1.0 + M3_BASE**2) * np.eye(n) - M3_BASE * (np.eye(n, k=1) + np.eye(n, k=-1))
        sigma[0, 0] = sigma[n - 1, n - 1] = 1.0
        return sigma / (1.0 - M3_BASE**2)
    n_spikes = int(n**SPIKE_EXPONENT)
    if kind == "M2":
        root_d = np.sqrt(rng.uniform(*DIAG_RANGE, size=n))
        positions = rng.choice(n, size=n_spikes, replace=False)
        loadings = rng.uniform(*SPIKE_RANGE, size=n_spikes)
        order = np.argsort(positions)
        positions, b = positions[order], loadings[order]
        r = np.eye(n_spikes) + np.outer(b, b) - np.diag(b**2)
        block = r * np.outer(root_d[positions], root_d[positions])
        return BlockDiagonal(root_d * root_d, positions[None], block[None])
    gamma = np.zeros(n)
    gamma[:n_spikes] = rng.uniform(*SPIKE_RANGE, size=n_spikes)
    # rook weights: 1/2 to each neighbour, 1 to the only neighbour at the ends
    w = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    w[0, 1] = w[n - 1, n - 2] = 1.0
    inv = np.linalg.inv(np.eye(n) - ROOK_RHO * w)
    return np.outer(gamma, gamma) + inv @ inv.T  # one syrk: exactly symmetric


def _positive_sqrt(w: np.ndarray) -> np.ndarray:
    if (w <= 0).any():
        raise NotPositiveDefinite("matrix has a non-positive eigenvalue")
    return np.sqrt(w)


def cov_sqrt(sigma: np.ndarray | BlockDiagonal) -> np.ndarray | BlockDiagonal:
    """Symmetric positive-definite square root via eigendecomposition.

    One `sym_eigen` of the whole matrix, rebuilt as ``q sqrt(w) q'`` and
    symmetrized.  A `BlockDiagonal` keeps its form: `spectral_map` roots
    its stack that way and every entry of its `diag`.  Every eigenvalue,
    and every entry of that `diag`, must be positive.
    """
    if isinstance(sigma, BlockDiagonal):
        return spectral_map(sigma, _positive_sqrt)
    w, q = sym_eigen(sigma)
    root = (q * _positive_sqrt(w)) @ q.T
    return (root + root.T) / 2.0


def gen_errors(
    sigma_root: np.ndarray | BlockDiagonal, dist: str, t: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw an N x T error matrix with covariance sigma_root @ sigma_root.

    Innovations are iid per entry with unit variance: standard normal,
    t(5) scaled by sqrt(5/3), or the 0.9 N(0,1) + 0.1 N(0,9) mixture
    scaled by sqrt(1.8).
    """
    if dist not in ERROR_DISTS:
        raise ValueError(f"unknown error distribution {dist!r}")
    n = sigma_root.shape[0]
    if dist == "normal":
        z = rng.standard_normal((n, t))
    elif dist == "t5_scaled":
        z = rng.standard_t(5, size=(n, t))
        z /= np.sqrt(5.0 / 3.0)
    else:
        z = rng.standard_normal((n, t))
        wide = rng.random((n, t)) < 0.1
        z = np.where(wide, 3.0 * z, z)
        z /= np.sqrt(1.8)
    return sigma_root @ z


def gen_betas(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw factor loadings: U(0.2,2), U(-1,1.5) and U(-1.5,1.5) columns."""
    ranges = ((0.2, 2.0), (-1.0, 1.5), (-1.5, 1.5))
    return np.column_stack([rng.uniform(lo, hi, size=n) for lo, hi in ranges])


def gen_alpha(
    n: int,
    m: int,
    t: int,
    rng: np.random.Generator | None = None,
    support: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse intercept N-vector: sqrt(10 * log(N) / (m * T)) on a random support.

    The squared norm is 10 * log(N) / T for every m, so power comparisons
    across sparsity levels hold the signal strength fixed.  m = 0 gives
    the null.  A fixed `support` of m rows may be supplied instead.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= N, got m={m}, N={n}")
    alpha = np.zeros(n)
    if m == 0:
        return alpha
    if support is None:
        if rng is None:
            raise ValueError("either rng or support must be provided")
        support = rng.choice(n, size=m, replace=False)
    support = np.asarray(support)
    if support.size != m:
        raise ValueError("support size must equal m")
    if support.dtype.kind not in "iu" or np.isin(np.arange(n), support).sum() != m:
        raise ValueError(f"support must be m distinct rows in 0..{n - 1}, got {support.tolist()}")
    alpha[support] = np.sqrt(10.0 * np.log(n) / (m * t))
    return alpha


def assemble_panel(
    alpha: np.ndarray, betas: np.ndarray, factors: np.ndarray, errors: np.ndarray
) -> FactorPanel:
    """Compose returns Y = alpha + betas @ factors' + errors."""
    alpha = np.asarray(alpha, dtype=float)
    n, t = errors.shape
    if betas.shape != (n, factors.shape[1]) or factors.shape[0] != t or alpha.size != n:
        raise DimensionError("alpha, betas, factors and errors shapes disagree")
    returns = alpha[:, None] + betas @ factors.T + errors
    return FactorPanel(returns=returns, factors=factors)
