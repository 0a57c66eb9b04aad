"""Dense symmetric linear-algebra kernels.

Everything downstream (OLS projections, correlation roots, covariance
repair) funnels through the functions here.  All matrix roots are
computed by symmetric eigendecomposition rather than Cholesky so that a
single code path also handles indefinite inputs produced by hard
thresholding.

Coupled-block rule: in a symmetric matrix, a row whose off-diagonal
entries are all exactly zero is decoupled, and ``(a_ii, e_i)`` is an
exact eigenpair.  `spectrum` and `spectral_map` therefore solve the
eigenproblem of the principal submatrix on the coupled indices
(`coupled`) only and read the other eigenvalues off the diagonal.  A
hard-thresholded correlation or a spiked covariance is mostly diagonal,
so the block is small or empty; a matrix whose rows are all coupled is
decomposed whole, with the same LAPACK call on the same values.  Each
helper makes exactly one eigensolver call, on a 0x0 block too, so call
counts do not depend on the data.  `BlockDiagonal` holds such a matrix,
or a function of one, as its diagonal and its block alone.

Symmetry contract: `spectrum` and `psd_repair` take exactly symmetric
matrices (``a == a.T``), as the residual Gram (one syrk), its symmetric
threshold mask and `spectral_map`'s symmetrized rebuild are.  `sym_eigen`
symmetrizes its input: it is the entry point for nearly symmetric products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularDesign

__all__ = [
    "BlockDiagonal",
    "annihilator",
    "sym_eigen",
    "coupled",
    "spectrum",
    "spectral_map",
    "inv_sqrt_psd",
    "psd_repair",
]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def annihilator(factors: np.ndarray) -> np.ndarray:
    """Projection onto the orthogonal complement of the factor columns.

    Parameters
    ----------
    factors : ndarray, shape (T, p)
        Full-column-rank design matrix, T > p.

    Returns
    -------
    ndarray, shape (T, T)
        Symmetric idempotent matrix M with M @ factors == 0 and
        trace(M) == T - p.
    """
    f = np.asarray(factors, dtype=float)
    if f.ndim != 2:
        raise DimensionError(f"factor matrix must be 2-d, got ndim={f.ndim}")
    t, p = f.shape
    if t <= p:
        raise DimensionError(f"need more rows than columns, got {t}x{p}")
    gram = f.T @ f
    if np.linalg.cond(gram) > 1e12:
        raise SingularDesign("factor Gram matrix is numerically singular")
    m = np.eye(t) - f @ np.linalg.solve(gram, f.T)
    return _symmetrize(m)


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) symmetric matrix.

    The input is symmetrized as (A + A') / 2 first, which absorbs the
    accumulation error of upstream matrix products.

    Returns
    -------
    (ndarray, ndarray)
        Eigenvalues sorted in descending order, shape (n,), and the
        orthogonal matrix whose columns are the matching unit
        eigenvectors, shape (n, n).
    """
    w, q = np.linalg.eigh(_symmetrize(np.asarray(a, dtype=float)))
    order = np.argsort(w)[::-1]
    return w[order], q[:, order]


def coupled(a: np.ndarray) -> np.ndarray:
    """Ascending indices whose row or column has a nonzero off-diagonal entry."""
    off = np.asarray(a) != 0
    np.fill_diagonal(off, False)
    return np.flatnonzero(off.any(axis=0) | off.any(axis=1))


@dataclass(frozen=True)
class BlockDiagonal:
    """N x N matrix held in block form.

    `diag` (length N) on the diagonal and zeros elsewhere, except that the
    principal submatrix on the ascending indices `active` is `block`;
    the entries of `diag` on the active rows are not part of the matrix.
    """

    diag: np.ndarray
    active: np.ndarray
    block: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)

    def __matmul__(self, x) -> np.ndarray:
        """The matrix times `x` (N or N x T): ``diag * x``, then `block` on the active rows."""
        x = np.asarray(x, dtype=float)
        out = self.diag.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        out[self.active] = self.block @ x[self.active]
        return out


def spectrum(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    One ``eigvalsh`` on the coupled block; the decoupled diagonal entries
    are the remaining eigenvalues, exactly.
    """
    a = np.asarray(a, dtype=float)
    idx = coupled(a)
    block = np.linalg.eigvalsh(a[np.ix_(idx, idx)])
    return np.sort(np.concatenate([block, np.delete(np.diag(a), idx)]))


def spectral_map(a: np.ndarray, f, eigen=None) -> np.ndarray:
    """f(A) for a (nearly) symmetric A, `f` acting on its eigenvalues.

    The coupled block is ``q f(w) q'`` from one call of `eigen` (default
    `sym_eigen`) on it; each decoupled row holds ``f(a_ii)`` on the
    diagonal and exact zeros elsewhere.  `f` maps an array of eigenvalues
    to an array of the same shape and may raise to reject them.
    """
    a = np.asarray(a, dtype=float)
    idx = coupled(a)
    w, q = (eigen or sym_eigen)(a[np.ix_(idx, idx)])
    free = np.delete(np.arange(a.shape[0]), idx)
    out = np.zeros_like(a)
    out[np.ix_(idx, idx)] = _symmetrize((q * f(w)) @ q.T)
    out[free, free] = f(a[free, free])
    return out


def inv_sqrt_psd(a: np.ndarray, floor: float) -> np.ndarray:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below `floor` are clamped to it before inversion, so the
    result is always finite.  When no clamping triggers,
    ``result @ a @ result`` is the identity (up to roundoff).
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    return spectral_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor)))


def psd_repair(a: np.ndarray, epsilon: float) -> np.ndarray:
    """Clip eigenvalues up to `epsilon`, preserving the diagonal when safe.

    Returns `a`, which must be exactly symmetric, unchanged when it is
    already sufficiently positive definite.  After clipping, the original
    diagonal is restored only if doing so keeps the smallest eigenvalue at
    or above epsilon / 2.
    """
    a = np.asarray(a, dtype=float)
    w = spectrum(a)
    if not w.size or w[0] >= epsilon:
        return a
    repaired = spectral_map(a, lambda w: np.maximum(w, epsilon))
    with_diag = repaired.copy()
    np.fill_diagonal(with_diag, np.diag(a))
    if spectrum(with_diag)[0] >= epsilon / 2.0:
        return with_diag
    return repaired
