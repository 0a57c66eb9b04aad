"""Dense symmetric linear-algebra kernels.

Everything downstream (OLS projections, correlation roots, covariance
repair) funnels through the four functions here.  All matrix roots are
computed by symmetric eigendecomposition rather than Cholesky so that a
single code path also handles indefinite inputs produced by hard
thresholding.
"""

import numpy as np

from .errors import ConvergenceError, DimensionError, SingularDesign

__all__ = [
    "annihilator",
    "sym_eigen",
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
    a = _symmetrize(np.asarray(a, dtype=float))
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    order = np.argsort(w)[::-1]
    return w[order], q[:, order]


def inv_sqrt_psd(a: np.ndarray, floor: float) -> np.ndarray:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below `floor` are clamped to it before inversion, so the
    result is always finite.  When no clamping triggers,
    ``result @ a @ result`` is the identity (up to roundoff).
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    w, q = sym_eigen(a)
    w = np.maximum(w, floor)
    return _symmetrize((q * (1.0 / np.sqrt(w))) @ q.T)


def psd_repair(a: np.ndarray, epsilon: float) -> np.ndarray:
    """Clip eigenvalues up to `epsilon`, preserving the diagonal when safe.

    Returns the input unchanged when it is already sufficiently positive
    definite.  After clipping, the original diagonal is restored only if
    doing so keeps the smallest eigenvalue at or above epsilon / 2.
    """
    a = _symmetrize(np.asarray(a, dtype=float))
    w = np.linalg.eigvalsh(a)
    if w[0] >= epsilon:
        return a
    w, q = sym_eigen(a)
    clipped = np.maximum(w, epsilon)
    repaired = _symmetrize((q * clipped) @ q.T)
    with_diag = repaired.copy()
    np.fill_diagonal(with_diag, np.diag(a))
    if np.linalg.eigvalsh(with_diag)[0] >= epsilon / 2.0:
        return with_diag
    return repaired
