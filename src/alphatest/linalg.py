"""Dense symmetric linear-algebra kernels.

Everything downstream (OLS projections, correlation roots, covariance
repair) funnels through the functions here.  All matrix roots are
computed by symmetric eigendecomposition rather than Cholesky so that a
single code path also handles indefinite inputs produced by hard
thresholding.

Component rule: rows of a symmetric matrix joined by a path of nonzero
off-diagonal entries form a connected component, which `edge_components`
labels from a list of those entries; a row with no such entry is
decoupled, and ``(a_ii, e_i)`` is an exact eigenpair.  The eigen helpers
below take the labels as `label`; without them the whole matrix is one
component.  `spectrum` and `spectral_map` make one eigensolver call on a
``(c, m, m)`` stack of the c components, each padded to the largest size
m with decoupled rows whose diagonal sentinel lies above every
Gershgorin bound, so each component's eigenpairs come first in its
slice; the decoupled rows' eigenvalues are read off the diagonal.  Where
padding would cost more than decomposing the k coupled rows whole
(``c * m**3 >= k**3``), they form one component.  Each helper makes
exactly one eigensolver call, on an empty stack too, so call counts do
not depend on the data.  `BlockDiagonal` holds a matrix, or a function
of one, as its diagonal and its coupled block.

Symmetry contract: `spectrum` and `psd_repair` take exactly symmetric
matrices (``a == a.T``), as the thresholded correlation block (a unit
diagonal, each surviving pair written to both triangles) and
`spectral_map`'s symmetrized rebuild are.  `sym_eigen` symmetrizes its
input: it is the entry point for nearly symmetric products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularDesign

__all__ = [
    "BlockDiagonal",
    "annihilator",
    "sym_eigen",
    "edge_components",
    "spectrum",
    "spectral_map",
    "inv_sqrt_psd",
    "psd_repair",
]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A') / 2 of a matrix or of each matrix in a stack."""
    return (a + np.swapaxes(a, -1, -2)) / 2.0


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
    """Eigendecomposition of a (nearly) symmetric matrix, or of each in a stack.

    The input is symmetrized as (A + A') / 2 first, which absorbs the
    accumulation error of upstream matrix products.

    Returns
    -------
    (ndarray, ndarray)
        Eigenvalues sorted in descending order, shape (..., n), and the
        orthogonal matrices whose columns are the matching unit
        eigenvectors, shape (..., n, n).
    """
    w, q = np.linalg.eigh(_symmetrize(np.asarray(a, dtype=float)))
    return w[..., ::-1], q[..., ::-1]  # eigh returns them ascending


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


def edge_components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected-component label of each of `n` rows joined by the edges ``(i[e], j[e])``.

    Rows joined by a path of edges share a label, the least row index
    among them; a row with no edge is decoupled and labelled -1.  Each
    edge joins two distinct rows and may be listed once or in both
    directions.  Min-label hooking with pointer jumping over the edges
    grouped by row, O(edges) per round, until no label changes.
    """
    ends = np.concatenate([i, j])
    col = np.concatenate([j, i])[np.argsort(ends, kind="stable")]  # edges, by row
    degree = np.bincount(ends, minlength=n)
    coupled = np.flatnonzero(degree)
    label = np.full(n, -1)
    if not coupled.size:
        return label
    first = (np.cumsum(degree) - degree)[coupled]  # each coupled row's first edge
    root = np.arange(n)
    while True:
        low = np.minimum.reduceat(root[col], first)  # each row's least neighbouring label
        own = root[coupled]
        if (low >= own).all():  # every edge joins rows of one tree
            break
        np.minimum.at(root, own, low)  # each root takes the least label its rows see
        while not np.array_equal(root[root], root):  # pointer jumping
            root = root[root]
    label[coupled] = root[coupled]
    return label


def _partition(n: int, label=None) -> tuple[np.ndarray, np.ndarray]:
    """The components of an n-row matrix as one (c, m) array of rows, and the decoupled rows.

    `label` holds each row's component label, -1 where it is decoupled, as
    `edge_components` gives them; None makes all n rows one component.
    Row j of the array lists component j's rows ascending, then n in each
    padding slot.  It has one row, all k coupled rows, where
    c * m**3 >= k**3, an empty matrix included.
    """
    label = np.zeros(n, dtype=int) if label is None else label
    order = np.argsort(label, kind="stable")  # decoupled rows, then each component's
    k = n - np.count_nonzero(label < 0)
    rows = order[n - k:]
    sizes = np.bincount(label[rows])
    sizes = sizes[sizes > 0]
    m = int(sizes.max(initial=0))
    if sizes.size * m**3 >= k**3:
        sizes, m, rows = np.array([k]), k, np.sort(rows)
    slots = np.full((sizes.size, m), n)
    slots[np.arange(m) < sizes[:, None]] = rows
    return slots, order[:n - k]


def _stack(a: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The principal submatrices of `a` on the rows of `slots`, shape (c, m, m).

    A padding slot is zero off the diagonal and holds a sentinel above
    every Gershgorin bound of the stack on it, so the smallest eigenvalues
    of each slice are its component's.
    """
    n = a.shape[0]
    rows = np.minimum(slots, n - 1)
    stack = a[rows[:, :, None], rows[:, None, :]]
    c, p = np.nonzero(slots == n)
    if c.size:
        stack[c, p, :] = 0.0
        stack[c, :, p] = 0.0
        stack[c, p, p] = 1.0 + 2.0 * np.abs(stack).sum(axis=-1).max()
    return stack


def spectrum(a: np.ndarray, label=None) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    One ``eigvalsh`` on the stacked components of `label` (see
    `_partition`), as in the functions below; the decoupled diagonal
    entries are the remaining eigenvalues, exactly.
    """
    a = np.asarray(a, dtype=float)
    slots, free = _partition(a.shape[0], label)
    w = np.linalg.eigvalsh(_stack(a, slots))  # ascending: the padding's sentinels last
    return np.sort(np.concatenate([w[slots < a.shape[0]], np.diag(a)[free]]))


def spectral_map(a: np.ndarray, f, label=None) -> np.ndarray:
    """f(A) for a (nearly) symmetric A, `f` acting on its eigenvalues.

    Each component is ``q f(w) q'`` from one `sym_eigen` call on the
    stacked components; each decoupled row holds ``f(a_ii)`` on the
    diagonal and exact zeros elsewhere, as does every entry joining two
    components.  The rebuilt stack is written into an (n+1) x (n+1) zero
    buffer at the rows and columns of its slots, so the padding's entries
    land in the spare last row and column, and the leading n x n view is
    returned.  `f` maps an array of eigenvalues to an array of the same
    shape and may raise to reject them.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    slots, free = _partition(n, label)
    w, q = sym_eigen(_stack(a, slots))
    real = (slots < n)[:, ::-1]  # descending: the padding's sentinels first
    fw = np.zeros_like(w)
    fw[real] = f(w[real])
    out = np.zeros((n + 1, n + 1))
    out[slots[:, :, None], slots[:, None, :]] = _symmetrize(
        (q * fw[:, None, :]) @ np.swapaxes(q, -1, -2))
    out[free, free] = f(a[free, free])
    return out[:n, :n]


def inv_sqrt_psd(a: np.ndarray, floor: float, label=None) -> np.ndarray:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below `floor` are clamped to it before inversion, so the
    result is always finite.  When no clamping triggers,
    ``result @ a @ result`` is the identity (up to roundoff).
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    return spectral_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor)), label=label)


def psd_repair(a: np.ndarray, epsilon: float, label=None) -> np.ndarray:
    """Clip eigenvalues up to `epsilon`, preserving the diagonal when safe.

    Returns `a`, which must be exactly symmetric, unchanged when it is
    already sufficiently positive definite.  After clipping, the original
    diagonal is restored only if doing so keeps the smallest eigenvalue at
    or above epsilon / 2.  The result has the components of `a`, so
    `label` serves all three eigen steps.
    """
    a = np.asarray(a, dtype=float)
    w = spectrum(a, label)
    if not w.size or w[0] >= epsilon:
        return a
    repaired = spectral_map(a, lambda w: np.maximum(w, epsilon), label)
    with_diag = repaired.copy()
    np.fill_diagonal(with_diag, np.diag(a))
    if spectrum(with_diag, label)[0] >= epsilon / 2.0:
        return with_diag
    return repaired
