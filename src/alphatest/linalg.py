"""Symmetric kernels on a component stack, for `dependence` and `dgp`.

Correlation roots and the PSD repair of a correlation, which returns a
correlation, funnel through the symmetric kernels below.  All matrix
roots are computed by symmetric eigendecomposition rather than Cholesky
so that a single code path also handles indefinite inputs produced by
hard thresholding.

Block form: rows of a symmetric matrix joined by a path of nonzero
off-diagonal entries form a connected component, which `edge_components`
labels from a list of those entries; a row with no such entry is
decoupled.  `layout` lists each component's rows in one row of a
``(c, m)`` slot array, padded to the largest size m, and `BlockDiagonal`
holds the matrix as those slots, the ``(c, m, m)`` stack of the
components' principal submatrices and a diagonal on which each decoupled
row is its own eigenvalue.  Where padding would cost more than
decomposing the k coupled rows whole (``c * m**3 >= k**3``), they form
one block.  `spectrum`, `spectral_map`, `inv_sqrt_psd` and `psd_repair`
take and return this form, with exactly one eigensolver call on the
stack each, an empty one too, so call counts do not depend on the data.
A sentinel above every Gershgorin bound on each padding slot's diagonal
puts each component's eigenpairs first in its slice.

Symmetry contract: every eigensolver input is exactly symmetric, and each
call returns ``eigh``'s or ``eigvalsh``'s ascending order as is.  The
thresholded correlation writes each surviving pair to both triangles,
`spectral_map` symmetrizes its rebuild, `correlation_from_cov` scales by
the symmetric d_i * d_j, and the simulator's covariances are symmetric
as built (M1's rho**|i-j|, M3's tridiagonal form, M4's
``outer + inv @ inv.T`` syrk and M2's spike block).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDiagonal

__all__ = [
    "BlockDiagonal",
    "sym_eigen",
    "edge_components",
    "layout",
    "spectrum",
    "spectral_map",
    "inv_sqrt_psd",
    "correlation_from_cov",
    "psd_repair",
]


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of an exactly symmetric matrix, or of each in a stack:
    the eigenvalues ascending, shape (..., n), and the orthogonal matrices
    whose columns are the matching unit eigenvectors, shape (..., n, n)."""
    return np.linalg.eigh(a)


@dataclass(frozen=True)
class BlockDiagonal:
    """N x N symmetric matrix held as a diagonal and a stack of principal blocks.

    Row j of the ``(c, m)`` array `slots` lists block j's rows in 0..N-1,
    then N in each padding slot; slice j of the ``(c, m, m)`` array `stack`
    is that block's principal submatrix, zero in the padding.  Every other
    entry is zero, except the diagonal `diag` (length N) on the rows in no
    block; its entries on the block rows are not part of the matrix.
    """

    diag: np.ndarray
    slots: np.ndarray
    stack: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diag.size, self.diag.size)

    def __matmul__(self, x) -> np.ndarray:
        """The matrix times `x` (N or N x T): ``diag * x``, then one batched
        product of `stack` on `x` gathered by slot, a zero row in each padding slot."""
        x = np.asarray(x, dtype=float)
        n = self.diag.size
        cols = x.reshape(n, -1)
        out = self.diag[:, None] * cols
        real = self.slots < n
        gathered = cols[np.where(real, self.slots, 0)]
        gathered[~real] = 0.0
        out[self.slots[real]] = (self.stack @ gathered)[real]
        return out.reshape(x.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense N x N matrix."""
        n = self.diag.size
        out = np.diag(np.append(self.diag, 0.0))  # padding lands in the spare row and column
        out[self.slots[:, :, None], self.slots[:, None, :]] = self.stack
        return np.asarray(out[:n, :n], dtype=dtype)


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


def layout(label: np.ndarray) -> np.ndarray:
    """The `BlockDiagonal` slots of the components of N rows labelled as by
    `edge_components`: row j lists component j's rows ascending, then N in
    each padding slot, and a row labelled -1 is in no block.  All k labelled
    rows form one block where c * m**3 >= k**3, none labelled included."""
    n = label.size
    coupled = np.flatnonzero(label >= 0)
    sizes = np.bincount(label[coupled])
    sizes = sizes[sizes > 0]
    m = int(sizes.max(initial=0))
    rows = coupled[np.argsort(label[coupled], kind="stable")]  # each component's rows, ascending
    if sizes.size * m**3 >= coupled.size**3:
        sizes, m, rows = np.array([coupled.size]), coupled.size, coupled
    slots = np.full((sizes.size, m), n)
    slots[np.arange(m) < sizes[:, None]] = rows
    return slots


def _padded(a: BlockDiagonal) -> np.ndarray:
    """`a.stack` with a sentinel on each padding slot's diagonal, above every
    Gershgorin bound of the stack, so the smallest eigenvalues of each slice
    are its block's."""
    c, p = np.nonzero(a.slots == a.shape[0])
    if not c.size:
        return a.stack
    stack = a.stack.copy()
    stack[c, p, p] = 1.0 + 2.0 * np.abs(stack).sum(axis=-1).max()
    return stack


def spectrum(a: BlockDiagonal) -> np.ndarray:
    """All eigenvalues of `a`, ascending: one ``eigvalsh`` of the stack, and the
    diagonal of the rows in no block."""
    w = np.linalg.eigvalsh(_padded(a))  # ascending: the padding's sentinels last
    real = a.slots < a.shape[0]
    return np.sort(np.concatenate([w[real], np.delete(a.diag, a.slots[real])]))


def spectral_map(a: BlockDiagonal, f) -> BlockDiagonal:
    """f(A), `f` acting on the eigenvalues of A.

    Each block is ``q f(w) q'`` from one `sym_eigen` call on the stack,
    symmetrized.  The one mask of the slots that hold a row picks each
    block's eigenvalues, which come before the padding's sentinels, and
    zeroes the padding rows of its eigenvectors, so the rebuild is an exact
    zero in the padding.  `f` maps `diag`, each of whose entries is its own
    eigenvalue.  `f` maps an array of eigenvalues to an array of the same
    shape and may raise to reject them.
    """
    w, q = sym_eigen(_padded(a))
    real = a.slots < a.shape[0]
    fw = np.zeros_like(w)
    fw[real] = f(w[real])
    q[~real] = 0.0
    stack = (q * fw[:, None, :]) @ np.swapaxes(q, -1, -2)
    stack = (stack + np.swapaxes(stack, -1, -2)) / 2.0
    return BlockDiagonal(f(a.diag), a.slots, stack)


def inv_sqrt_psd(a: BlockDiagonal, floor: float) -> BlockDiagonal:
    """Symmetric inverse square root with an eigenvalue floor.

    Eigenvalues below `floor` are clamped to it before inversion, so the
    result is always finite.  When no clamping triggers,
    ``result @ a @ result`` is the identity (up to roundoff).
    """
    if floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    return spectral_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor)))


def correlation_from_cov(sigma: BlockDiagonal) -> BlockDiagonal:
    """Scale a covariance matrix to unit diagonal; exactly symmetric if `sigma` is."""
    real = sigma.slots < sigma.shape[0]
    d = np.diagonal(sigma.stack, axis1=1, axis2=2)
    if (d[real] <= 0).any() or (np.delete(sigma.diag, sigma.slots[real]) <= 0).any():
        raise NonPositiveDiagonal("covariance diagonal must be positive")
    inv_sd = np.zeros(d.shape)
    inv_sd[real] = 1.0 / np.sqrt(d[real])
    r = sigma.stack * (inv_sd[:, :, None] * inv_sd[:, None, :])
    on = np.arange(d.shape[1])
    r[:, on, on] = real
    return BlockDiagonal(np.ones(sigma.shape[0]), sigma.slots, r)


def psd_repair(a: BlockDiagonal, epsilon: float) -> BlockDiagonal:
    """Clip the eigenvalues of a correlation up to `epsilon`; return a correlation.

    Returns `a`, whose stack must be exactly symmetric, itself when it is
    already sufficiently positive definite.  After clipping, the original
    unit diagonal is restored if doing so keeps the smallest eigenvalue at
    or above epsilon / 2; otherwise the clip is scaled to unit diagonal.
    """
    w = spectrum(a)
    if not w.size or w[0] >= epsilon:
        return a
    repaired = spectral_map(a, lambda w: np.maximum(w, epsilon))
    on = np.arange(a.stack.shape[-1])
    stack = repaired.stack.copy()
    stack[:, on, on] = a.stack[:, on, on]
    with_diag = BlockDiagonal(a.diag, a.slots, stack)
    if spectrum(with_diag)[0] >= epsilon / 2.0:
        return with_diag
    return correlation_from_cov(repaired)
