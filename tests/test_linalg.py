import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from alphatest.dependence import EIGEN_FLOOR_FRAC, precision_root
from alphatest.dgp import cov_sqrt
from alphatest.errors import DimensionError, SingularDesign
from dense_reference import components, densify
from alphatest.linalg import (
    BlockDiagonal,
    annihilator,
    edge_components,
    inv_sqrt_psd,
    psd_repair,
    spectral_map,
    spectrum,
    sym_eigen,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestAnnihilator:
    def test_trace_is_t_minus_p(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((10, 3))
        m = annihilator(f)
        assert np.isclose(np.trace(m), 7.0, atol=1e-10)

    @given(st.integers(0, 1000), st.integers(5, 30), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_projection_properties(self, seed, t, p):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((t, p))
        m = annihilator(f)
        assert np.allclose(m, m.T, atol=1e-10)
        assert np.allclose(m @ m, m, atol=1e-10)
        assert np.abs(m @ f).max() < 1e-10
        assert np.isclose(np.trace(m), t - p, atol=1e-9)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(12)
        f = np.column_stack([col, 2.0 * col])
        with pytest.raises(SingularDesign):
            annihilator(f)

    def test_wide_matrix_raises(self):
        with pytest.raises(DimensionError):
            annihilator(np.ones((3, 5)))

    def test_1d_raises(self):
        with pytest.raises(DimensionError):
            annihilator(np.ones(5))


class TestSymEigen:
    def test_reconstruction(self):
        a = random_symmetric(8, 2)
        w, q = sym_eigen(a)
        assert np.abs((q * w) @ q.T - a).max() < 1e-10

    def test_eigenvalues_descending(self):
        w, _ = sym_eigen(random_symmetric(6, 3))
        assert (np.diff(w) <= 1e-12).all()

    def test_eigenvector_orthogonality(self):
        _, q = sym_eigen(random_symmetric(7, 4))
        assert np.abs(q @ q.T - np.eye(7)).max() < 1e-10

    @given(st.integers(0, 1000), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_eigenvalue_sum_equals_trace(self, seed, n):
        a = random_symmetric(n, seed)
        w, _ = sym_eigen(a)
        norm = max(np.abs(a).max(), 1.0)
        assert abs(w.sum() - np.trace(a)) < 1e-10 * n * norm

    def test_symmetrizes_input(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        w, q = sym_eigen(a)
        assert np.abs((q * w) @ q.T - (a + a.T) / 2.0).max() < 1e-10


class TestInvSqrtPsd:
    def test_two_by_two_correlation(self):
        # rho = 0.7 has eigenvalues 1.7 and 0.3; entries (1/sqrt(1.7) +- 1/sqrt(0.3))/2
        a = np.array([[1.0, 0.7], [0.7, 1.0]])
        root = inv_sqrt_psd(a, 1e-12)
        assert np.isclose(root[0, 0], 1.296353, atol=1e-6)
        assert np.isclose(root[1, 1], 1.296353, atol=1e-6)
        assert np.isclose(root[0, 1], -0.529389, atol=1e-6)

    def test_identity_recovery(self):
        # root @ a @ root = I whenever no eigenvalue is clamped
        rng = np.random.default_rng(6)
        b = rng.standard_normal((9, 9))
        a = b @ b.T + 0.5 * np.eye(9)
        root = inv_sqrt_psd(a, 1e-8)
        assert np.abs(root @ a @ root - np.eye(9)).max() < 1e-8

    def test_floor_clamps(self):
        a = np.diag([4.0, 1e-12])
        root = inv_sqrt_psd(a, 0.25)
        assert np.isclose(root[1, 1], 2.0, atol=1e-10)

    def test_nonpositive_floor_raises(self):
        with pytest.raises(ValueError):
            inv_sqrt_psd(np.eye(2), 0.0)


class TestPsdRepair:
    def test_already_pd_unchanged(self):
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(psd_repair(a, 1e-4), a)

    def test_indefinite_repaired(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(6, 7)
        a -= (np.linalg.eigvalsh(a)[0] + 0.5) * np.eye(6) * 0  # keep indefinite
        eps = 1e-3
        repaired = psd_repair(a, eps)
        assert np.linalg.eigvalsh(repaired)[0] >= eps / 2.0 - 1e-12
        assert np.allclose(repaired, repaired.T)

    def test_empty_matrix(self, monkeypatch):
        calls = []
        solver = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solver(a))
        assert psd_repair(np.empty((0, 0)), 0.1).shape == (0, 0)
        assert len(calls) == 1 and np.prod(calls[0]) == 0  # one call, on an empty input

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_min_eigenvalue_bounded(self, seed):
        a = random_symmetric(6, seed)
        repaired = psd_repair(a, 1e-2)
        assert np.linalg.eigvalsh(repaired)[0] >= 5e-3 - 1e-12


@st.composite
def block_layouts(draw, decoupled=True):
    """(seed, blocks, decoupled count): up to six small blocks of 2-6 rows,
    at times one block of 12 or 40 rows, each block a (size, chain) pair;
    at least two rows in all.  With `decoupled`, up to five decoupled rows,
    and half the layouts have 32 more; without it, none and one block at
    least, as the eigen helpers take a matrix."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=0 if decoupled else 1, max_size=6))
    sizes += [size for size in [draw(st.sampled_from([0, 0, 12, 40]))] if size]
    chains = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    n_free = 0
    if decoupled:
        n_free = draw(st.integers(max(0, 2 - sum(sizes)), 5))
        n_free += draw(st.sampled_from([0, 32]))
    return draw(st.integers(0, 2**32 - 1)), tuple(zip(sizes, chains)), n_free


def permuted_block_diagonal(seed, blocks, n_free, definite):
    """Symmetric matrix with one block per (size, chain) pair of `blocks`
    and `n_free` decoupled rows, conjugated by a random permutation.

    A chain block is tridiagonal with nonzero off-diagonal entries (a path
    of rows, as hard thresholding leaves on banded dependence), any other
    block dense.  `definite` makes every eigenvalue at least 0.5, otherwise
    the blocks and the decoupled diagonal are indefinite.  Returns the
    matrix, the decoupled indices and the row indices of each block.
    """
    rng = np.random.default_rng(seed)
    n = sum(size for size, _ in blocks) + n_free
    a = np.zeros((n, n))
    start = 0
    for size, chain in blocks:
        if chain:
            off = rng.uniform(0.2, 0.7, size - 1) * rng.choice([-1.0, 1.0], size - 1)
            diag = rng.uniform(2.0, 3.0, size) if definite else rng.uniform(-1.0, 2.0, size)
            block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        else:
            g = rng.standard_normal((size, size))
            block = g @ g.T / size + 0.5 * np.eye(size) if definite else (g + g.T) / 2.0
        a[start:start + size, start:start + size] = block
        start += size
    a[range(start, n), range(start, n)] = (
        rng.uniform(0.5, 2.0, n_free) if definite else rng.uniform(-1.0, 2.0, n_free))
    perm = rng.permutation(n)
    bounds = np.cumsum([0] + [size for size, _ in blocks])
    rows = [np.flatnonzero((perm >= lo) & (perm < hi)) for lo, hi in zip(bounds, bounds[1:])]
    return a[np.ix_(perm, perm)], np.flatnonzero(perm >= start), rows


def dense_map(a, f):
    """Reference f(A) from one eigh of the whole matrix."""
    w, q = np.linalg.eigh(a)
    return (q * f(w)) @ q.T


def assert_close(out, ref):
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def assert_same_partition(label, a):
    """`label` labels the components of `a` as scipy's connected components
    of the nonzero pattern do: a decoupled row is -1, any other row carries the
    smallest index of its component."""
    _, ref = connected_components(a != 0, directed=False)
    single = np.bincount(ref)[ref] == 1
    np.testing.assert_array_equal(label < 0, single)
    least = {}
    for row, comp in enumerate(ref):
        least.setdefault(comp, row)
    np.testing.assert_array_equal(label[~single], [least[c] for c in ref[~single]])


@pytest.fixture
def solver_shapes(monkeypatch):
    """The argument shape of each ``np.linalg.eigh``/``eigvalsh`` call, in order."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda x, _s=solver: shapes.append(x.shape) or _s(x))
    return shapes


class TestCoupledBlock:
    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_coupled_is_the_block(self, layout):
        a, free, blocks = permuted_block_diagonal(*layout, definite=False)
        label = components(a)
        np.testing.assert_array_equal(np.flatnonzero(label < 0), free)
        for rows in blocks:
            np.testing.assert_array_equal(label[rows], rows.min())
        assert_same_partition(label, a)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.floats(0.0, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_components_match_scipy_on_random_graphs(self, seed, n, density):
        # random sparse patterns: long paths, cycles and trees in any index order
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < density, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        a = a + a.T + np.eye(n)
        assert_same_partition(components(a), a)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.floats(0.0, 0.2),
           st.sampled_from(["upper", "lower", "both", "shuffled"]))
    @settings(max_examples=60, deadline=None)
    def test_edge_components_match_the_dense_labels(self, seed, n, density, order):
        # the labels from an edge list, each edge once in either direction or
        # twice, in any order, are `components` of the matrix and scipy's
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < density, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        a = a + a.T + np.eye(n)
        i, j = np.nonzero(np.triu(a, 1))
        if order == "lower":
            i, j = j, i
        elif order == "both":
            i, j = np.concatenate([i, j]), np.concatenate([j, i])
        elif order == "shuffled":
            flip = rng.random(i.size) < 0.5
            i, j = np.where(flip, j, i), np.where(flip, i, j)
            perm = rng.permutation(i.size)
            i, j = i[perm], j[perm]
        label = edge_components(n, i, j)
        np.testing.assert_array_equal(label, components(a))
        assert_same_partition(label, a)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60),
           st.sampled_from(["dense", "hub", "hub_chain", "hub_one_triangle"]))
    @settings(max_examples=60, deadline=None)
    def test_hub_matrix_is_one_component(self, seed, n, layout):
        # a row adjacent to every other row, its edges listed in either triangle
        rng = np.random.default_rng(seed)
        hub = rng.integers(n)
        if layout == "dense":
            a = rng.uniform(0.5, 1.0, (n, n))
        else:
            a = np.eye(n)
            a[hub, :] = rng.uniform(0.5, 1.0, n)
            if layout == "hub_chain":
                chain = rng.permutation(n)
                a[chain[:-1], chain[1:]] = 1.0
        if layout != "hub_one_triangle":
            a = a + a.T
        off = a != 0
        np.fill_diagonal(off, False)
        label = edge_components(n, *np.nonzero(off))
        np.testing.assert_array_equal(label, np.zeros(n))
        assert_same_partition(label, a)

    def test_single_row_is_decoupled(self):
        np.testing.assert_array_equal(components(np.ones((1, 1))), [-1])
        assert components(np.ones((0, 0))).shape == (0,)

    def test_one_stacked_call(self, solver_shapes):
        # three components of 2, 3 and 4 rows pad to one (3, 4, 4) stack,
        # in any row order
        blocks = ((2, True), (3, False), (4, True))
        for seed in (3, 4):
            a, _, _ = permuted_block_diagonal(seed, blocks, 0, True)
            spectrum(a, components(a))
            spectral_map(a, np.sqrt, components(a))
        assert solver_shapes == [(3, 4, 4)] * 4

    @pytest.mark.parametrize("helper", [
        spectrum,
        lambda a, label: spectral_map(a, np.sqrt, label),
        lambda a, label: inv_sqrt_psd(a, 0.5, label),
        lambda a, label: psd_repair(a, 0.1, label),
    ], ids=["spectrum", "spectral_map", "inv_sqrt_psd", "psd_repair"])
    def test_decoupled_row_raises(self, solver_shapes, helper):
        # a decoupled row belongs on the caller's BlockDiagonal diagonal,
        # not in the helpers' stack
        a, _, _ = permuted_block_diagonal(5, ((2, True), (3, False)), 1, True)
        label = components(a)
        assert (label < 0).sum() == 1
        with pytest.raises(ValueError):
            helper(a, label)
        assert solver_shapes == []

    @pytest.mark.parametrize("n_free", [0, 1, 32])
    def test_no_label_is_one_component(self, solver_shapes, n_free):
        # without labels the whole matrix is one (1, n, n) eigenproblem,
        # its decoupled rows included
        a, _, _ = permuted_block_diagonal(5, ((2, True), (3, False)), n_free, True)
        n = a.shape[0]
        w = spectrum(a)
        out = spectral_map(a, np.sqrt)
        assert solver_shapes == [(1, n, n)] * 2
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(w).max()
        assert_close(out, dense_map(a, np.sqrt))

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_spectrum(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=False)
        w = spectrum(a, components(a))
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(w).max()
        assert (np.diff(w) >= 0).all()

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_spectral_map(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=False)
        cube = lambda w: w**3 - w  # noqa: E731
        out = spectral_map(a, cube, components(a))
        assert_close(out, dense_map(a, cube))

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_inv_sqrt_psd(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=True)
        floor = 0.8  # clamps part of the spectrum
        out = inv_sqrt_psd(a, floor, components(a))
        assert_close(out, dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_precision_root(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=True)
        label = components(a)
        used = EIGEN_FLOOR_FRAC * spectrum(a, label)[-1]
        out = precision_root(a, used, label)
        floor = EIGEN_FLOOR_FRAC * np.linalg.eigvalsh(a)[-1]
        assert_close(out, dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_cov_sqrt(self, layout):
        # one eigenproblem of the whole matrix, so decoupled rows are not exact
        a, _, _ = permuted_block_diagonal(*layout, definite=True)
        assert_close(cov_sqrt(a), dense_map(a, np.sqrt))

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_idle(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=True)
        assert np.array_equal(psd_repair(a, 0.5 * np.linalg.eigvalsh(a)[0], components(a)), a)

    @given(block_layouts(decoupled=False))
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_fires(self, layout):
        a, _, _ = permuted_block_diagonal(*layout, definite=False)
        eps = 0.3
        label = components(a)
        if np.linalg.eigvalsh(a)[0] >= eps:  # nothing to repair in this draw
            assert np.array_equal(psd_repair(a, eps, label), a)
            return
        out = psd_repair(a, eps, label)
        repaired = dense_map(a, lambda w: np.maximum(w, eps))
        with_diag = repaired.copy()
        np.fill_diagonal(with_diag, np.diag(a))
        restored = np.linalg.eigvalsh(with_diag)[0] >= eps / 2.0
        assert_close(out, with_diag if restored else repaired)


class TestBlockDiagonal:
    @pytest.mark.parametrize("active", [[], [2], [0, 3, 4]], ids=["empty", "one", "three"])
    def test_product_matches_dense(self, active):
        # the diagonal rows are one product per entry, exact; block rows
        # are the block's own product
        rng = np.random.default_rng(1)
        active = np.array(active, dtype=int)
        m = BlockDiagonal(rng.uniform(1.0, 2.0, 6), active,
                          random_symmetric(active.size, 2))
        assert m.shape == (6, 6)
        free = np.delete(np.arange(6), active)
        for x in (rng.standard_normal(6), rng.standard_normal((6, 4))):
            out = m @ x
            assert out.shape == x.shape
            np.testing.assert_array_equal(out[free], (densify(m) @ x)[free])
            np.testing.assert_array_equal(out[active], m.block @ x[active])

    def test_diag_is_not_read_on_the_active_rows(self):
        block = np.array([[2.0, 1.0], [1.0, 2.0]])
        a = BlockDiagonal(np.array([5.0, 7.0, 3.0]), np.array([0, 1]), block)
        b = BlockDiagonal(np.array([-9.0, 0.0, 3.0]), np.array([0, 1]), block)
        x = np.array([1.0, -2.0, 4.0])
        np.testing.assert_array_equal(a @ x, [0.0, -3.0, 12.0])
        np.testing.assert_array_equal(b @ x, a @ x)
