import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.dependence import EIGEN_FLOOR_FRAC, precision_root
from alphatest.dgp import cov_sqrt
from alphatest.errors import DimensionError, SingularDesign
from dense_reference import densify
from alphatest.linalg import (
    BlockDiagonal,
    annihilator,
    coupled,
    inv_sqrt_psd,
    psd_repair,
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
        assert calls == [(0, 0)]

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_min_eigenvalue_bounded(self, seed):
        a = random_symmetric(6, seed)
        repaired = psd_repair(a, 1e-2)
        assert np.linalg.eigvalsh(repaired)[0] >= 5e-3 - 1e-12


@st.composite
def block_layouts(draw):
    """(seed, n, decoupled count): a dense block has 0 or at least 2 rows."""
    n = draw(st.integers(2, 12))
    size = draw(st.sampled_from([0, *range(2, n + 1)]))
    return draw(st.integers(0, 2**32 - 1)), n, n - size


def permuted_block_diagonal(seed, n, n_free, definite):
    """Symmetric matrix with one dense block and `n_free` decoupled rows,
    conjugated by a random permutation; returns it and the decoupled
    indices.  `definite` makes every eigenvalue at least 0.5, otherwise
    the block and the decoupled diagonal are indefinite."""
    rng = np.random.default_rng(seed)
    size = n - n_free
    g = rng.standard_normal((size, size))
    if definite:
        block = g @ g.T / max(size, 1) + 0.5 * np.eye(size)
        diag = rng.uniform(0.5, 2.0, n_free)
    else:
        block = (g + g.T) / 2.0
        diag = rng.uniform(-1.0, 2.0, n_free)
    a = np.zeros((n, n))
    a[:size, :size] = block
    a[range(size, n), range(size, n)] = diag
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], np.flatnonzero(perm >= size)


def dense_map(a, f):
    """Reference f(A) from one eigh of the whole matrix."""
    w, q = np.linalg.eigh(a)
    return (q * f(w)) @ q.T


def assert_close(out, ref):
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def assert_decoupled_exact(out, free, diag):
    """Decoupled rows and columns are zero off the diagonal, `diag` on it."""
    off = np.zeros(out.shape, dtype=bool)
    off[free, :] = off[:, free] = True
    np.fill_diagonal(off, False)
    assert (out[off] == 0.0).all()
    np.testing.assert_array_equal(out[free, free], diag)


class TestCoupledBlock:
    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_coupled_is_the_block(self, layout):
        seed, n, n_free = layout
        a, free = permuted_block_diagonal(seed, n, n_free, definite=False)
        np.testing.assert_array_equal(coupled(a), np.setdiff1d(np.arange(n), free))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_spectrum(self, layout):
        a, free = permuted_block_diagonal(*layout, definite=False)
        w = spectrum(a)
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(w).max()
        assert (np.diff(w) >= 0).all()
        assert np.isin(np.diag(a)[free], w).all()

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_inv_sqrt_psd(self, layout):
        a, free = permuted_block_diagonal(*layout, definite=True)
        floor = 0.8  # clamps part of the spectrum
        out = inv_sqrt_psd(a, floor)
        assert_close(out, dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))
        assert_decoupled_exact(out, free, 1.0 / np.sqrt(np.maximum(np.diag(a)[free], floor)))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_precision_root(self, layout):
        a, free = permuted_block_diagonal(*layout, definite=True)
        used = EIGEN_FLOOR_FRAC * spectrum(a)[-1]
        out = precision_root(a, used)
        floor = EIGEN_FLOOR_FRAC * np.linalg.eigvalsh(a)[-1]
        assert_close(out, dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))
        assert_decoupled_exact(out, free, 1.0 / np.sqrt(np.maximum(np.diag(a)[free], used)))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_cov_sqrt(self, layout):
        a, free = permuted_block_diagonal(*layout, definite=True)
        out = cov_sqrt(a)
        assert_close(out, dense_map(a, np.sqrt))
        assert_decoupled_exact(out, free, np.sqrt(np.diag(a)[free]))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_idle(self, layout):
        a, _ = permuted_block_diagonal(*layout, definite=True)
        assert np.array_equal(psd_repair(a, 0.5 * np.linalg.eigvalsh(a)[0]), a)

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_fires(self, layout):
        a, free = permuted_block_diagonal(*layout, definite=False)
        eps = 0.3
        if np.linalg.eigvalsh(a)[0] >= eps:  # nothing to repair in this draw
            assert np.array_equal(psd_repair(a, eps), a)
            return
        out = psd_repair(a, eps)
        repaired = dense_map(a, lambda w: np.maximum(w, eps))
        with_diag = repaired.copy()
        np.fill_diagonal(with_diag, np.diag(a))
        restored = np.linalg.eigvalsh(with_diag)[0] >= eps / 2.0
        assert_close(out, with_diag if restored else repaired)
        diag = np.diag(a)[free]
        assert_decoupled_exact(out, free, diag if restored else np.maximum(diag, eps))


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
