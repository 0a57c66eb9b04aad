import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.errors import DimensionError, SingularDesign
from alphatest.linalg import annihilator, inv_sqrt_psd, psd_repair, sym_eigen


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

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_min_eigenvalue_bounded(self, seed):
        a = random_symmetric(6, seed)
        repaired = psd_repair(a, 1e-2)
        assert np.linalg.eigvalsh(repaired)[0] >= 5e-3 - 1e-12
