import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphatest.dependence import (
    correlation_from_cov,
    estimate_dependence,
    hard_threshold,
    mt_rho_bar_sq,
    precision_root,
    sample_cov,
)
from alphatest.dgp import build_cov, cov_sqrt, gen_errors
from alphatest.errors import NonPositiveDiagonal
from alphatest.linalg import inv_sqrt_psd
from alphatest.ols import FactorPanel, fit


class TestSampleCov:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((3, 5))
        v = 3
        s = sample_cov(e, v)
        for i in range(3):
            for j in range(3):
                assert np.isclose(s[i, j], e[i] @ e[j] / v, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        s = sample_cov(rng.standard_normal((6, 40)), 37)
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12


class TestHardThreshold:
    def test_small_offdiagonal_zeroed(self):
        # |rho| = 0.01/sqrt(6) = 0.0041 < 2*sqrt(log(2)/100) = 0.1665
        sigma = np.array([[2.0, 0.01], [0.01, 3.0]])
        out, used = hard_threshold(sigma, 100, 2.0)
        assert out[0, 1] == 0.0
        assert np.isclose(used, 2.0 * np.sqrt(np.log(2) / 100))

    def test_diagonal_untouched(self):
        sigma = np.array([[2.0, 0.01], [0.01, 3.0]])
        out, _ = hard_threshold(sigma, 100, 2.0)
        assert np.allclose(np.diag(out), [2.0, 3.0])

    def test_large_entries_survive(self):
        # the 0.9 correlation survives; PSD repair may trim it slightly
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        out, _ = hard_threshold(sigma, 100, 2.0)
        assert out[0, 1] > 0.8

    def test_moderate_entries_survive_exactly(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        out, _ = hard_threshold(sigma, 100, 2.0)
        assert np.isclose(out[0, 1], 0.5)

    @given(st.integers(0, 500), st.floats(0.5, 3.0), st.floats(0.0, 2.5))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_delta(self, seed, delta_lo, gap):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((8, 60))
        sigma = sample_cov(e, 57)
        d = np.sqrt(np.diag(sigma))
        corr = sigma / np.outer(d, d)
        t = 60
        lo = np.abs(corr) >= delta_lo * np.sqrt(np.log(8) / t)
        hi = np.abs(corr) >= (delta_lo + gap) * np.sqrt(np.log(8) / t)
        # survivors at the larger delta are a subset of those at the smaller
        assert (hi <= lo).all()

    def test_result_positive_definite(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((30, 50))
        out, _ = hard_threshold(sample_cov(e, 46), 50, 2.0)
        assert np.linalg.eigvalsh(out)[0] > 0


class TestCorrelationFromCov:
    def test_worked_example(self):
        r = correlation_from_cov(np.array([[4.0, 3.0], [3.0, 9.0]]))
        assert np.isclose(r[0, 1], 0.5)
        assert np.allclose(np.diag(r), 1.0)

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(NonPositiveDiagonal):
            correlation_from_cov(np.array([[0.0, 0.1], [0.1, 1.0]]))


class TestPrecisionRoot:
    def test_two_by_two(self):
        r = np.array([[1.0, 0.7], [0.7, 1.0]])
        root = precision_root(r, floor=1e-10)
        expect = np.array([[1.296353, -0.529389], [-0.529389, 1.296353]])
        assert np.abs(root - expect).max() < 1e-6

    def test_recovers_identity_equicorrelation(self):
        n, rho = 5, 0.3
        r = np.full((n, n), rho) + (1 - rho) * np.eye(n)
        root = precision_root(r, floor=1e-10)
        assert np.abs(root @ r @ root - np.eye(n)).max() < 1e-8

    def test_identity_recovery_well_conditioned(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((10, 40))
        r = correlation_from_cov(sample_cov(b, 37))
        floor = 1e-8
        if np.linalg.eigvalsh(r)[0] >= floor:
            root = precision_root(r, floor=floor)
            assert np.abs(root @ r @ root - np.eye(10)).max() < 1e-6


class TestMtRhoBarSq:
    def test_single_surviving_pair(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        mt = mt_rho_bar_sq(sigma, v=96, q_mt=0.05, delta_mt=1.0)
        assert mt.survivors == 1
        assert np.isclose(mt.rho_bar_sq, 0.81, atol=1e-12)

    def test_no_survivors(self):
        sigma = np.array([[1.0, 0.001], [0.001, 1.0]])
        mt = mt_rho_bar_sq(sigma, v=96, q_mt=0.05, delta_mt=1.0)
        assert mt.survivors == 0
        assert mt.rho_bar_sq == 0.0

    def test_threshold_value(self):
        from scipy.special import ndtri

        mt = mt_rho_bar_sq(np.eye(4), v=50, q_mt=0.05, delta_mt=1.0)
        assert np.isclose(mt.mt_threshold, ndtri(1.0 - 0.05 / 8.0))

    @given(st.integers(0, 500), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_row_rescaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((6, 50))
        a = mt_rho_bar_sq(sample_cov(e, 47), 47, 0.05, 1.0).rho_bar_sq
        e2 = e.copy()
        e2[2] *= scale
        b = mt_rho_bar_sq(sample_cov(e2, 47), 47, 0.05, 1.0).rho_bar_sq
        assert np.isclose(a, b, rtol=1e-9)


class TestEstimateDependence:
    def test_pipeline_shapes(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((12, 60))
        dep = estimate_dependence(e, 56, 60, 3.0)
        for mat in (dep.sigma_hat, dep.sigma_thresholded, dep.r_hat, dep.omega_root):
            assert mat.shape == (12, 12)
        assert np.allclose(np.diag(dep.r_hat), 1.0)
        assert dep.threshold_used > 0

    def test_omega_root_symmetric(self):
        rng = np.random.default_rng(6)
        e = rng.standard_normal((20, 80))
        dep = estimate_dependence(e, 76, 80, 3.0)
        assert np.allclose(dep.omega_root, dep.omega_root.T)


def _eigen_calls(monkeypatch, residuals):
    """estimate_dependence of `residuals` and its numpy eigensolver calls."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    dep = estimate_dependence(residuals, 96, 100, 3.0)
    monkeypatch.undo()
    return dep, calls


def test_eigen_call_count_does_not_depend_on_the_block(monkeypatch):
    # threshold 3 * sqrt(log 40 / 100) = 0.58: independent rows leave an
    # empty coupled block, one pair at correlation 0.8 a 2x2 block; PSD
    # repair stays idle on both
    e = np.random.default_rng(8).standard_normal((40, 100))
    paired = e.copy()
    paired[1] = 0.8 * e[0] + 0.6 * e[1]
    empty, empty_calls = _eigen_calls(monkeypatch, e)
    pair, pair_calls = _eigen_calls(monkeypatch, paired)
    assert (empty.coupled, pair.coupled) == (0, 2)
    assert empty_calls == pair_calls == {"eigh": 1, "eigvalsh": 2}
    np.testing.assert_array_equal(empty.omega_root, np.eye(40))


def _omega_root_error(n, t, seed):
    """Max-entry error of the estimated inverse correlation root vs truth."""
    sigma = build_cov("M1", n, np.random.default_rng(0))
    truth = inv_sqrt_psd(correlation_from_cov(sigma), 1e-10)
    rng = np.random.default_rng(seed)
    root = cov_sqrt(sigma)
    eps = gen_errors(root, "normal", t, rng)
    f = np.random.default_rng(seed + 1000).standard_normal((t, 3))
    b = np.random.default_rng(seed + 2000).standard_normal((n, 3))
    panel = FactorPanel(returns=b @ f.T + eps, factors=f)
    res = fit(panel)
    sigma_hat = sample_cov(res.residuals, res.dof)
    thresholded, _ = hard_threshold(sigma_hat, t, 3.0)
    est = precision_root(correlation_from_cov(thresholded), floor=1e-6)
    return np.abs(est - truth).max()


@pytest.mark.slow
def test_omega_root_consistency_direction():
    # estimation error of the inverse correlation root shrinks with T
    for seed in (0, 1):
        assert _omega_root_error(50, 8000, seed) < _omega_root_error(50, 2000, seed)
