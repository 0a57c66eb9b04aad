import functools
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from alphatest.alpha_tests import (
    TestConfig as Config,
    max_p_value,
    py_stat,
    run_all_detailed,
)
from alphatest import dependence, linalg
from alphatest.dependence import (
    EIGEN_FLOOR_FRAC,
    PSD_EPS_FRAC,
    TILE_ROWS,
    correlation_from_cov,
    correlation_pairs,
    estimate_dependence,
    precision_root,
    sample_cov,
)
from alphatest.dgp import build_cov, cov_sqrt, gen_errors
from alphatest.errors import NonPositiveDiagonal
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.linalg import edge_components, inv_sqrt_psd, psd_repair
from alphatest.ols import FactorPanel, fit
from dense_reference import (
    components,
    correlation_scale,
    dense_oracle,
    dense_statistics,
    densify,
    hard_threshold,
    max_stat_standardized,
    mt_rho_bar_sq,
    thresholded_dense,
    tiled_correlation,
    upper_pairs,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import cli_panel  # noqa: E402  the benchmark's CLI input panels


class TestSampleCov:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((3, 5))
        v = 3
        s = sample_cov(e, v)
        for i in range(3):
            for j in range(3):
                assert np.isclose(s[i, j], e[i] @ e[j] / v, atol=1e-12)

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_exactly_symmetric(self, layout):
        e = np.random.default_rng(2).standard_normal((500, 200))
        e = {"C": e[:, :100], "F": np.asfortranarray(e[:, :100]), "sliced": e[:, ::2]}[layout]
        s = sample_cov(e, 96)
        np.testing.assert_array_equal(s, s.T)
        assert np.abs(s - e @ e.T / 96).max() < 1e-12

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        s = sample_cov(rng.standard_normal((6, 40)), 37)
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12


class TestHardThreshold:
    def test_small_offdiagonal_zeroed(self):
        # |rho| = 0.01/sqrt(6) = 0.0041 < 2*sqrt(log(2)/100) = 0.1665
        sigma = np.array([[2.0, 0.01], [0.01, 3.0]])
        out, used = thresholded_dense(sigma, 100, 2.0)
        assert out[0, 1] == 0.0
        assert np.isclose(used, 2.0 * np.sqrt(np.log(2) / 100))

    def test_diagonal_untouched(self):
        sigma = np.array([[2.0, 0.01], [0.01, 3.0]])
        out, _ = thresholded_dense(sigma, 100, 2.0)
        np.testing.assert_array_equal(np.diag(out), np.diag(correlation_scale(sigma)))

    def test_large_entries_survive(self):
        # the 0.9 correlation survives; PSD repair may trim it slightly
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        out, _ = thresholded_dense(sigma, 100, 2.0)
        assert out[0, 1] > 0.8

    def test_moderate_entries_survive_exactly(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        out, _ = thresholded_dense(sigma, 100, 2.0)
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
        out, _ = thresholded_dense(sample_cov(e, 46), 50, 2.0)
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

    @pytest.mark.parametrize("q_mt,delta_mt", [(0.0, 1.0), (-1.0, 1.0), (0.05, -50.0)])
    def test_non_finite_critical_value_raises(self, q_mt, delta_mt):
        # c_n = +inf keeps no pair, NaN none either: both would zero the correction
        pairs = correlation_pairs(np.eye(4, 10), 0.0)
        with pytest.raises(ValueError, match="critical value"):
            dependence.mt_rho_bar_sq(pairs, 50, q_mt, delta_mt)
        with pytest.raises(ValueError, match="critical value"):
            estimate_dependence(np.eye(4, 10), 6, 10, 3.0, q_mt, delta_mt)

    @given(st.integers(0, 500), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_row_rescaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((6, 50))
        a = mt_rho_bar_sq(correlation_scale(sample_cov(e, 47)), 47, 0.05, 1.0).rho_bar_sq
        e2 = e.copy()
        e2[2] *= scale
        b = mt_rho_bar_sq(correlation_scale(sample_cov(e2, 47)), 47, 0.05, 1.0).rho_bar_sq
        assert np.isclose(a, b, rtol=1e-9)


class TestCorrelationPairs:
    @given(st.sampled_from([2, 127, 128, 129, 259]), st.integers(0, 2**32 - 1),
           st.sampled_from(["uniform_cut", "cut_at_positive_entry", "cut_at_negative_entry"]))
    @settings(max_examples=60, deadline=None)
    def test_pairs_match_the_dense_upper_triangle(self, n, seed, kind):
        # index, order and value bits of the survivors of the whole N x N
        # correlation, read row by row from `triu_indices`, on rows of
        # mixed scales; a cut exactly at an entry's magnitude keeps it
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n, 20)) * rng.uniform(0.1, 10.0, (n, 1))
        cut = float(rng.uniform(0.0, 0.8))
        a, b = np.sort(rng.choice(n, size=2, replace=False))
        sign = {"cut_at_positive_entry": 1.0, "cut_at_negative_entry": -1.0}.get(kind)
        if sign is not None and np.sign(tiled_correlation(e)[a, b]) != sign:
            e[b] = -e[b]
        corr = tiled_correlation(e)
        if sign is not None:
            cut = float(abs(corr[a, b]))
        pairs = correlation_pairs(e, cut)
        i, j, rho = upper_pairs(corr, cut)
        np.testing.assert_array_equal(pairs.i, i)
        np.testing.assert_array_equal(pairs.j, j)
        assert pairs.rho.tobytes() == rho.tobytes()
        assert (pairs.n, pairs.cut) == (n, cut)
        if sign is not None:
            assert sign * cut in pairs.rho[(pairs.i == a) & (pairs.j == b)]

    def test_tile_boundaries(self):
        # every pair survives a zero cut, across and inside the tiles
        n = 2 * TILE_ROWS + 3
        e = np.random.default_rng(9).standard_normal((n, 30))
        pairs = correlation_pairs(e, 0.0)
        i, j = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(pairs.i, i)
        np.testing.assert_array_equal(pairs.j, j)

    def test_empty_and_single_row(self):
        for n in (0, 1):
            pairs = correlation_pairs(np.ones((n, 5)), 0.0)
            assert pairs.i.size == pairs.j.size == pairs.rho.size == 0
            assert pairs.n == n

    def test_threshold_below_the_cut_raises(self):
        pairs = correlation_pairs(np.eye(3, 5), 0.5)
        with pytest.raises(ValueError):
            dependence.hard_threshold(pairs, 0.4)

    def test_mt_cut_above_the_candidates_raises(self):
        pairs = correlation_pairs(np.eye(3, 5), 0.9)
        with pytest.raises(ValueError):
            dependence.mt_rho_bar_sq(pairs, 50, 0.05, 1.0)

    @given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mt_matches_dense(self, n, seed, fraction):
        # on any pair list at or below the candidates' cut, the MT estimate
        # is the dense one, bit for bit
        e = np.random.default_rng(seed).standard_normal((n, 30))
        want = mt_rho_bar_sq(tiled_correlation(e), 26, 0.05, 1.0)
        cut = fraction * want.mt_threshold / np.sqrt(26) * (1.0 - 1e-9)
        assert dependence.mt_rho_bar_sq(correlation_pairs(e, cut), 26, 0.05, 1.0) == want


def test_estimate_labels_components_once(monkeypatch):
    # the active block is labelled once, from the surviving pairs; repair,
    # the floor's spectrum and the root reuse that labelling
    res = fit(simulate_panel(ScenarioConfig(n=200, t=100, cov_model="M1", seed=101), 0, 0))
    calls = []
    for module in (dependence, linalg):
        def counted(*args, _fn=module.edge_components):
            calls.append(args[0])
            return _fn(*args)

        monkeypatch.setattr(module, "edge_components", counted)
    dep = estimate_dependence(res.residuals, res.dof, 100, 3.0, 0.05, 1.0)
    assert dep.repaired and dep.root.active.size > 32
    assert calls == [dep.root.active.size]


class TestEstimateDependence:
    def test_pipeline_shapes(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((12, 60))
        dep = estimate_dependence(e, 56, 60, 3.0, 0.05, 1.0)
        sigma_hat = sample_cov(e, 56)
        thresholded, _ = thresholded_dense(sigma_hat, 60, 3.0)
        r_hat = correlation_from_cov(thresholded)
        corr = tiled_correlation(e)
        for mat in (sigma_hat, thresholded, r_hat, densify(dep.root), corr):
            assert mat.shape == (12, 12)
        assert dep.root.block.shape == (dep.root.active.size, dep.root.active.size)
        # the pairs are the correlation scale's upper-triangle entries at the cut
        assert (dep.pairs.i < dep.pairs.j).all()
        assert dep.pairs.rho.tobytes() == corr[dep.pairs.i, dep.pairs.j].tobytes()
        assert dep.pairs.n == 12
        assert (np.abs(dep.pairs.rho) >= dep.pairs.cut).all()
        assert np.allclose(np.diag(r_hat), 1.0)
        assert dep.threshold_used > 0

    def test_omega_root_symmetric(self):
        rng = np.random.default_rng(6)
        e = rng.standard_normal((20, 80))
        dep = estimate_dependence(e, 76, 80, 3.0, 0.05, 1.0)
        omega_root = densify(dep.root)
        assert np.allclose(omega_root, omega_root.T)


def _count_solver_calls(monkeypatch):
    """Count numpy eigensolver calls from here on: {"eigh": n, "eigvalsh": n}."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _eigen_calls(monkeypatch, residuals):
    """estimate_dependence of `residuals` and its numpy eigensolver calls."""
    calls = _count_solver_calls(monkeypatch)
    dep = estimate_dependence(residuals, 96, 100, 3.0, 0.05, 1.0)
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
    assert (empty.root.active.size, pair.root.active.size) == (0, 2)
    assert empty_calls == pair_calls == {"eigh": 1, "eigvalsh": 2}
    assert empty.root.block.shape == (0, 0) and pair.root.active.tolist() == [0, 1]
    np.testing.assert_array_equal(densify(empty.root), np.eye(40))


def _many_components_cov(n, chains):
    # ten pairs of rows at correlation 0.7, each a 2x2 component with
    # eigenvalues 0.3 and 1.7, which PSD repair leaves alone; then `chains`
    # copies of `_chain_cov`'s three rows, each a component repair clips
    cov = np.eye(n)
    for i in range(0, 20, 2):
        cov[i, i + 1] = cov[i + 1, i] = 0.7
    for start in range(20, 20 + 3 * chains, 3):
        rows = np.ix_(range(start, start + 3), range(start, start + 3))
        cov[rows] = _chain_cov(3)
    return cov


@pytest.mark.parametrize("chains,repaired,expected", [
    (0, False, {"eigh": 1, "eigvalsh": 2}),
    (1, True, {"eigh": 2, "eigvalsh": 3}),
    (5, True, {"eigh": 2, "eigvalsh": 3}),
], ids=["idle", "one-chain", "five-chains"])
def test_eigen_call_count_does_not_depend_on_the_components(
        monkeypatch, chains, repaired, expected):
    # whatever the number of components, each eigen step is one stacked call
    residuals = _residuals_with_cov(_many_components_cov(40, chains), 96, 100)
    dep, calls = _eigen_calls(monkeypatch, residuals)
    assert (dep.components, dep.largest_component) == (10 + chains, 3 if chains else 2)
    assert dep.repaired == repaired
    assert calls == expected


def test_eigen_call_count_on_a_repaired_panel(monkeypatch):
    # a Model 1 panel at N=200: hard thresholding leaves many short chains
    # and PSD repair fires
    res = fit(simulate_panel(ScenarioConfig(n=200, t=100, cov_model="M1", seed=101), 0, 0))
    calls = _count_solver_calls(monkeypatch)
    dep = estimate_dependence(res.residuals, res.dof, 100, 3.0, 0.05, 1.0)
    assert dep.repaired and dep.components > 10
    assert calls == {"eigh": 2, "eigvalsh": 3}


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
    thresholded, _ = thresholded_dense(sigma_hat, t, 3.0)
    est = precision_root(correlation_from_cov(thresholded), floor=1e-6)
    return np.abs(est - truth).max()


@pytest.mark.slow
def test_omega_root_consistency_direction():
    # estimation error of the inverse correlation root shrinks with T
    for seed in (0, 1):
        assert _omega_root_error(50, 8000, seed) < _omega_root_error(50, 2000, seed)


class TestBlockForm:
    def test_active_rows(self):
        # rows 0 and 3 correlate at 0.8; row 5's small variance 0.1 does not
        # matter on the correlation scale; the other rows leave the block
        sigma = np.eye(6)
        sigma[0, 3] = sigma[3, 0] = 0.8
        sigma[5, 5] = 0.1
        corr = correlation_scale(sigma)
        block, active, _ = hard_threshold(corr, 100, 2.0)
        assert active.tolist() == [0, 3]
        np.testing.assert_array_equal(block, corr[np.ix_(active, active)])

    def test_empty_block(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        block, active, _ = hard_threshold(correlation_scale(sigma), 100, 2.0)
        assert block.shape == (0, 0) and active.size == 0

    def test_empty_precision_root(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        assert precision_root(np.empty((0, 0)), 1.0).shape == (0, 0)
        assert calls == {"eigh": 1, "eigvalsh": 0}


def _residuals_with_cov(cov, dof, t, seed=0):
    """T residual columns whose `sample_cov` with divisor `dof` is `cov`."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((t, cov.shape[0])))
    return np.linalg.cholesky(cov) @ q.T * np.sqrt(dof)


def _chain_cov(n):
    # 0-1 and 1-2 correlate at 0.8, 0-2 at 0.55: the threshold 0.58 at
    # N=40, T=100 drops 0-2, leaving eigenvalues 1 and 1 +- 0.8 sqrt(2);
    # after clipping, restoring the diagonal would leave an eigenvalue
    # below epsilon / 2, so repair keeps the clipped diagonal
    cov = np.eye(n)
    cov[0, 1] = cov[1, 0] = cov[1, 2] = cov[2, 1] = 0.8
    cov[0, 2] = cov[2, 0] = 0.55
    return cov


def _spiked_cov(n):
    # twelve rows at correlation 0.8: the block's largest eigenvalue 9.8
    # puts the floor 0.12 * 9.8 above the decoupled rows' eigenvalue 1
    cov = np.eye(n)
    cov[:12, :12] = 0.8 + 0.2 * np.eye(12)
    return cov


def _low_variance_cov(n):
    # row 7 is decoupled with variance 0.1: on the correlation scale it is a
    # unit row like any other, so it stays out of the block
    cov = np.eye(n)
    cov[3, 9] = cov[9, 3] = 0.7
    cov[7, 7] = 0.1
    return cov


def _assert_rel(a, b, rtol=1e-12):
    assert abs(a - b) <= rtol * abs(b), (a, b)


@pytest.mark.parametrize("make_cov,check", [
    (_chain_cov, lambda dep, repaired, corr: (
        dep.repaired and not np.array_equal(np.diag(repaired), np.diag(corr)))),
    (_spiked_cov, lambda dep, repaired, corr: dep.floor > 1.0),
    (_low_variance_cov, lambda dep, repaired, corr: (
        dep.root.active.tolist() == [3, 9] and not dep.repaired)),
], ids=["restore-fails", "floor-above-one", "low-variance-row"])
def test_block_matches_dense_on_engineered_cases(make_cov, check):
    n, t, dof = 40, 100, 96
    e = _residuals_with_cov(make_cov(n), dof, t)
    dep = estimate_dependence(e, dof, t, 3.0, 0.05, 1.0)
    _, root, repaired = dense_oracle(e, dof, t, 3.0, 0.05, 1.0)
    assert check(dep, repaired, tiled_correlation(e))
    assert dep.root.active.size < n
    # the oracle decomposes the whole N x N matrix, so it rounds differently
    assert np.abs(densify(dep.root) - root).max() <= 1e-12 * np.abs(root).max()
    tr = np.random.default_rng(1).standard_normal(n) * 3.0
    _assert_rel(float(np.max((dep.root @ tr) ** 2)), max_stat_standardized(tr, root))


def test_low_variance_row_is_a_unit_row():
    # the estimate for the panel with row 7 at variance 0.1 is the one for
    # the same panel with row 7 at unit variance
    n, t, dof = 40, 100, 96
    low_e = _residuals_with_cov(_low_variance_cov(n), dof, t)
    low = estimate_dependence(low_e, dof, t, 3.0, 0.05, 1.0)
    unit_cov = _low_variance_cov(n)
    unit_cov[7, 7] = 1.0
    unit_e = _residuals_with_cov(unit_cov, dof, t)
    unit = estimate_dependence(unit_e, dof, t, 3.0, 0.05, 1.0)
    np.testing.assert_array_equal(low.root.active, unit.root.active)
    np.testing.assert_array_equal(densify(low.root), densify(unit.root))
    assert (low.floor, low.threshold_used, low.repaired) == \
        (unit.floor, unit.threshold_used, unit.repaired)
    np.testing.assert_allclose(tiled_correlation(low_e), tiled_correlation(unit_e),
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(low.pairs.i, unit.pairs.i)
    np.testing.assert_array_equal(low.pairs.j, unit.pairs.j)
    np.testing.assert_allclose(low.pairs.rho, unit.pairs.rho, rtol=0, atol=1e-15)


BLOCK_PANELS = [(model, n, m, delta) for model in ("M1", "M2", "M3", "M4")
                for n, m in ((200, 0), (200, 3)) for delta in (3.0, 1.0)]
BLOCK_PANELS += [("M2", 500, 3, 3.0), ("M1", 500, 0, 1.0)]


def _block_panel(model, n, m):
    """Panel of a `BLOCK_PANELS` entry; model "AR1" is a benchmark CLI panel:
    AR(1) errors across securities at rho = 0.7, T=120."""
    if model == "AR1":
        return FactorPanel(*cli_panel(1, 0, n=n))
    return simulate_panel(ScenarioConfig(n=n, t=100, cov_model=model, m=m, seed=31), m, 0)


@pytest.mark.parametrize("model,n,m,delta", BLOCK_PANELS + [("AR1", 1000, 0, 3.0)])
def test_block_matches_dense_pipeline(model, n, m, delta):
    # MAX2 from the block-form root and PY from the MT step agree with the
    # dense oracle, and so do their decisions
    config = Config(threshold_delta=delta)
    panel = _block_panel(model, n, m)
    results, diag = run_all_detailed(panel, config)
    stats = {r.name: r for r in results}
    res = fit(panel)
    rho_bar_sq, root, _ = dense_oracle(res.residuals, res.dof, panel.n_periods, delta,
                                       config.q_mt, config.delta_mt)
    assert diag["rho_bar_sq"] == rho_bar_sq
    max2 = max_stat_standardized(res.t_stats, root)
    _assert_rel(stats["MAX2"].statistic, max2)
    assert stats["MAX2"].reject == (max_p_value(max2, n) < config.gamma)
    py = py_stat(res.t_stats, rho_bar_sq, res.dof)
    assert stats["PY"].statistic == py


@functools.cache
def _batch_estimates():
    """`estimate_dependence` of each `BLOCK_PANELS` entry and the AR1 N=1000 panel."""
    estimates = []
    for model, n, m, delta in BLOCK_PANELS + [("AR1", 1000, 0, 3.0)]:
        panel = _block_panel(model, n, m)
        res = fit(panel)
        estimates.append(
            estimate_dependence(res.residuals, res.dof, panel.n_periods, delta, 0.05, 1.0))
    return estimates


def test_decoupled_rows_are_closed_form():
    # every row outside the active block is 1 / sqrt(max(1, floor)) on the
    # root's diagonal and an exact zero everywhere else in its row and column
    with_free = 0
    for dep in _batch_estimates():
        n = dep.pairs.n
        out = dep.root @ np.eye(n)
        free = np.delete(np.arange(n), dep.root.active)
        off = np.zeros((n, n), dtype=bool)
        off[free, :] = off[:, free] = True
        np.fill_diagonal(off, False)
        assert (out[off] == 0.0).all()
        assert (out[free, free] == 1.0 / np.sqrt(max(1.0, dep.floor))).all()
        with_free += free.size > 0
    assert with_free >= 10


def test_block_spectrum_reaches_one():
    # a non-empty unit-diagonal block has a largest eigenvalue of at least 1,
    # so the decoupled rows' eigenvalue 1 decides the floor only beside an
    # empty block
    nonempty = 0
    for dep in _batch_estimates():
        block, active, edges = dependence.hard_threshold(dep.pairs, dep.threshold_used)
        label = edge_components(active.size, *edges)
        w = linalg.spectrum(correlation_from_cov(psd_repair(block, PSD_EPS_FRAC, label)), label)
        if active.size:
            assert w[-1] >= 1.0
            nonempty += 1
        assert dep.floor == EIGEN_FLOOR_FRAC * (w[-1] if active.size else 1.0)
    assert nonempty >= 10


def _assert_exactly_symmetric(residuals, t, delta):
    # psd_repair and correlation_from_cov do not symmetrize their input:
    # each stage must hand the next an exactly symmetric matrix
    corr = tiled_correlation(residuals)
    block, _, used = hard_threshold(corr, t, delta)
    pairs_block, _, _ = dependence.hard_threshold(correlation_pairs(residuals, used), used)
    repaired = psd_repair(block, PSD_EPS_FRAC)
    for x in (corr, block, pairs_block, repaired, correlation_from_cov(repaired)):
        assert np.array_equal(x, x.T)


@pytest.mark.parametrize("model,n,m,delta", BLOCK_PANELS)
def test_pipeline_exactly_symmetric_on_panels(model, n, m, delta):
    res = fit(_block_panel(model, n, m))
    _assert_exactly_symmetric(res.residuals, 100, delta)


@pytest.mark.parametrize("model,n,m,delta", BLOCK_PANELS + [("AR1", 1000, 0, 3.0)])
def test_pair_pipeline_matches_dense_threshold_and_mt(model, n, m, delta):
    # the block, active rows and MT estimate from the pairs are bit for bit
    # those of the dense pipeline on the whole correlation scale, and the
    # labels from the surviving pairs are the block's components
    panel = _block_panel(model, n, m)
    res = fit(panel)
    corr = tiled_correlation(res.residuals)
    dense_block, dense_active, used = hard_threshold(corr, panel.n_periods, delta)
    dep = estimate_dependence(res.residuals, res.dof, panel.n_periods, delta, 0.05, 1.0)
    block, active, edges = dependence.hard_threshold(dep.pairs, used)
    assert dep.threshold_used == used
    np.testing.assert_array_equal(active, dense_active)
    np.testing.assert_array_equal(dep.root.active, dense_active)
    assert block.tobytes() == dense_block.tobytes()
    label = edge_components(active.size, *edges)
    np.testing.assert_array_equal(label, components(block))
    _, ref = connected_components(block != 0, directed=False)
    pairs_of_labels = np.unique(np.stack([label, ref]), axis=1).shape[1]
    assert pairs_of_labels == np.unique(label).size == np.unique(ref).size  # one partition
    assert dependence.mt_rho_bar_sq(dep.pairs, res.dof, 0.05, 1.0) == \
        mt_rho_bar_sq(corr, res.dof, 0.05, 1.0)


@pytest.mark.parametrize("model,n,m", sorted({entry[:3] for entry in BLOCK_PANELS})
                         + [("AR1", 1000, 0)])
def test_tiled_correlation_matches_the_covariance_scale(model, n, m):
    # the unit-norm tiles the screen reads are the covariance's
    # correlation scale up to rounding
    res = fit(_block_panel(model, n, m))
    want = correlation_scale(sample_cov(res.residuals, res.dof))
    assert np.abs(tiled_correlation(res.residuals) - want).max() <= 1e-14


def test_estimate_forms_no_n_by_n_array():
    # N=3000 AR(1) residuals: a quarter of one N x N array of doubles bounds
    # the estimate's traced peak (the covariance alone took all of it); at
    # threshold constant 2.7 hundreds of rows are active and repair fires
    n = 3000
    res = fit(FactorPanel(*cli_panel(2, 0, n=n, t=100)))
    tracemalloc.start()
    try:
        dep = estimate_dependence(res.residuals, res.dof, 100, 2.7, 0.05, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dep.root.active.size > 100 and dep.repaired
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("make_cov", [_chain_cov, _spiked_cov, _low_variance_cov],
                         ids=["restore-fails", "floor-above-one", "low-variance-row"])
def test_pipeline_exactly_symmetric_on_engineered_cases(make_cov):
    _assert_exactly_symmetric(_residuals_with_cov(make_cov(40), 96, 100), 100, 3.0)


def _assert_statistics_match_dense(panel):
    # all five statistics agree with the oracle that decomposes whole N x N
    # matrices with plain eigensolver calls, no block form or component split
    results, diag = run_all_detailed(panel)
    dense = dense_statistics(panel, Config())
    for r in results:
        _assert_rel(r.statistic, dense[r.name])
    return diag


def test_statistics_match_dense_oracle_on_the_cli_reference_panel():
    # the benchmark's reference panel: AR(1) errors at rho = 0.7, N=1000,
    # T=120; hundreds of short chains, repair fires
    diag = _assert_statistics_match_dense(FactorPanel(*cli_panel(0, 0)))
    assert diag["repaired"] and diag["components"] > 100


def test_statistics_match_dense_oracle_on_a_repaired_m1_batch():
    scenario = ScenarioConfig(n=200, t=100, cov_model="M1", seed=101)
    for rep in range(8):
        assert _assert_statistics_match_dense(simulate_panel(scenario, 0, rep))["repaired"]
