import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from alphatest import harness
from alphatest.alpha_tests import TestConfig as Config, run_all_detailed
from alphatest.dependence import EIGEN_FLOOR_FRAC, precision_root
from alphatest.dgp import cov_sqrt
from dense_reference import blocks, components
from alphatest.linalg import (
    BlockDiagonal,
    edge_components,
    inv_sqrt_psd,
    layout,
    psd_repair,
    spectral_map,
    spectrum,
    sym_eigen,
)
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.ols import FactorPanel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import cli_panel  # noqa: E402  the benchmark's CLI input panels


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestSymEigen:
    def test_reconstruction(self):
        a = random_symmetric(8, 2)
        w, q = sym_eigen(a)
        assert np.abs((q * w) @ q.T - a).max() < 1e-10

    def test_eigenvalues_ascending(self):
        a = random_symmetric(6, 3)
        w, q = sym_eigen(a)
        assert (np.diff(w) >= 0).all()
        want_w, want_q = np.linalg.eigh(a)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(q, want_q)

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

    def test_every_eigensolver_input_is_symmetric(self, eigen_calls):
        # the symmetry contract: no caller hands an eigensolver a matrix that
        # is symmetric only up to roundoff, with or without PSD repair
        harness._frozen_cov_root.cache_clear()  # so M1's and M3's roots are taken here
        repaired = []
        for model in ("M1", "M2", "M3", "M4"):
            for n, t in ((40, 60), (200, 100)):
                panel = simulate_panel(ScenarioConfig(n=n, t=t, cov_model=model, seed=3), 0, 0)
                for delta in (1.0, 3.0):
                    _, diag = run_all_detailed(panel, Config(threshold_delta=delta))
                    repaired.append(diag["repaired"])
        run_all_detailed(FactorPanel(*cli_panel(0, 0)))
        harness._frozen_cov_root.cache_clear()
        assert any(repaired) and len(eigen_calls) > 16 * 2
        for _, a in eigen_calls:
            assert np.array_equal(a, np.swapaxes(a, -1, -2))


class TestInvSqrtPsd:
    def test_two_by_two_correlation(self):
        # rho = 0.7 has eigenvalues 1.7 and 0.3; entries (1/sqrt(1.7) +- 1/sqrt(0.3))/2
        a = np.array([[1.0, 0.7], [0.7, 1.0]])
        root = np.asarray(inv_sqrt_psd(blocks(a), 1e-12))
        assert np.isclose(root[0, 0], 1.296353, atol=1e-6)
        assert np.isclose(root[1, 1], 1.296353, atol=1e-6)
        assert np.isclose(root[0, 1], -0.529389, atol=1e-6)

    def test_identity_recovery(self):
        # root @ a @ root = I whenever no eigenvalue is clamped
        rng = np.random.default_rng(6)
        b = rng.standard_normal((9, 9))
        a = b @ b.T + 0.5 * np.eye(9)
        root = np.asarray(inv_sqrt_psd(blocks(a), 1e-8))
        assert np.abs(root @ a @ root - np.eye(9)).max() < 1e-8

    def test_floor_clamps(self):
        a = np.diag([4.0, 1e-12])
        root = np.asarray(inv_sqrt_psd(blocks(a), 0.25))
        assert np.isclose(root[1, 1], 2.0, atol=1e-10)

    def test_nonpositive_floor_raises(self):
        with pytest.raises(ValueError):
            inv_sqrt_psd(blocks(np.eye(2)), 0.0)


class TestPsdRepair:
    def test_already_pd_unchanged(self):
        a = blocks(np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert psd_repair(a, 1e-4) is a

    def test_indefinite_repaired(self):
        rng = np.random.default_rng(7)
        a = random_symmetric(6, 7)
        a -= (np.linalg.eigvalsh(a)[0] + 0.5) * np.eye(6) * 0  # keep indefinite
        eps = 1e-3
        repaired = np.asarray(psd_repair(blocks(a), eps))
        assert np.linalg.eigvalsh(repaired)[0] >= eps / 2.0 - 1e-12
        assert np.allclose(repaired, repaired.T)

    def test_empty_matrix(self, eigen_calls):
        assert psd_repair(blocks(np.empty((0, 0))), 0.1).shape == (0, 0)
        calls = eigen_calls.shapes("eigvalsh")
        assert len(calls) == 1 and np.prod(calls[0]) == 0  # one call, on an empty input

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_min_eigenvalue_bounded(self, seed):
        # at least epsilon / 2 with the diagonal restored; the clip C, whose
        # eigenvalues are at least epsilon, rescaled to unit diagonal keeps at
        # least epsilon / max(diag C)
        a = random_symmetric(6, seed)
        eps = 1e-2
        repaired = np.asarray(psd_repair(blocks(a), eps))
        clip_diag = np.diag(dense_map(a, lambda w: np.maximum(w, eps)))
        assert np.linalg.eigvalsh(repaired)[0] >= min(eps / 2.0, eps / clip_diag.max()) - 1e-12


def correlation_with(hub):
    """6 x 6 correlation: rows 1 and 2 each correlate at `hub` with row 0,
    rows 3 and 4 at 0.3, and row 5 is decoupled, so its block form pads
    the pair's slice."""
    r = np.eye(6)
    r[0, 1] = r[1, 0] = r[0, 2] = r[2, 0] = hub
    r[3, 4] = r[4, 3] = 0.3
    return r


class TestPsdRepairOutcomes:
    # each of the three outcomes of repairing a correlation is a correlation
    EPS = 0.15

    def test_idle_returns_its_argument(self, eigen_calls):
        m = blocks(correlation_with(0.5))  # smallest eigenvalue 1 - sqrt(0.5)
        assert psd_repair(m, self.EPS) is m
        assert eigen_calls.counts() == {"eigh": 0, "eigvalsh": 1}

    @pytest.mark.parametrize("hub,restored", [(0.7, True), (0.8, False), (0.95, False)])
    def test_fired_returns_a_correlation(self, eigen_calls, hub, restored):
        a = correlation_with(hub)
        out = psd_repair(blocks(a), self.EPS)
        assert eigen_calls.counts() == {"eigh": 1, "eigvalsh": 2}
        on = np.arange(out.stack.shape[-1])
        assert (out.stack[:, on, on][out.slots < 6] == 1.0).all() and (out.diag == 1.0).all()
        assert np.array_equal(out.stack, np.swapaxes(out.stack, -1, -2))
        clip = dense_map(a, lambda w: np.maximum(w, self.EPS))
        with_diag = clip.copy()
        np.fill_diagonal(with_diag, 1.0)
        assert (np.linalg.eigvalsh(with_diag)[0] >= self.EPS / 2.0) == restored
        sd = np.sqrt(np.diag(clip))
        assert_close(np.asarray(out), with_diag if restored else clip / np.outer(sd, sd))


@st.composite
def block_layouts(draw):
    """(seed, blocks, decoupled count): up to six small blocks of 2-6 rows,
    at times one block of 12 or 40 rows, each block a (size, chain) pair;
    up to five decoupled rows, and half the layouts have 32 more; at least
    two rows in all."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=0, max_size=6))
    sizes += [size for size in [draw(st.sampled_from([0, 0, 12, 40]))] if size]
    chains = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
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


class TestCoupledBlock:
    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_coupled_is_the_block(self, case):
        a, free, parts = permuted_block_diagonal(*case, definite=False)
        label = components(a)
        np.testing.assert_array_equal(np.flatnonzero(label < 0), free)
        for rows in parts:
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
    def test_hub_matrix_is_one_component(self, seed, n, pattern):
        # a row adjacent to every other row, its edges listed in either triangle
        rng = np.random.default_rng(seed)
        hub = rng.integers(n)
        if pattern == "dense":
            a = rng.uniform(0.5, 1.0, (n, n))
        else:
            a = np.eye(n)
            a[hub, :] = rng.uniform(0.5, 1.0, n)
            if pattern == "hub_chain":
                chain = rng.permutation(n)
                a[chain[:-1], chain[1:]] = 1.0
        if pattern != "hub_one_triangle":
            a = a + a.T
        off = a != 0
        np.fill_diagonal(off, False)
        label = edge_components(n, *np.nonzero(off))
        np.testing.assert_array_equal(label, np.zeros(n))
        assert_same_partition(label, a)

    def test_single_row_is_decoupled(self):
        np.testing.assert_array_equal(components(np.ones((1, 1))), [-1])
        assert components(np.ones((0, 0))).shape == (0,)

    def test_one_stacked_call(self, eigen_calls):
        # three components of 2, 3 and 4 rows pad to one (3, 4, 4) stack,
        # in any row order
        parts = ((2, True), (3, False), (4, True))
        for seed in (3, 4):
            a, _, _ = permuted_block_diagonal(seed, parts, 0, True)
            spectrum(blocks(a))
            spectral_map(blocks(a), np.sqrt)
        assert eigen_calls.shapes() == [(3, 4, 4)] * 4

    @pytest.mark.parametrize("helper", [
        (spectrum, np.linalg.eigvalsh),
        (lambda m: spectral_map(m, np.sqrt), lambda a: dense_map(a, np.sqrt)),
        (lambda m: inv_sqrt_psd(m, 0.5),
         lambda a: dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, 0.5)))),
        (lambda m: psd_repair(m, 0.1), lambda a: a),
    ], ids=["spectrum", "spectral_map", "inv_sqrt_psd", "psd_repair"])
    def test_decoupled_row_stays_on_the_diagonal(self, eigen_calls, helper):
        # a decoupled row is its own eigenvalue on the diagonal, outside the
        # helpers' one stacked call, and stays a diagonal row of the result
        a, free, _ = permuted_block_diagonal(5, ((2, True), (3, False)), 1, True)
        m = blocks(a)
        assert free.size == 1 and free[0] not in m.slots
        fn, reference = helper
        out = np.asarray(fn(m))
        assert eigen_calls.shapes() == [(2, 3, 3)]
        assert_close(out, reference(a))
        if out.ndim == 2:
            assert (np.delete(out[free[0]], free[0]) == 0.0).all()

    @pytest.mark.parametrize("n_free", [0, 1, 32])
    def test_whole_matrix_is_one_eigenproblem(self, eigen_calls, n_free):
        # a matrix held as one block of all n rows is one (1, n, n)
        # eigenproblem, its decoupled rows included
        a, _, _ = permuted_block_diagonal(5, ((2, True), (3, False)), n_free, True)
        n = a.shape[0]
        whole = BlockDiagonal(np.diag(a).copy(), np.arange(n)[None], a[None].copy())
        w = spectrum(whole)
        out = spectral_map(whole, np.sqrt)
        assert eigen_calls.shapes() == [(1, n, n)] * 2
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(w).max()
        assert_close(np.asarray(out), dense_map(a, np.sqrt))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_spectrum(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=False)
        w = spectrum(blocks(a))
        assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-12 * np.abs(w).max()
        assert (np.diff(w) >= 0).all()

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_spectral_map(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=False)
        cube = lambda w: w**3 - w  # noqa: E731
        out = spectral_map(blocks(a), cube)
        assert_close(np.asarray(out), dense_map(a, cube))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_inv_sqrt_psd(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=True)
        floor = 0.8  # clamps part of the spectrum
        out = inv_sqrt_psd(blocks(a), floor)
        assert_close(np.asarray(out), dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_precision_root(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=True)
        used = EIGEN_FLOOR_FRAC * spectrum(blocks(a))[-1]
        out = precision_root(blocks(a), used)
        floor = EIGEN_FLOOR_FRAC * np.linalg.eigvalsh(a)[-1]
        assert_close(np.asarray(out),
                     dense_map(a, lambda w: 1.0 / np.sqrt(np.maximum(w, floor))))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_cov_sqrt(self, case):
        # one eigenproblem of the whole matrix, so decoupled rows are not
        # exact; in block form they are
        a, _, _ = permuted_block_diagonal(*case, definite=True)
        assert_close(cov_sqrt(a), dense_map(a, np.sqrt))
        assert_close(np.asarray(cov_sqrt(blocks(a))), dense_map(a, np.sqrt))

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_idle(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=True)
        m = blocks(a)
        assert psd_repair(m, 0.5 * np.linalg.eigvalsh(a)[0]) is m

    @given(block_layouts())
    @settings(max_examples=40, deadline=None)
    def test_psd_repair_fires(self, case):
        a, _, _ = permuted_block_diagonal(*case, definite=False)
        eps = 0.3
        m = blocks(a)
        if np.linalg.eigvalsh(a)[0] >= eps:  # nothing to repair in this draw
            assert psd_repair(m, eps) is m
            return
        out = psd_repair(m, eps)
        repaired = dense_map(a, lambda w: np.maximum(w, eps))
        with_diag = repaired.copy()
        np.fill_diagonal(with_diag, np.diag(a))
        restored = np.linalg.eigvalsh(with_diag)[0] >= eps / 2.0
        sd = np.sqrt(np.diag(repaired))
        assert_close(np.asarray(out), with_diag if restored else repaired / np.outer(sd, sd))


class TestLayout:
    def test_components_and_decoupled_rows(self):
        # components {1, 4}, {0, 2, 6} and {5, 7}; rows 3 and 8 decoupled
        label = np.array([0, 1, 0, -1, 1, 5, 0, 5, -1])
        np.testing.assert_array_equal(layout(label), [[0, 2, 6], [1, 4, 9], [5, 7, 9]])

    def test_one_block_where_padding_costs_more(self):
        # c * m**3 = 2 * 1000 >= 12**3: the 12 labelled rows form one block
        label = np.array([0] * 10 + [-1, 11, 11])
        np.testing.assert_array_equal(layout(label), [list(range(10)) + [11, 12]])
        np.testing.assert_array_equal(layout(np.full(4, -1)), np.empty((1, 0)))


class TestBlockDiagonal:
    @pytest.mark.parametrize("slots", [[[]], [[2]], [[0, 3, 4]], [[0, 3, 4], [1, 6, 6]]],
                             ids=["empty", "one", "three", "padded"])
    def test_product_matches_dense(self, slots):
        # the diagonal rows are one product per entry, exact; block rows
        # are each block's own product
        rng = np.random.default_rng(1)
        slots = np.array(slots, dtype=int).reshape(len(slots), -1)
        stack = np.array([random_symmetric(slots.shape[1], 2 + j) for j in range(len(slots))])
        for j, row in enumerate(slots):
            stack[j, row == 6] = stack[j, :, row == 6] = 0.0
        m = BlockDiagonal(rng.uniform(1.0, 2.0, 6), slots, stack)
        assert m.shape == (6, 6)
        free = np.delete(np.arange(6), slots[slots < 6])
        for x in (rng.standard_normal(6), rng.standard_normal((6, 4))):
            out = m @ x
            assert out.shape == x.shape
            np.testing.assert_array_equal(out[free], (np.asarray(m) @ x)[free])
            for block, row in zip(stack, slots):
                real = row < 6
                np.testing.assert_array_equal(out[row[real]],
                                              block[np.ix_(real, real)] @ x[row[real]])

    def test_diag_is_not_read_on_the_active_rows(self):
        block = np.array([[[2.0, 1.0], [1.0, 2.0]]])
        a = BlockDiagonal(np.array([5.0, 7.0, 3.0]), np.array([[0, 1]]), block)
        b = BlockDiagonal(np.array([-9.0, 0.0, 3.0]), np.array([[0, 1]]), block)
        x = np.array([1.0, -2.0, 4.0])
        np.testing.assert_array_equal(a @ x, [0.0, -3.0, 12.0])
        np.testing.assert_array_equal(b @ x, a @ x)
        np.testing.assert_array_equal(np.asarray(b), [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                                                      [0.0, 0.0, 3.0]])
        np.testing.assert_array_equal(spectrum(b), [1.0, 3.0, 3.0])
