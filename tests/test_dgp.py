import tracemalloc

import numpy as np
import pytest

from alphatest import dgp
from alphatest.dgp import (
    assemble_panel,
    build_cov,
    cov_sqrt,
    gen_alpha,
    gen_betas,
    gen_errors,
    gen_factors,
)
from alphatest.errors import DimensionError, NotPositiveDefinite
from alphatest.harness import ScenarioConfig, simulate_panel
from alphatest.linalg import BlockDiagonal, sym_eigen
from alphatest.ols import fit
from dense_reference import dense_m2_cov, gen_factors_vector


def dense_cov(kind, n, rng):
    """`build_cov` as an N x N array (M2 is drawn in block form)."""
    sigma = build_cov(kind, n, rng)
    return np.asarray(sigma)


class FixedNormals:
    """Stands in for a generator: `standard_normal` returns the given draws."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z


class TestFactorProcessParams:
    def test_defaults(self):
        assert dgp.AR_INTERCEPT == (0.53, 0.19, 0.19)
        assert dgp.AR_COEF == (0.06, 0.19, 0.05)
        assert dgp.GARCH_INTERCEPT == (0.89, 0.62, 0.80)
        assert dgp.GARCH_PERSISTENCE == (0.85, 0.74, 0.76)
        assert dgp.ARCH_COEF == (0.11, 0.19, 0.15)
        assert dgp.BURN_IN == 50

    def test_garch_stationary(self):
        for d, e in zip(dgp.GARCH_PERSISTENCE, dgp.ARCH_COEF):
            assert d + e < 1.0


class TestGenFactors:
    def test_zero_innovations_hit_fixed_points(self):
        # with zeta = 0: h -> c/(1-d), f -> a/(1-b)
        t = 200
        zeta = np.zeros((dgp.BURN_IN + t + 1, 3))
        out = gen_factors(t, FixedNormals(zeta))
        assert out.shape == (t, 3)
        expect = np.array([0.53 / 0.94, 0.19 / 0.81, 0.19 / 0.95])
        assert np.abs(out[-1] - expect).max() < 1e-6
        assert np.isclose(out[-1, 0], 0.56383, atol=1e-5)

    def test_deterministic_given_stream(self):
        a = gen_factors(50, rng=np.random.default_rng(7))
        b = gen_factors(50, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_marginal_mean(self):
        # long-path sample mean of factor 1 near the AR fixed point
        t = 100_000
        out = gen_factors(t, rng=np.random.default_rng(8))
        f1 = out[:, 0]
        se = f1.std() / np.sqrt(t)
        assert abs(f1.mean() - 0.53 / 0.94) < 3.0 * se + 0.01

    @pytest.mark.parametrize("t", [1, 60, 100, 120])
    def test_matches_vector_recursion(self, t):
        # the per-factor float recursion makes the same draw and the same
        # operations as the 3-vector loop, so the paths are bit-identical
        steps = dgp.BURN_IN + t + 1
        for seed in range(50):
            zeta = np.random.default_rng(seed).standard_normal((steps, 3))
            out = gen_factors(t, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(out, gen_factors_vector(t, zeta))
        fixed = np.linspace(-4.0, 4.0, 3 * steps).reshape(steps, 3)
        np.testing.assert_array_equal(gen_factors(t, FixedNormals(fixed)),
                                      gen_factors_vector(t, fixed))


class TestBuildCov:
    def test_m1_entries(self):
        sigma = build_cov("M1", 4, np.random.default_rng(0))
        idx = np.arange(4)
        assert np.allclose(sigma, 0.7 ** np.abs(idx[:, None] - idx[None, :]))

    def test_m3_worked_example(self):
        sigma = build_cov("M3", 2, np.random.default_rng(0))
        expect = np.array([[1.5625, -0.9375], [-0.9375, 1.5625]])
        assert np.abs(sigma - expect).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 40, 200, 1000])
    def test_m3_closed_form(self, n):
        # the Kac-Murdock-Szego inverse of 0.6**|i-j|: exactly symmetric and
        # tridiagonal, the dense inverse up to roundoff
        sigma = build_cov("M3", n, np.random.default_rng(0))
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :])
        assert np.array_equal(sigma, sigma.T)
        assert (sigma[dist > 1] == 0.0).all()
        scale = np.abs(sigma).max()
        assert np.abs(sigma - np.linalg.inv(0.6**dist)).max() <= 1e-15 * scale
        assert np.abs(sigma @ 0.6**dist - np.eye(n)).max() <= 1e-13

    @pytest.mark.parametrize("kind", dgp.COV_MODELS)
    @pytest.mark.parametrize("n", [2, 3, 40, 200])
    def test_exactly_symmetric(self, kind, n):
        sigma = dense_cov(kind, n, np.random.default_rng(n))
        assert np.array_equal(sigma, sigma.T)

    def test_m2_structure(self):
        n = 100
        sigma = dense_cov("M2", n, np.random.default_rng(1))
        d = np.diag(sigma)
        assert ((d >= 1.0) & (d <= 2.0)).all()
        corr = sigma / np.sqrt(np.outer(d, d))
        off = corr[~np.eye(n, dtype=bool)]
        n_spikes = int(n**0.3)
        expected_pairs = n_spikes * (n_spikes - 1)
        assert (np.abs(off) > 1e-12).sum() == expected_pairs
        nonzero = off[np.abs(off) > 1e-12]
        assert (nonzero >= 0.7**2 - 1e-9).all() and (nonzero <= 0.9**2 + 1e-9).all()

    def test_m4_positive_definite(self):
        sigma = build_cov("M4", 60, np.random.default_rng(2))
        assert np.linalg.eigvalsh(sigma)[0] > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 40, 500])
    def test_m4_rook_weights(self, n):
        # W[i, i +- 1] = 1/2 inside the chain, 1 toward the only neighbour
        # at either end; Sigma = gamma gamma' + (I - W/2)^-1 (I - W/2)^-T
        w = np.zeros((n, n))
        for i in range(1, n - 1):
            w[i, i - 1] = w[i, i + 1] = 0.5
        w[0, 1] = w[n - 1, n - 2] = 1.0
        rng = np.random.default_rng(3)
        gamma = np.zeros(n)
        n_spikes = int(n**0.3)
        gamma[:n_spikes] = rng.uniform(0.7, 0.9, size=n_spikes)
        inv = np.linalg.inv(np.eye(n) - 0.5 * w)
        expect = np.outer(gamma, gamma) + inv @ inv.T
        expect = (expect + expect.T) / 2.0
        assert np.array_equal(build_cov("M4", n, np.random.default_rng(3)), expect)

    def test_all_models_positive_definite(self):
        for n in (50, 100, 200, 300):
            for kind in ("M1", "M3"):
                sigma = build_cov(kind, n, np.random.default_rng(0))
                assert np.linalg.eigvalsh(sigma)[0] > 0, (kind, n)
            for kind in ("M2", "M4"):
                for seed in range(20):
                    sigma = dense_cov(kind, n, np.random.default_rng(seed))
                    assert np.linalg.eigvalsh(sigma)[0] > 0, (kind, n, seed)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_cov("M9", 10, np.random.default_rng(0))


class TestCovSqrt:
    def test_square_reproduces(self):
        sigma = build_cov("M1", 5, np.random.default_rng(0))
        root = cov_sqrt(sigma)
        assert np.abs(root @ root - sigma).max() < 1e-10
        assert np.allclose(root, root.T)

    def test_indefinite_raises(self):
        # the PD check of every covariance draw: eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cov_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_decoupled_nonpositive_variance_raises(self):
        # the check covers a decoupled row's eigenvalue too
        with pytest.raises(NotPositiveDefinite):
            cov_sqrt(np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, -1.0]]))

    @pytest.mark.parametrize("kind", dgp.COV_MODELS)
    @pytest.mark.parametrize("n", [2, 3, 10, 11, 32, 33, 200])
    def test_one_whole_eigh(self, eigen_calls, kind, n):
        # one eigh of the whole covariance (M2: of its block), rebuilt as
        # q sqrt(w) q' and symmetrized, bit for bit
        sigma = build_cov(kind, n, np.random.default_rng(n))
        root = cov_sqrt(sigma)
        calls = eigen_calls.shapes("eigh")
        dense = sigma.stack[0] if kind == "M2" else sigma
        w, q = sym_eigen(dense)
        want = (q * np.sqrt(w)) @ q.T
        np.testing.assert_array_equal(root.stack[0] if kind == "M2" else root,
                                      (want + want.T) / 2.0)
        assert calls == [sigma.stack.shape if kind == "M2" else dense.shape]

    def test_m2_root_stays_on_the_spikes(self):
        n = 500
        sigma = dense_cov("M2", n, np.random.default_rng(2))
        spikes = np.flatnonzero(np.count_nonzero(sigma, axis=1) > 1)
        assert spikes.size == int(n**dgp.SPIKE_EXPONENT)
        root = np.asarray(cov_sqrt(build_cov("M2", n, np.random.default_rng(2))))
        outside = ~np.eye(n, dtype=bool)
        outside[np.ix_(spikes, spikes)] = False
        assert (root[outside] == 0.0).all()
        assert np.abs(root @ root - sigma).max() <= 1e-12 * np.abs(sigma).max()


M2_SIZES = [2, 3, 40, 500, 1000]  # N=2 and 3 have one spike, decoupled


class TestM2BlockForm:
    @pytest.mark.parametrize("n", M2_SIZES)
    def test_draw_matches_dense(self, n):
        for seed in range(5):
            block = build_cov("M2", n, np.random.default_rng(seed))
            dense = dense_m2_cov(n, np.random.default_rng(seed))
            np.testing.assert_array_equal(np.asarray(block), dense)
            assert block.slots.shape == (1, int(n**dgp.SPIKE_EXPONENT))

    @pytest.mark.parametrize("n", M2_SIZES)
    def test_root_matches_dense_root(self, n):
        for seed in range(5):
            sigma = build_cov("M2", n, np.random.default_rng(seed))
            root = cov_sqrt(sigma)
            assert isinstance(root, BlockDiagonal)
            # the spike block is rooted as a dense matrix is, bit for bit,
            # every other row in closed form
            np.testing.assert_array_equal(root.slots, sigma.slots)
            w, q = sym_eigen(sigma.stack[0])
            want = (q * np.sqrt(w)) @ q.T
            np.testing.assert_array_equal(root.stack[0], (want + want.T) / 2.0)
            np.testing.assert_array_equal(root.diag, np.sqrt(sigma.diag))

    @pytest.mark.parametrize("dist", dgp.ERROR_DISTS)
    def test_errors_match_dense_product(self, dist):
        # decoupled rows are one product per entry either way; spike rows
        # may round differently in the last bits
        n, t = 500, 100
        root = cov_sqrt(build_cov("M2", n, np.random.default_rng(6)))
        block = gen_errors(root, dist, t, np.random.default_rng(7))
        dense = gen_errors(np.asarray(root), dist, t, np.random.default_rng(7))
        spikes = root.slots[0]
        free = np.delete(np.arange(n), spikes)
        np.testing.assert_array_equal(block[free], dense[free])
        scale = np.abs(dense[spikes]).max()
        assert np.abs(block[spikes] - dense[spikes]).max() <= 1e-12 * scale

    def test_indefinite_block_raises(self):
        sigma = BlockDiagonal(np.ones(4), np.array([[1, 2]]),
                              np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        with pytest.raises(NotPositiveDefinite):
            cov_sqrt(sigma)

    def test_nonpositive_diagonal_raises(self):
        block = np.array([[2.0, 0.5], [0.5, 2.0]])
        sigma = BlockDiagonal(np.array([2.0, 2.0, -1.0]), np.array([[0, 1]]), block[None])
        with pytest.raises(NotPositiveDefinite):
            cov_sqrt(sigma)

    def test_large_panel_stays_small(self, eigen_calls):
        # one N x N array at N=2000 is 32 MB; the eigenproblem is the spike block
        n = 2000
        scenario = ScenarioConfig(n=n, t=100, cov_model="M2", error_dist="t5_scaled")
        simulate_panel(ScenarioConfig(n=40, t=100, cov_model="M2"), 1, 0)  # warm-up
        tracemalloc.start()
        try:
            simulate_panel(scenario, 3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        widths = [shape[-1] for shape in eigen_calls.shapes("eigh")]
        assert widths and max(widths) <= int(n**dgp.SPIKE_EXPONENT)


class TestGenErrors:
    @pytest.mark.parametrize("dist", ["normal", "t5_scaled", "mixture_scaled"])
    def test_unit_variance(self, dist):
        rng = np.random.default_rng(3)
        z = gen_errors(np.eye(1000), dist, 1000, rng)
        assert abs(z.var() - 1.0) < 0.02

    def test_covariance_matches(self):
        n, t = 10, 100_000
        sigma = build_cov("M1", n, np.random.default_rng(0))
        eps = gen_errors(cov_sqrt(sigma), "normal", t, np.random.default_rng(4))
        assert np.abs(np.cov(eps) - sigma).max() < 0.05

    def test_unknown_dist(self):
        with pytest.raises(ValueError):
            gen_errors(np.eye(2), "cauchy", 10, np.random.default_rng(0))


class TestGenBetas:
    def test_bounds_and_means(self):
        b = gen_betas(100_000, np.random.default_rng(5))
        lows = np.array([0.2, -1.0, -1.5])
        highs = np.array([2.0, 1.5, 1.5])
        assert (b >= lows).all() and (b <= highs).all()
        assert abs(b[:, 1].mean() - 0.25) < 0.02


class TestGenAlpha:
    def test_worked_example(self):
        alpha = gen_alpha(200, 1, 100, rng=np.random.default_rng(6))
        nonzero = alpha[alpha != 0]
        assert nonzero.size == 1
        assert np.isclose(nonzero[0], 0.72790, atol=1e-5)

    def test_null(self):
        alpha = gen_alpha(50, 0, 100)
        assert alpha.shape == (50,)
        assert not alpha.any()

    def test_signal_strength_invariant_in_m(self):
        a1 = gen_alpha(200, 1, 100, rng=np.random.default_rng(7))
        a20 = gen_alpha(200, 20, 100, rng=np.random.default_rng(7))
        assert np.count_nonzero(a1) == 1 and np.count_nonzero(a20) == 20
        assert np.isclose(a1 @ a1, a20 @ a20, atol=1e-12)

    def test_fixed_support(self):
        alpha = gen_alpha(10, 3, 100, support=np.array([9, 0, 4]))
        assert np.array_equal(np.flatnonzero(alpha), [0, 4, 9])
        assert (alpha[[0, 4, 9]] > 0).all()

    def test_bad_m(self):
        with pytest.raises(ValueError):
            gen_alpha(5, 6, 100, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("support,message", [
        ([3, 3], r"^support must be m distinct rows in 0\.\.9, got \[3, 3\]$"),
        ([-1], r"^support must be m distinct rows in 0\.\.9, got \[-1\]$"),
        ([2, 10], r"^support must be m distinct rows in 0\.\.9, got \[2, 10\]$"),
        ([0.5, 1.7], r"^support must be m distinct rows in 0\.\.9, got \[0\.5, 1\.7\]$"),
        ([2.0], r"^support must be m distinct rows in 0\.\.9, got \[2\.0\]$"),
        (np.array([False, True]),
         r"^support must be m distinct rows in 0\.\.9, got \[False, True\]$"),
    ], ids=["duplicate", "negative", "past_n", "fractional", "float", "bool_mask"])
    def test_bad_support(self, support, message):
        with pytest.raises(ValueError, match=message):
            gen_alpha(10, len(support), 100, support=support)


class TestAssemblePanel:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(8)
        n, t = 5, 30
        factors = gen_factors(t, rng=rng)
        betas = gen_betas(n, rng)
        alpha = np.linspace(-0.5, 0.5, n)
        errors = np.zeros((n, t))
        panel = assemble_panel(alpha, betas, factors, errors)
        np.testing.assert_array_equal(panel.returns,
                                      alpha[:, None] + betas @ factors.T + errors)
        np.testing.assert_array_equal(panel.factors, factors)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            assemble_panel(np.zeros(3), np.zeros((3, 3)), np.zeros((10, 3)),
                           np.zeros((4, 10)))

    def test_deterministic(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            factors = gen_factors(40, rng=rng)
            betas = gen_betas(6, rng)
            errors = gen_errors(np.eye(6), "normal", 40, rng)
            alpha = gen_alpha(6, 2, 40, rng=rng)
            return assemble_panel(alpha, betas, factors, errors)

        assert np.array_equal(build(9).returns, build(9).returns)

    def test_alpha_recovery_improves_with_t(self):
        # rms error of planted alpha shrinks as the sample lengthens
        def rms(t, seed):
            rng = np.random.default_rng(seed)
            n = 20
            factors = gen_factors(t, rng=rng)
            betas = gen_betas(n, rng)
            errors = gen_errors(np.eye(n), "normal", t, rng)
            alpha = np.full(n, 0.3)
            panel = assemble_panel(alpha, betas, factors, errors)
            return float(np.sqrt(np.mean((fit(panel).alpha_hat - alpha) ** 2)))

        assert rms(800, 10) < rms(100, 10)
