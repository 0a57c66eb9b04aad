"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible with ``pytest -v`` or in the
captured output) and asserts the stated tolerance.  The replicated null
batches come from the session fixtures in conftest.py.
"""

import math

import numpy as np
import pytest

from alphatest.alpha_tests import (
    METHODS,
    adjusted_critical,
    chisq4_sf,
    gumbel_cdf,
    gumbel_quantile,
    py_stat,
)
from alphatest.dependence import correlation_from_cov, precision_root, sample_cov
from alphatest.dgp import (
    assemble_panel,
    build_cov,
    cov_sqrt,
    gen_alpha,
    gen_betas,
    gen_errors,
    gen_factors,
)
from alphatest.harness import (
    ExperimentSpec,
    ScenarioConfig,
    run_experiment,
    run_power_curve,
    table_to_csv,
)
from alphatest.linalg import annihilator
from alphatest.ols import FactorPanel, fit
from alphatest import rng as streams
from dense_reference import thresholded_dense

pytestmark = pytest.mark.acceptance

CENTER_200 = 2.0 * math.log(200) - math.log(math.log(200))


def check(cid, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {cid}] {status}: {description} -- {detail}")
    assert ok, f"criterion {cid}: {description} -- {detail}"


# --- criteria 1-2: Table-1 size reproduction ---------------------------------

TABLE1_M3 = {"PY": 5.4, "MAX1": 5.5, "MAX2": 5.4, "FC1": 5.0, "FC2": 4.9}
TABLE1_M1 = {"PY": (7.9, 2.5), "MAX2": (4.8, 2.0), "FC2": (6.6, 2.0)}


def test_criterion_1_model3_sizes(m3_null_details):
    first_1000 = m3_null_details[:1000]
    lines = []
    ok = True
    for name in METHODS:
        rate = 100.0 * np.mean([d[name].reject for d in first_1000])
        target = TABLE1_M3[name]
        ok &= abs(rate - target) <= 2.0
        lines.append(f"{name} {rate:.1f} (ref {target})")
    check(1, "Model 3 / normal sizes within ±2.0pp of reference", ok,
          "; ".join(lines))


def test_criterion_2_model1_sizes(m1_null_rejections):
    lines = []
    ok = True
    for name, (target, tol) in TABLE1_M1.items():
        rate = 100.0 * np.mean(m1_null_rejections[name])
        ok &= abs(rate - target) <= tol
        lines.append(f"{name} {rate:.1f} (ref {target}±{tol})")
    check(2, "Model 1 / normal sizes within tolerance of reference", ok,
          "; ".join(lines))


# --- criterion 3: Gumbel null law in oracle mode -----------------------------


def test_criterion_3_gumbel_null_law():
    rng = np.random.default_rng(12345)
    draws = 5000
    z = rng.standard_normal((draws, 200))
    m = (z**2).max(axis=1)
    centered = np.sort(m - CENTER_200)
    cdf = np.array([gumbel_cdf(x) for x in centered])
    grid_hi = np.arange(1, draws + 1) / draws
    grid_lo = np.arange(draws) / draws
    ks = max(np.abs(cdf - grid_hi).max(), np.abs(cdf - grid_lo).max())
    check(3, "centered max of iid squared normals vs extreme-value law",
          ks <= 0.05, f"KS {ks:.4f} <= 0.05")


# --- criterion 4: chi-square(4) law of the FC2 statistic ---------------------


def test_criterion_4_fc2_null_law(m3_null_details):
    stats = np.sort([d["FC2"].statistic for d in m3_null_details])
    n = stats.size
    cdf = 1.0 - np.array([chisq4_sf(s) for s in stats])
    ks = max(np.abs(cdf - np.arange(1, n + 1) / n).max(),
             np.abs(cdf - np.arange(n) / n).max())
    check(4, "FC2 null statistic vs chi-square(4)", ks <= 0.06,
          f"KS {ks:.4f} <= 0.06 over {n} replications")


# --- criterion 5: asymptotic independence of sum and max ---------------------

ORACLE_DRAWS, ORACLE_SEED = 20000, 11


def _fisher_z(corr, n):
    """Fisher z-transform of a Pearson correlation and its standard error."""
    return math.atanh(corr), 1.0 / math.sqrt(n - 3)


def _sum_max_corr(details):
    # centering the max by 2 log N - log log N does not change a correlation
    py = np.array([d["PY"].statistic for d in details])
    mx = np.array([d["MAX2"].statistic for d in details])
    return float(np.corrcoef(py, mx)[0, 1])


def _known_cov_sum_max_corr(n, draws, seed):
    """Null sum/max correlation with no estimation: the sum and the max of
    the same squared N(0, R) coordinates, R Model 3's true correlation."""
    sigma = build_cov("M3", n, np.random.default_rng(0))
    root = cov_sqrt(correlation_from_cov(sigma))
    z = np.random.default_rng(seed).standard_normal((draws, n)) @ root
    sq = z**2
    return float(np.corrcoef(sq.sum(axis=1), sq.max(axis=1))[0, 1])


def test_criterion_5_correlation(m3_null_details, m3_null_details_n50):
    # Independence of the sum and the max holds only as N -> infinity: the
    # correlation of a sum and a max of squares decays slowly in N (for the
    # same squared N(0, R) coordinates under Model 3, about 0.61 at N=50,
    # 0.43 at N=200 and 0.26 at N=1000), so no bound near 0 can hold at
    # N=200.  Check the direction of the limit instead, and that the
    # estimated pipeline adds no dependence beyond that known-covariance
    # value.  Both bounds are three Monte Carlo standard errors on the
    # Fisher z scale.
    corr_200 = _sum_max_corr(m3_null_details)
    corr_50 = _sum_max_corr(m3_null_details_n50)
    corr_oracle = _known_cov_sum_max_corr(200, ORACLE_DRAWS, ORACLE_SEED)
    z_200, se_200 = _fisher_z(corr_200, len(m3_null_details))
    z_50, se_50 = _fisher_z(corr_50, len(m3_null_details_n50))
    z_oracle, se_oracle = _fisher_z(corr_oracle, ORACLE_DRAWS)
    drop, se_drop = z_50 - z_200, math.hypot(se_50, se_200)
    excess, se_excess = z_200 - z_oracle, math.hypot(se_200, se_oracle)
    ok = drop > 3.0 * se_drop and excess <= 3.0 * se_excess
    check("5a", "null sum/max correlation falls from N=50 to N=200 and "
          "stays within the known-covariance value", ok,
          f"corr N=200 {corr_200:.4f}, N=50 {corr_50:.4f}, "
          f"oracle N=200 {corr_oracle:.4f} ({ORACLE_DRAWS} draws); "
          f"z drop {drop:.4f} > 3se {3.0 * se_drop:.4f}; "
          f"z excess over oracle {excess:+.4f} <= 3se {3.0 * se_excess:.4f}")


def test_criterion_5_joint_vs_product(m3_null_details):
    py = np.array([d["PY"].reject for d in m3_null_details], dtype=float)
    mx = np.array([d["MAX2"].reject for d in m3_null_details], dtype=float)
    diff = abs(float((py * mx).mean()) - float(py.mean() * mx.mean()))
    check("5b", "null joint rejection frequency vs product of marginals",
          diff <= 0.01, f"|joint - product| {diff:.4f} <= 0.01")


# --- criterion 6: power orderings --------------------------------------------


@pytest.fixture(scope="module")
def m1_power_rates():
    scenario = ScenarioConfig(n=200, t=100, cov_model="M1", error_dist="normal",
                              seed=606, reps=500)
    table = run_power_curve(ExperimentSpec(scenario=scenario, m_grid=(1, 2, 3)))
    return {(r.method, r.m): r.rate for r in table.rows}


@pytest.fixture(scope="module")
def m2_power_rates():
    scenario = ScenarioConfig(n=200, t=100, cov_model="M2", error_dist="normal",
                              m=20, seed=607, reps=500)
    table = run_experiment(ExperimentSpec(scenario=scenario))
    return {r.method: r.rate for r in table.rows}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_criterion_6a_standardized_max_beats_plain_max(m1_power_rates, m):
    # gen_alpha holds ||alpha||^2 = 10 log N / T, so at m=1 the single signal
    # has t ~ 7 and MAX1 already rejects almost always.  Power cannot pass 1:
    # where MAX1 leaves less than 0.05 of headroom, MAX2 must reach full power.
    max2, max1 = m1_power_rates[("MAX2", m)], m1_power_rates[("MAX1", m)]
    gap, headroom = max2 - max1, 1.0 - max1
    check("6a", f"Model 1, m={m}: power(MAX2) >= min(power(MAX1) + 0.05, 1)",
          gap >= min(0.05, headroom),
          f"MAX2 {max2:.3f}, MAX1 {max1:.3f}, gap {gap:+.3f}, "
          f"MAX1 headroom {headroom:.3f}")


def test_criterion_6b_sum_wins_dense(m2_power_rates):
    py, mx = m2_power_rates["PY"], m2_power_rates["MAX2"]
    check("6b", "Model 2, m=20: power(PY) >= power(MAX2) - 0.02",
          py >= mx - 0.02, f"PY {py:.3f}, MAX2 {mx:.3f}")


def test_criterion_6c_combination_tracks_best(m1_power_rates, m2_power_rates):
    lines = []
    ok = True
    for m in (1, 2, 3):
        best = max(m1_power_rates[("PY", m)], m1_power_rates[("MAX2", m)])
        fc2 = m1_power_rates[("FC2", m)]
        ok &= fc2 >= best - 0.05
        lines.append(f"M1 m={m}: FC2 {fc2:.3f} vs best {best:.3f}")
    best = max(m2_power_rates["PY"], m2_power_rates["MAX2"])
    fc2 = m2_power_rates["FC2"]
    ok &= fc2 >= best - 0.05
    lines.append(f"M2 m=20: FC2 {fc2:.3f} vs best {best:.3f}")
    check("6c", "FC2 within 0.05 of the best of PY and MAX2 everywhere", ok,
          "; ".join(lines))


# --- criterion 7: consistency direction of the standardized max --------------


def _max2_rate_single_signal(t, reps, seed):
    n = 200
    sigma = build_cov("M1", n, np.random.default_rng(0))
    root = cov_sqrt(sigma)
    alpha = np.zeros(n)
    alpha[0] = math.sqrt(8.0 * 2.0 * math.log(n) / t) * math.sqrt(sigma[0, 0])
    rejects = 0
    for rep in range(reps):
        factors = gen_factors(
            t, rng=streams.substream(seed, 1, rep, streams.FACTORS))
        errors = gen_errors(
            root, "normal", t, streams.substream(seed, 1, rep, streams.ERRORS))
        betas = gen_betas(n, streams.substream(seed, 1, rep, streams.BETAS))
        panel = assemble_panel(alpha, betas, factors, errors)
        from alphatest.alpha_tests import run_all

        results = {r.name: r for r in run_all(panel)}
        rejects += results["MAX2"].reject
    return rejects / reps


def test_criterion_7_consistency_direction():
    reps, seed = 500, 777
    rate_100 = _max2_rate_single_signal(100, reps, seed)
    rate_400 = _max2_rate_single_signal(400, reps, seed)
    ok = rate_100 >= 0.95 and rate_400 >= rate_100
    check(7, "single strong signal: MAX2 power >= 0.95 and grows with T", ok,
          f"rate(T=100) {rate_100:.3f}, rate(T=400) {rate_400:.3f}")


# --- criterion 8: oracle equivalences and worked numerics --------------------


def test_criterion_8_t_ratio_oracle():
    rng = np.random.default_rng(88)
    n, t, p = 8, 30, 3
    f = rng.standard_normal((t, p))
    y = rng.standard_normal((n, t))
    result = fit(FactorPanel(returns=y, factors=f))
    x = np.column_stack([np.ones(t), f])
    xtx_inv = np.linalg.inv(x.T @ x)
    v = t - p - 1
    worst = 0.0
    for i in range(n):
        coef = xtx_inv @ x.T @ y[i]
        resid = y[i] - x @ coef
        s2 = resid @ resid / v
        t_oracle = coef[0] / math.sqrt(s2 * xtx_inv[0, 0])
        worst = max(worst, abs(result.t_stats[i] - t_oracle))
    check("8a", "t-ratios match the full-design regression oracle",
          worst < 1e-9, f"max diff {worst:.2e} < 1e-9")


def test_criterion_8_precision_root_identity():
    rng = np.random.default_rng(89)
    e = rng.standard_normal((20, 400))
    sigma = sample_cov(e, 396)
    thresholded, _ = thresholded_dense(sigma, 400, 3.0)
    r_hat = correlation_from_cov(thresholded)
    root = precision_root(r_hat, floor=1e-8)
    err = np.abs(root @ r_hat @ root - np.eye(20)).max()
    check("8b", "inverse correlation root recovers the identity",
          err < 1e-6, f"max |root R root - I| {err:.2e} < 1e-6")


def test_criterion_8_annihilator_properties():
    rng = np.random.default_rng(90)
    f = rng.standard_normal((60, 3))
    m = annihilator(f)
    idem = np.abs(m @ m - m).max()
    orth = np.abs(m @ f).max()
    check("8c", "annihilator idempotence and factor orthogonality",
          idem < 1e-10 and orth < 1e-10,
          f"idempotence {idem:.2e}, orthogonality {orth:.2e}")


WORKED = [
    ("py_stat", 0.81650,
     lambda: py_stat(np.array([math.sqrt(2.0), math.sqrt(3.0)]), 0.0, 10)),
    # scipy.stats.gumbel_r.isf(0.05, loc=-log(pi), scale=2) = 4.795660612...
    ("gumbel_quantile", 4.79566, lambda: gumbel_quantile(0.05)),
    # scipy.stats.chi2.isf(0.05, 4) * (1 + 1/log(100*sqrt(200))) = 10.795600...
    ("adjusted_critical", 10.79560, lambda: adjusted_critical(100, 200, 0.05)),
    ("gen_alpha", 0.72790,
     lambda: float(gen_alpha(200, 1, 100, support=np.array([0]))[0])),
]


@pytest.mark.parametrize("name,expected,compute", WORKED,
                         ids=[w[0] for w in WORKED])
def test_criterion_8_worked_values(name, expected, compute):
    value = compute()
    check("8d", f"worked value of {name}", abs(value - expected) <= 1e-4,
          f"got {value:.6f}, expected {expected}")


# --- criterion 9: schedule-independent determinism ---------------------------


def test_criterion_9_determinism_across_workers():
    scenario = ScenarioConfig(n=50, t=60, cov_model="M2", error_dist="normal",
                              m=2, reps=40, seed=909)
    spec = ExperimentSpec(scenario=scenario)
    csv_1 = table_to_csv(run_experiment(spec, workers=1))
    csv_2 = table_to_csv(run_experiment(spec, workers=2))
    check(9, "identical CSV bytes across worker counts", csv_1 == csv_2,
          f"{len(csv_1)} bytes each")
