"""The five alpha tests: MAX1, MAX2, PY, FC1 and FC2.

MAX1 is the maximum squared t-ratio; MAX2 takes the maximum after
decorrelating the t-ratio vector with the estimated inverse correlation
root.  Both are calibrated against a type I extreme value (Gumbel) limit.
PY is the standardized sum of squared t-ratios with a one-sided normal
calibration.  FC1 and FC2 are Fisher combinations of the sum p-value with
the MAX1 (resp. MAX2) p-value, calibrated against chi-square with 4
degrees of freedom and an inflated finite-sample critical value.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw, ndtr, ndtri

from .dependence import estimate_dependence, mt_rho_bar_sq
from .errors import DegenerateDof, NegativeInput
from .ols import FactorPanel, fit

__all__ = [
    "TestConfig",
    "TestResult",
    "max_stat",
    "gumbel_cdf",
    "gumbel_quantile",
    "max_p_value",
    "py_stat",
    "py_p_value",
    "chisq4_sf",
    "chisq4_quantile",
    "fisher_combine",
    "adjusted_critical",
    "run_all",
    "run_all_detailed",
]

P_FLOOR = 1e-300  # p-values are clamped here before logs

METHODS = ("PY", "MAX1", "MAX2", "FC1", "FC2")


@dataclass(frozen=True)
class TestConfig:
    """Tuning knobs shared by the full test pipeline."""

    gamma: float = 0.05
    threshold_delta: float = 3.0
    q_mt: float = 0.05
    delta_mt: float = 1.0
    use_adjusted_critical: bool = True


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    reject: bool
    gamma: float
    critical_value: float


def max_stat(t: np.ndarray) -> float:
    """Maximum squared t-ratio."""
    return float(np.max(np.asarray(t, dtype=float) ** 2))


def gumbel_cdf(x: float) -> float:
    """CDF of the max-statistic limit law exp(-exp(-x/2)/sqrt(pi))."""
    return math.exp(-math.exp(-x / 2.0) / math.sqrt(math.pi))


def gumbel_quantile(gamma: float) -> float:
    """Upper-gamma critical value of the limit law.

    Satisfies ``gumbel_cdf(q) == 1 - gamma``.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return -math.log(math.pi) - 2.0 * math.log(-math.log(1.0 - gamma))


def max_p_value(m: float, n: int) -> float:
    """p-value of a max statistic after recentering by 2*log(N) - loglog(N)."""
    if n < 3:
        raise ValueError(f"need N >= 3, got {n}")
    centered = m - 2.0 * math.log(n) + math.log(math.log(n))
    p = 1.0 - gumbel_cdf(centered)
    return min(max(p, P_FLOOR), 1.0)


def py_stat(t: np.ndarray, rho_bar_sq: float, v: int) -> float:
    """Standardized sum of squared t-ratios.

    The numerator centers each squared t-ratio at its Student-t mean
    v/(v-2); the denominator scales by the Student-t variance and the
    dependence correction 1 + (N-1) * rho_bar_sq.
    """
    if v <= 4:
        raise DegenerateDof(f"need v > 4, got {v}")
    t = np.asarray(t, dtype=float)
    n = t.size
    mean = v / (v - 2.0)
    numerator = np.sum(t**2 - mean) / np.sqrt(n)
    denominator = mean * np.sqrt(
        2.0 * (v - 1.0) / (v - 4.0) * (1.0 + (n - 1.0) * rho_bar_sq)
    )
    return float(numerator / denominator)


def py_p_value(stat: float) -> float:
    """One-sided (upper-tail) normal p-value."""
    p = 1.0 - float(ndtr(stat))
    return min(max(p, P_FLOOR), 1.0)


def chisq4_sf(x: float) -> float:
    """Survival function of chi-square with 4 dof: exp(-x/2) * (1 + x/2)."""
    if x < 0:
        raise NegativeInput(f"chi-square support is x >= 0, got {x}")
    return math.exp(-x / 2.0) * (1.0 + x / 2.0)


def chisq4_quantile(gamma: float) -> float:
    """Upper-gamma quantile of chi-square with 4 dof, via Lambert W_{-1}."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return -2.0 * (1.0 + float(lambertw(-gamma / math.e, -1).real))


def fisher_combine(p_a: float, p_b: float) -> float:
    """Fisher combination -2*log(p_a) - 2*log(p_b) of two p-values."""
    p_a = min(max(p_a, P_FLOOR), 1.0)
    p_b = min(max(p_b, P_FLOOR), 1.0)
    return -2.0 * math.log(p_a) - 2.0 * math.log(p_b)


def adjusted_critical(t: int, n: int, gamma: float) -> float:
    """Finite-sample inflated chi-square(4) critical value.

    Multiplies the asymptotic upper-gamma quantile by
    ``1 + 1 / log(T * sqrt(N))``; the factor shrinks to 1 as the sample
    grows.
    """
    scale = t * math.sqrt(n)
    if scale <= math.e:
        raise ValueError(f"T * sqrt(N) must exceed e, got {scale}")
    return (1.0 + 1.0 / math.log(scale)) * chisq4_quantile(gamma)


def run_all(panel: FactorPanel, config: TestConfig = TestConfig()) -> list[TestResult]:
    """Run the full pipeline and return all five test results.

    Order is PY, MAX1, MAX2, FC1, FC2.  PY and the max tests reject when
    their p-value is below gamma; the Fisher combinations reject when the
    statistic exceeds the (adjusted) chi-square(4) critical value.
    """
    results, _ = run_all_detailed(panel, config)
    return results


def run_all_detailed(
    panel: FactorPanel, config: TestConfig = TestConfig()
) -> tuple[list[TestResult], dict]:
    """Like :func:`run_all`, also returning pipeline diagnostics."""
    n = panel.n_securities
    t_periods = panel.n_periods
    gamma = config.gamma

    fit_result = fit(panel)
    t = fit_result.t_stats
    v = fit_result.dof
    dep = estimate_dependence(
        fit_result.residuals, v, t_periods, delta=config.threshold_delta
    )
    mt = mt_rho_bar_sq(dep.corr, v, q_mt=config.q_mt, delta_mt=config.delta_mt)

    py = py_stat(t, mt.rho_bar_sq, v)
    p_sum = py_p_value(py)

    m1 = max_stat(t)
    m2 = max_stat(dep.standardize(t))
    p_max1 = max_p_value(m1, n)
    p_max2 = max_p_value(m2, n)

    fc1 = fisher_combine(p_sum, p_max1)
    fc2 = fisher_combine(p_sum, p_max2)
    if config.use_adjusted_critical:
        fc_crit = adjusted_critical(t_periods, n, gamma)
    else:
        fc_crit = chisq4_quantile(gamma)

    z_gamma = float(ndtri(1.0 - gamma))
    max_crit = gumbel_quantile(gamma)
    center = 2.0 * math.log(n) - math.log(math.log(n))

    results = [
        TestResult("PY", py, p_sum, p_sum < gamma, gamma, z_gamma),
        TestResult("MAX1", m1, p_max1, p_max1 < gamma, gamma, center + max_crit),
        TestResult("MAX2", m2, p_max2, p_max2 < gamma, gamma, center + max_crit),
        TestResult("FC1", fc1, chisq4_sf(fc1), fc1 > fc_crit, gamma, fc_crit),
        TestResult("FC2", fc2, chisq4_sf(fc2), fc2 > fc_crit, gamma, fc_crit),
    ]
    diagnostics = {
        "N": n,
        "T": t_periods,
        "p": panel.n_factors,
        "v": v,
        "threshold_used": dep.threshold_used,
        "coupled": dep.active.size,
        "repaired": dep.repaired,
        "mt_survivors": mt.survivors,
        "rho_bar_sq": mt.rho_bar_sq,
        "gamma": gamma,
    }
    return results, diagnostics
