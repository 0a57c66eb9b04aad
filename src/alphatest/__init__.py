"""Alpha tests for high-dimensional linear factor pricing models.

Library layout:

* :mod:`alphatest.linalg` - symmetric eigendecomposition, annihilator
  projections, matrix inverse square roots, PSD repair.
* :mod:`alphatest.ols` - per-security OLS fits and intercept t-ratios.
* :mod:`alphatest.dependence` - thresholded residual covariance,
  correlation precision root, multiple-testing correlation summary; the
  estimate is held in block form, repair and root on the active rows.
* :mod:`alphatest.alpha_tests` - the PY, MAX1, MAX2, FC1, FC2 statistics,
  p-values and decisions.
* :mod:`alphatest.dgp` - synthetic factor/error/alpha generation.
* :mod:`alphatest.harness` - replicated size and power experiments.
* :mod:`alphatest.cli` - the ``alphatest`` command-line entry point.
"""

from .alpha_tests import METHODS, TestConfig, TestResult, run_all, run_all_detailed
from .dgp import AlphaSpec
from .harness import (
    ExperimentSpec,
    ScenarioConfig,
    SizePowerTable,
    run_experiment,
    run_power_curve,
    summarize,
)
from .ols import FactorPanel, OlsFit, fit, t_ratios

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "TestConfig",
    "TestResult",
    "run_all",
    "run_all_detailed",
    "AlphaSpec",
    "ExperimentSpec",
    "ScenarioConfig",
    "SizePowerTable",
    "run_experiment",
    "run_power_curve",
    "summarize",
    "FactorPanel",
    "OlsFit",
    "fit",
    "t_ratios",
]
