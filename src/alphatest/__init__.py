"""Alpha tests for high-dimensional linear factor pricing models.

Library layout:

* :mod:`alphatest.ols` - the checked QR of the design [F, 1] and the
  factors' annihilator; per-security OLS fits read off that QR: intercepts,
  residuals and intercept t-ratios.
* :mod:`alphatest.linalg` - symmetric eigendecomposition, inverse square
  roots and PSD repair on a component stack.
* :mod:`alphatest.dependence` - thresholded residual correlation,
  its precision root, multiple-testing correlation summary; threshold,
  repair and root are one stack of connected components end to end.
* :mod:`alphatest.alpha_tests` - the PY, MAX1, MAX2, FC1, FC2 statistics,
  p-values and decisions.
* :mod:`alphatest.dgp` - synthetic factor/error/alpha generation.
* :mod:`alphatest.harness` - replicated size and power experiments.
* :mod:`alphatest.cli` - the ``alphatest`` command-line entry point.
"""

from .alpha_tests import METHODS, TestConfig, TestResult, run_all, run_all_detailed
from .harness import (
    ExperimentSpec,
    ScenarioConfig,
    SizePowerTable,
    run_experiment,
    run_power_curve,
    summarize,
)
from .ols import FactorPanel, OlsFit, fit

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "TestConfig",
    "TestResult",
    "run_all",
    "run_all_detailed",
    "ExperimentSpec",
    "ScenarioConfig",
    "SizePowerTable",
    "run_experiment",
    "run_power_curve",
    "summarize",
    "FactorPanel",
    "OlsFit",
    "fit",
]
