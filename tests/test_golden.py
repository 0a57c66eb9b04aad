"""Seeded golden outputs of the harness and the command line.

The CSV tables and statistics below were recorded before the harness
became the single panel simulator (`harness.simulate_panel`) and the
single replication path.  They pin every replication stream, the data
generator and the five statistics: a refactor of either must leave them
byte-identical.  The scenarios are small (N=40, T=60) and cover all four
covariance models, the three error laws, the `freezeCov`, `fixedSupport`
and `sharedFactors` flags and non-default test knobs (a threshold
constant of 1.0 keeps off-diagonal correlations, so MAX2 differs from
MAX1).
"""

import json

import numpy as np
import pytest

from alphatest.alpha_tests import TestConfig as Config
from alphatest.cli import EXIT_OK, main
from alphatest.harness import (
    ExperimentSpec,
    ScenarioConfig,
    replicate_details,
    run_experiment,
    run_power_curve,
    table_to_csv,
)

SIZE_TABLES = [
    (
        ScenarioConfig(n=40, t=60, cov_model="M1", error_dist="normal", m=0, reps=60,
                       seed=21, test=Config(threshold_delta=1.0)),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M1,normal,40,60,0,60,0.100000,0.038730
MAX1,M1,normal,40,60,0,60,0.066667,0.032203
MAX2,M1,normal,40,60,0,60,0.050000,0.028137
FC1,M1,normal,40,60,0,60,0.116667,0.041444
FC2,M1,normal,40,60,0,60,0.083333,0.035681
""",
    ),
    (
        ScenarioConfig(n=40, t=60, cov_model="M2", error_dist="t5_scaled", m=0, reps=60,
                       seed=22, freeze_cov=True,
                       test=Config(gamma=0.1, threshold_delta=1.0)),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M2,t5_scaled,40,60,0,60,0.116667,0.041444
MAX1,M2,t5_scaled,40,60,0,60,0.166667,0.048113
MAX2,M2,t5_scaled,40,60,0,60,0.266667,0.057090
FC1,M2,t5_scaled,40,60,0,60,0.133333,0.043885
FC2,M2,t5_scaled,40,60,0,60,0.183333,0.049954
""",
    ),
    (
        ScenarioConfig(n=40, t=60, cov_model="M3", error_dist="mixture_scaled", m=0,
                       reps=60, seed=23, shared_factors=True),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M3,mixture_scaled,40,60,0,60,0.066667,0.032203
MAX1,M3,mixture_scaled,40,60,0,60,0.033333,0.023174
MAX2,M3,mixture_scaled,40,60,0,60,0.033333,0.023174
FC1,M3,mixture_scaled,40,60,0,60,0.050000,0.028137
FC2,M3,mixture_scaled,40,60,0,60,0.050000,0.028137
""",
    ),
    (
        ScenarioConfig(n=40, t=60, cov_model="M4", error_dist="normal", m=2, reps=60,
                       seed=24, fixed_support=True,
                       test=Config(threshold_delta=1.0, use_adjusted_critical=False)),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M4,normal,40,60,2,60,0.583333,0.063647
MAX1,M4,normal,40,60,2,60,0.766667,0.054603
MAX2,M4,normal,40,60,2,60,0.983333,0.016527
FC1,M4,normal,40,60,2,60,0.816667,0.049954
FC2,M4,normal,40,60,2,60,0.966667,0.023174
""",
    ),
]

POWER_TABLES = [
    (
        ScenarioConfig(n=40, t=60, cov_model="M2", error_dist="normal", reps=30,
                       seed=25, test=Config(threshold_delta=1.0, q_mt=0.1)),
        (1, 4),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M2,normal,40,60,1,30,0.600000,0.089443
PY,M2,normal,40,60,4,30,0.500000,0.091287
MAX1,M2,normal,40,60,1,30,0.800000,0.073030
MAX1,M2,normal,40,60,4,30,0.633333,0.087981
MAX2,M2,normal,40,60,1,30,0.866667,0.062063
MAX2,M2,normal,40,60,4,30,0.700000,0.083666
FC1,M2,normal,40,60,1,30,0.766667,0.077220
FC1,M2,normal,40,60,4,30,0.566667,0.090472
FC2,M2,normal,40,60,1,30,0.800000,0.073030
FC2,M2,normal,40,60,4,30,0.600000,0.089443
""",
    ),
    (
        ScenarioConfig(n=40, t=60, cov_model="M4", error_dist="t5_scaled", reps=30,
                       seed=26, freeze_cov=True, shared_factors=True,
                       test=Config(delta_mt=2.0)),
        (1, 3),
        """\
method,model,error_dist,N,T,m,reps,rate,se
PY,M4,t5_scaled,40,60,1,30,0.666667,0.086066
PY,M4,t5_scaled,40,60,3,30,0.500000,0.091287
MAX1,M4,t5_scaled,40,60,1,30,0.900000,0.054772
MAX1,M4,t5_scaled,40,60,3,30,0.533333,0.091084
MAX2,M4,t5_scaled,40,60,1,30,0.966667,0.032773
MAX2,M4,t5_scaled,40,60,3,30,0.533333,0.091084
FC1,M4,t5_scaled,40,60,1,30,0.900000,0.054772
FC1,M4,t5_scaled,40,60,3,30,0.533333,0.091084
FC2,M4,t5_scaled,40,60,1,30,0.933333,0.045542
FC2,M4,t5_scaled,40,60,3,30,0.533333,0.091084
""",
    ),
]

# `alphatest gen` panel of GEN_SCENARIO, tested with `alphatest test --delta 1.0`
GEN_SCENARIO = ScenarioConfig(n=40, t=60, cov_model="M4", error_dist="t5_scaled", m=3,
                              seed=27, test=Config(threshold_delta=1.0))
GEN_STATISTICS = {
    "PY": 1.5406631569595255,
    "MAX1": 16.551913993556333,
    "MAX2": 19.516102454777197,
    "FC1": 17.198160435551824,
    "FC2": 20.16003794291595,
}


@pytest.mark.parametrize("scenario,expected", SIZE_TABLES,
                         ids=[s.cov_model for s, _ in SIZE_TABLES])
def test_size_table(scenario, expected):
    assert table_to_csv(run_experiment(ExperimentSpec(scenario=scenario))) == expected


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scenario,m_grid,expected", POWER_TABLES,
                         ids=[s.cov_model for s, _, _ in POWER_TABLES])
def test_power_curve(scenario, m_grid, expected, workers):
    spec = ExperimentSpec(scenario=scenario, m_grid=m_grid)
    assert table_to_csv(run_power_curve(spec, workers=workers)) == expected


@pytest.fixture
def gen_report(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(GEN_SCENARIO.to_json())
    prefix = str(tmp_path / "panel_")
    assert main(["gen", "--config", str(config), "--out-prefix", prefix]) == EXIT_OK
    out = tmp_path / "report.json"
    assert main(["test", "--returns", prefix + "returns.csv",
                 "--factors", prefix + "factors.csv", "--delta", "1.0",
                 "--out", str(out)]) == EXIT_OK
    tests = json.loads(out.read_text())["tests"]
    return {name: entry["statistic"] for name, entry in tests.items()}


def test_gen_panel_statistics(gen_report):
    assert gen_report.keys() == GEN_STATISTICS.keys()
    for name, expected in GEN_STATISTICS.items():
        assert np.isclose(gen_report[name], expected, rtol=1e-8, atol=0.0), name


def test_gen_panel_is_replication_zero(gen_report):
    # CSVs carry 17 significant digits, so the written panel reloads exactly
    details = replicate_details(GEN_SCENARIO, GEN_SCENARIO.m, 1)[0]
    assert gen_report == {name: r.statistic for name, r in details.items()}
