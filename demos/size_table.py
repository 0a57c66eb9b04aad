"""Reproduce one row of the null-size table at reduced replication count.

Runs 300 null replications of the Model 3 / normal / N=200 / T=100
scenario and prints the empirical size of each test at the 5% level.
With seed 1 it prints PY 8.7, MAX1 5.3, MAX2 5.3, FC1 9.3 and FC2 9.3
(percent).  At R=300 the Monte Carlo standard error of a 5% rate is
about 1.3 points: MAX1 and MAX2 sit at the nominal level, PY (26 of 300
rejections) is 2.9 standard errors above it and FC1/FC2 (28 of 300) 3.4.
"""

from alphatest.harness import ExperimentSpec, ScenarioConfig, run_experiment, summarize

scenario = ScenarioConfig(
    n=200,
    t=100,
    cov_model="M3",
    error_dist="normal",
    m=0,
    reps=300,
    seed=1,
)

table = run_experiment(ExperimentSpec(scenario=scenario))
print(summarize(table))
