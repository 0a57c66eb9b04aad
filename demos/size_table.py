"""Reproduce one row of the null-size table at reduced replication count.

Runs 300 null replications of the Model 3 / normal / N=200 / T=100
scenario and prints the empirical size of each test at the 5% level.
The reference values for this configuration are roughly PY 5.4, MAX1 5.5,
MAX2 5.4, FC1 5.0, FC2 4.9 (percent); expect a couple of percentage
points of Monte Carlo noise at R=300.
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
