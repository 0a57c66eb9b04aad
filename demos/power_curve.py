"""Power of each test as the alpha vector densifies.

Sweeps the number of nonzero intercepts m over {1, 2, 5, 10, 20} at fixed
total signal strength and prints a text power curve.  Max-type tests
dominate at small m (sparse alternatives), the sum-type test catches up
as m grows, and the Fisher combinations track the better of the two.
"""

from alphatest.alpha_tests import METHODS
from alphatest.harness import ExperimentSpec, ScenarioConfig, run_power_curve

scenario = ScenarioConfig(
    n=100,
    t=100,
    cov_model="M2",
    error_dist="normal",
    reps=200,
    seed=2,
)

m_grid = (1, 2, 5, 10, 20)
table = run_power_curve(ExperimentSpec(scenario=scenario, m_grid=m_grid))

power = {(r.method, r.m): r.rate for r in table.rows}

print(f"power at gamma=0.05, {scenario.scenario_id}, R={scenario.reps}")
print(f"{'m':>4}  " + "".join(f"{name:>8}" for name in METHODS))
for m in m_grid:
    cells = "".join(f"{power[(name, m)]:>8.2f}" for name in METHODS)
    print(f"{m:>4}  {cells}")
