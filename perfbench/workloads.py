"""The three benchmark workloads.

Each workload makes its inputs from the workload seed, runs one
operation per call of ``op(k)`` from a single caller, and checks every
output.  The warm-up checks recorded reference values where a workload
has them; gate checks that need extra work (the permutation and
worker-count invariances) run once, outside the timed loop.  Operations look the package's functions up at call time
(``harness.replicate_details``, ``cli.main``) so tracing can wrap them.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np

from alphatest import alpha_tests, cli, harness
from alphatest.harness import ExperimentSpec, ScenarioConfig
from alphatest.ols import FactorPanel

METHODS = ("PY", "MAX1", "MAX2", "FC1", "FC2")
RTOL = 1e-8
# span counts that must read the same in every traced operation
EXACT_COUNTERS = ("linalg.eigh", "linalg.eigvalsh", "rng.substream", "dgp.build_cov",
                  "panel_io.load_panel")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_statistics(stats: dict) -> None:
    """`stats` maps method -> (statistic, p_value); all five must be sane."""
    if tuple(stats) != METHODS:
        raise CheckFailed(f"expected methods {METHODS}, got {tuple(stats)}")
    for name, (stat, p) in stats.items():
        if not math.isfinite(stat):
            raise CheckFailed(f"{name} statistic is not finite: {stat}")
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise CheckFailed(f"{name} p-value outside [0, 1]: {p}")


def check_close(stats: dict, expected: dict, what: str) -> None:
    for name in METHODS:
        got, want = stats[name][0], expected[name]
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            raise CheckFailed(f"{what}: {name} = {got!r}, expected {want!r}")


def op_seed(seed: int, k: int) -> int:
    """Master seed of operation k; distinct for every (seed, k >= 0)."""
    return seed * 1_000_000 + k


def _stats_from_results(results) -> dict:
    return {r.name: (r.statistic, r.p_value) for r in results}


class SizeM3:
    """Null replications of M3 / normal / N=200 / T=100, one per operation."""

    name = "size_m3_n200"
    why = "the paper's size-table setting: per-replication pipeline at N=200, cached M3 root"
    scenario = ScenarioConfig(n=200, t=100, cov_model="M3", error_dist="normal", m=0)
    reps_per_op = 1
    workers = 1
    kernel_n = 200  # calibration kernel size, see measure.Kernel
    exact_counters = EXACT_COUNTERS
    reference_seed = 0
    # statistics of replication 0 at master seed `reference_seed`
    reference = {
        "PY": 1.3047460612495247,
        "MAX1": 9.471817415468047,
        "MAX2": 9.471817415468047,
        "FC1": 6.789074128172116,
        "FC2": 6.789074128172116,
    }

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def prepare(self, generate: bool = True) -> None:
        pass

    def warmup(self) -> None:
        """Fills the cached M3 covariance root and checks the reference values."""
        details = harness.replicate_details(
            replace(self.scenario, seed=self.reference_seed), 0, 1)
        stats = _stats_from_results(details[0].values())
        check_statistics(stats)
        check_close(stats, self.reference, "reference replication")

    def gates(self):
        return []

    def op(self, k: int, traced: bool = False):
        return harness.replicate_details(
            replace(self.scenario, seed=op_seed(self.seed, k)), 0, 1)

    def check(self, k: int, details) -> None:
        if len(details) != 1:
            raise CheckFailed(f"lost {1 - len(details)} of 1 replications")
        check_statistics(_stats_from_results(details[0].values()))


class PowerM2:
    """Power curves over M2 / t5_scaled / N=500 / T=100 on the harness pool."""

    name = "power_m2_n500_w2"
    why = "M2 redraws a dense covariance and its eigh root per replication; the only pool user"
    scenario = ScenarioConfig(n=500, t=100, cov_model="M2", error_dist="t5_scaled")
    m_grid = (1, 5, 20)
    reps_per_m = 6
    workers = 2
    traced_workers = 1  # layer spans come from the parent at one worker
    reps_per_op = reps_per_m * len(m_grid)
    kernel_n = 500
    # PSD repair fires on some M2 draws only, so eigen counts vary per operation
    exact_counters = ("rng.substream", "dgp.build_cov", "panel_io.load_panel")

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.single_worker_rates = None

    def spec(self, k: int) -> ExperimentSpec:
        return ExperimentSpec(scenario=replace(self.scenario, seed=op_seed(self.seed, k)),
                              reps=self.reps_per_m, m_grid=self.m_grid)

    def prepare(self, generate: bool = True) -> None:
        pass

    def warmup(self) -> None:
        """One in-process replication of the scenario at m=1."""
        details = harness.replicate_details(replace(self.scenario, seed=self.seed), 1, 1)
        check_statistics(_stats_from_results(details[0].values()))

    def _single_worker_table(self) -> None:
        table = harness.run_power_curve(self.spec(0), workers=1)
        self.check(0, table)
        self.single_worker_rates = [(r.method, r.m, r.rate) for r in table.rows]

    def gates(self):
        return [("operation 0 at workers=1", self._single_worker_table)]

    def op(self, k: int, traced: bool = False):
        workers = self.traced_workers if traced else self.workers
        return harness.run_power_curve(self.spec(k), workers=workers)

    def check(self, k: int, table) -> None:
        if len(table.rows) != len(METHODS) * len(self.m_grid):
            raise CheckFailed(f"expected {len(METHODS) * len(self.m_grid)} rows, "
                              f"got {len(table.rows)}")
        for row in table.rows:
            lost = self.reps_per_m - row.reps
            if lost:
                raise CheckFailed(f"{row.method} m={row.m}: lost {lost} replications")
            if not (math.isfinite(row.rate) and 0.0 <= row.rate <= 1.0):
                raise CheckFailed(f"{row.method} m={row.m}: rate {row.rate}")
        if k == 0 and self.single_worker_rates is not None:
            rates = [(r.method, r.m, r.rate) for r in table.rows]
            if rates != self.single_worker_rates:
                raise CheckFailed("operation 0 differs between workers=1 and the pool")


def cli_panel(seed: int, index: int, n: int = 1000, t: int = 120, p: int = 3,
              rho: float = 0.7):
    """Null panel i of a seed: AR(1)-across-securities errors (corr rho^|i-j|).

    Returns (returns N x T, factors T x p).  Made with numpy alone, so
    changes to alphatest's data generator leave it unchanged.
    """
    rng = np.random.default_rng([seed, index])
    factors = rng.standard_normal((t, p))
    betas = rng.uniform(-1.0, 1.5, size=(n, p))
    z = rng.standard_normal((n, t))
    errors = np.empty_like(z)
    errors[0] = z[0]
    scale = math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        errors[i] = rho * errors[i - 1] + scale * z[i]
    return betas @ factors.T + errors, factors


def write_csv_pair(returns, factors, returns_path: str, factors_path: str) -> None:
    """Time-major CSVs with a header row and 17 significant digits."""
    for matrix, path, label in ((returns.T, returns_path, "sec"),
                                (factors, factors_path, "factor")):
        header = ",".join(f"{label}{j + 1}" for j in range(matrix.shape[1]))
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=header, comments="")


class CliTest:
    """In-process ``alphatest test`` calls on N=1000, T=120, p=3 CSV pairs."""

    name = "cli_test_n1000"
    why = "user path in the N >> T regime: CSV parsing, PSD repair fires; only panel_io/cli user"
    n_panels = 3
    reps_per_op = 1
    workers = 1
    kernel_n = 500
    exact_counters = EXACT_COUNTERS
    reference_seed = 0
    # statistics of cli_panel(reference_seed, 0)
    reference = {
        "PY": 0.809690960869638,
        "MAX1": 12.186156664901064,
        "MAX2": 10.679253588977092,
        "FC1": 5.043555233672999,
        "FC2": 4.01365573128739,
    }

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = out_dir
        self.expected = {}

    def paths(self, tag) -> tuple[str, str]:
        return (os.path.join(self.dir, f"returns-{tag}.csv"),
                os.path.join(self.dir, f"factors-{tag}.csv"))

    def prepare(self, generate: bool = True) -> None:
        if not generate:
            return
        write_csv_pair(*cli_panel(self.reference_seed, 0), *self.paths("ref"))
        for i in range(self.n_panels):
            write_csv_pair(*cli_panel(self.seed, i), *self.paths(i))
        returns, factors = cli_panel(self.seed, 0)
        order = np.random.default_rng([self.seed, 99]).permutation(returns.shape[0])
        write_csv_pair(returns[order], factors, *self.paths("perm"))

    def run_cli(self, tag) -> dict:
        returns_path, factors_path = self.paths(tag)
        out = os.path.join(self.dir, "report.json")
        code = cli.main(["test", "--returns", returns_path, "--factors", factors_path,
                         "--out", out])
        if code != cli.EXIT_OK:
            raise CheckFailed(f"alphatest test exited with {code}")
        return out

    def read_report(self, path: str) -> dict:
        with open(path) as handle:
            tests = json.load(handle)["tests"]
        stats = {name: (tests[name]["statistic"], tests[name]["p_value"]) for name in tests}
        check_statistics(stats)
        return stats

    def warmup(self) -> None:
        """One CLI call on the reference input, checked against recorded values."""
        stats = self.read_report(self.run_cli("ref"))
        check_close(stats, self.reference, "reference panel")

    def _library_panel0(self) -> None:
        returns, factors = cli_panel(self.seed, 0)
        results = alpha_tests.run_all(FactorPanel(returns=returns, factors=factors))
        stats = _stats_from_results(results)
        check_statistics(stats)
        self.expected[0] = {name: value[0] for name, value in stats.items()}

    def _permuted(self) -> None:
        stats = self.read_report(self.run_cli("perm"))
        check_close(stats, self.expected[0], "securities permuted")

    def gates(self):
        return [("panel 0 in memory", self._library_panel0),
                ("securities permuted", self._permuted)]

    def op(self, k: int, traced: bool = False):
        return self.run_cli(k % self.n_panels)

    def check(self, k: int, report_path) -> None:
        stats = self.read_report(report_path)
        index = k % self.n_panels
        if index in self.expected:
            check_close(stats, self.expected[index], f"panel {index}")
        else:
            self.expected[index] = {name: value[0] for name, value in stats.items()}


WORKLOADS = {w.name: w for w in (SizeM3, PowerM2, CliTest)}
