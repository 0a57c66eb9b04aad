import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing.connection import wait
from typing import NamedTuple

import numpy as np
import pytest

from alphatest import harness
from alphatest import rng as streams
from alphatest.alpha_tests import METHODS
from alphatest.alpha_tests import TestConfig as Config
from alphatest.dgp import gen_errors
from alphatest.errors import EmptyTable, ParseError
from alphatest.harness import (
    ExperimentSpec,
    ScenarioConfig,
    SizePowerTable,
    TableRow,
    replicate_details,
    run_experiment,
    run_power_curve,
    summarize,
    table_to_csv,
)

SMALL = ScenarioConfig(n=20, t=40, cov_model="M1", error_dist="normal",
                       m=0, reps=10, seed=123)


class Outcome(NamedTuple):
    """Stand-in for a TestResult: the aggregation reads only `reject`."""

    reject: bool


class TestScenarioConfig:
    def test_json_roundtrip(self):
        scenario = ScenarioConfig(n=50, t=80, cov_model="M2", error_dist="t5_scaled",
                                  m=3, reps=200, seed=99, freeze_cov=True,
                                  test=Config(gamma=0.1, threshold_delta=2.5))
        assert ScenarioConfig.from_json(scenario.to_json()) == scenario

    def test_json_defaults(self):
        scenario = ScenarioConfig.from_json('{"N": 30, "T": 60}')
        assert scenario.n == 30 and scenario.t == 60
        assert scenario.cov_model == "M1" and scenario.reps == 1000

    def test_updated_casts_strictly(self):
        scenario = SMALL.updated({"seed": "10", "n": 30.0, "freeze_cov": True})
        assert (scenario.seed, scenario.n, scenario.freeze_cov) == (10, 30, True)
        assert type(scenario.n) is int
        # each error names the scenario JSON key of the field
        for path, value, key in [("freeze_cov", "false", "flags.freezeCov"),
                                 ("freeze_cov", 1, "flags.freezeCov"),
                                 ("n", 30.7, "N"), ("n", True, "N"),
                                 ("seed", "1.5", "seed"), ("test.gamma", False, "gamma"),
                                 ("cov_model", "M9", "covModel"),
                                 ("error_dist", "cauchy", "errorDist")]:
            with pytest.raises(ParseError, match=f"^{key}: expected"):
                SMALL.updated({path: value})

    @pytest.mark.parametrize("fields,message", [
        ({"n": 20.0}, "N: expected int, got 20.0"),
        ({"n": True}, "N: expected int, got True"),
        ({"n": np.bool_(True)}, f"N: expected int, got {np.bool_(True)!r}"),
        ({"t": "40"}, "T: expected int, got '40'"),
        ({"seed": None}, "seed: expected int, got None"),
        ({"freeze_cov": 1}, "flags.freezeCov: expected bool, got 1"),
        ({"cov_model": "M9"}, "covModel: expected one of M1, M2, M3, M4, got 'M9'"),
        ({"error_dist": "cauchy"},
         "errorDist: expected one of normal, t5_scaled, mixture_scaled, got 'cauchy'"),
        ({"n": 2}, "N: expected an integer >= 3, got 2"),
        ({"m": 21}, "m: expected an integer <= N=20, got 21"),
        ({"m": -1}, "m: expected an integer >= 0, got -1"),
    ], ids=["float_n", "bool_n", "numpy_bool_n", "string_t", "none_seed", "int_flag",
            "unknown_model", "unknown_law", "two_securities", "m_above_n", "negative_m"])
    def test_direct_construction_is_checked(self, fields, message):
        # built directly, a scenario follows the rule `updated` applies to JSON values
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(**{"n": 20, "t": 40, **fields})

    def test_float_n_fails_before_the_experiment_runs(self):
        with pytest.raises(ParseError, match="^N: expected int, got 20.0$"):
            run_experiment(ExperimentSpec(ScenarioConfig(n=20.0, t=40), reps=2))

    def test_numpy_integer_fields(self):
        scenario = ScenarioConfig(n=np.int64(20), t=np.int32(40), m=np.uint8(2), reps=3)
        plain = ScenarioConfig(n=20, t=40, m=2, reps=3)
        assert scenario == plain and type(scenario.n) is int
        assert ScenarioConfig.from_json(scenario.to_json()) == plain
        assert table_to_csv(run_experiment(ExperimentSpec(scenario))) == \
            table_to_csv(run_experiment(ExperimentSpec(plain)))

    def test_scenario_id(self):
        assert SMALL.scenario_id == "M1/normal/N20/T40"


class TestExperimentSpec:
    def test_m_grid_exceeds_n(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scenario=SMALL, m_grid=(25,))

    def test_negative_m_grid_entry(self):
        # it would otherwise fail later, inside the stream seeding
        with pytest.raises(ValueError, match="m_grid"):
            ExperimentSpec(scenario=SMALL, m_grid=(-1, 2))

    @pytest.mark.parametrize("entry", [1.5, True, np.bool_(True), "2", None])
    def test_non_integer_m_grid_entry(self, entry):
        # each would otherwise fail later, inside the stream seeding or a comparison
        with pytest.raises(ValueError, match="m_grid entries must be integers"):
            ExperimentSpec(scenario=SMALL, m_grid=(1, entry))

    def test_numpy_integer_m_grid_entries(self):
        spec = ExperimentSpec(scenario=SMALL, reps=3, m_grid=(np.int64(2), np.uint8(0)))
        plain = ExperimentSpec(scenario=SMALL, reps=3, m_grid=(2, 0))
        assert table_to_csv(run_power_curve(spec)) == table_to_csv(run_power_curve(plain))

    @pytest.mark.parametrize("reps,scenario_reps", [(0, 10), (-1, 10), (None, 0)])
    def test_reps_below_one(self, reps, scenario_reps):
        if reps is None:  # the scenario's own count is checked when the scenario is built
            with pytest.raises(ParseError, match="^reps: expected an integer >= 1, got 0$"):
                ScenarioConfig(n=20, t=40, reps=scenario_reps)
            return
        scenario = ScenarioConfig(n=20, t=40, reps=scenario_reps)
        with pytest.raises(ValueError, match="replication"):
            ExperimentSpec(scenario=scenario, reps=reps)

    @pytest.mark.parametrize("reps,scenario_reps", [
        (True, 10), (np.bool_(True), 10), (2.0, 10), ("3", 10), (None, True), (None, 2.0),
    ])
    def test_non_integer_reps(self, reps, scenario_reps):
        # True would run one replication and write "True" as the CSV's reps;
        # 2.0 and "3" would fail later, inside range or a comparison
        if reps is None:  # the scenario's own count is checked when the scenario is built
            with pytest.raises(ParseError, match=f"^reps: expected int, got {scenario_reps}$"):
                ScenarioConfig(n=20, t=40, reps=scenario_reps)
            return
        scenario = ScenarioConfig(n=20, t=40, reps=scenario_reps)
        with pytest.raises(ValueError, match="replications must be an integer"):
            ExperimentSpec(scenario=scenario, reps=reps)

    def test_numpy_integer_reps(self):
        spec = ExperimentSpec(scenario=SMALL, reps=np.int64(3))
        plain = ExperimentSpec(scenario=SMALL, reps=3)
        assert table_to_csv(run_experiment(spec)) == table_to_csv(run_experiment(plain))


class TestAggregation:
    def test_always_reject_stub(self, monkeypatch):
        monkeypatch.setattr(harness, "_replicate",
                            lambda scenario, m, rep: {k: Outcome(True) for k in METHODS})
        rows = run_experiment(ExperimentSpec(scenario=SMALL, reps=8)).rows
        for row in rows:
            assert row.rate == 1.0
            assert row.se == 0.0

    def test_se_formula(self, monkeypatch):
        monkeypatch.setattr(harness, "_replicate",
                            lambda scenario, m, rep: {k: Outcome(rep < 3) for k in METHODS})
        row = run_experiment(ExperimentSpec(scenario=SMALL, reps=10)).rows[0]
        assert row.rate == 0.3
        assert np.isclose(row.se, np.sqrt(0.3 * 0.7 / 10))


class TestRunExperiment:
    def test_basic(self):
        table = run_experiment(ExperimentSpec(scenario=SMALL))
        assert len(table.rows) == 5
        for row in table.rows:
            assert 0.0 <= row.rate <= 1.0
            assert row.reps == 10

    def test_method_subset(self):
        table = run_experiment(ExperimentSpec(scenario=SMALL))
        rows = [r for r in table.rows if r.method in ("PY", "MAX2")]
        assert tuple(r.method for r in rows) == ("PY", "MAX2")

    def test_deterministic_across_worker_counts(self, monkeypatch):
        # 10 replications split 5/5 over 2 workers and 4/4/2 over 3, 15 split 8/7
        # and 5/5/5; a size rate is blind to the order of the shares, so a power
        # curve over m = 0, 2 (20 and 30 replications) checks that order too
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)))
        for reps in (10, 15):
            spec = ExperimentSpec(scenario=SMALL, reps=reps, m_grid=(0, 2))
            for run in (run_experiment, run_power_curve):
                csv_serial = table_to_csv(run(spec, workers=1))
                for workers in (2, 3):
                    assert table_to_csv(run(spec, workers=workers)) == csv_serial

    def test_seed_changes_output(self):
        import dataclasses

        a = run_experiment(ExperimentSpec(scenario=SMALL, reps=40))
        other = dataclasses.replace(SMALL, seed=124)
        b = run_experiment(ExperimentSpec(scenario=other, reps=40))
        assert table_to_csv(a) != table_to_csv(b)


class TestPoolSize:
    @pytest.mark.parametrize("workers,cpus,sizes", [
        (5000, 64, [3]),  # one process per task
        (5000, 2, [2]),  # one per CPU
        (2, 64, [2]),
        (5000, 1, []),  # one CPU: serial, no pool
    ])
    def test_pool_is_bounded(self, monkeypatch, pool_sizes, workers, cpus, sizes):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = ExperimentSpec(scenario=SMALL, reps=3)
        table = run_experiment(spec, workers=workers)
        assert pool_sizes == sizes
        assert table_to_csv(table) == table_to_csv(run_experiment(spec, workers=1))

    @pytest.mark.parametrize("run", [run_experiment, run_power_curve])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_raises(self, pool_sizes, run, workers):
        spec = ExperimentSpec(scenario=SMALL, reps=3, m_grid=(0, 1))
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            run(spec, workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("run", [run_experiment, run_power_curve])
    @pytest.mark.parametrize("workers", [2.5, 1.5, np.float64(2.0), "2", None, True, np.bool_(1)])
    def test_non_integer_raises(self, pool_sizes, run, workers):
        spec = ExperimentSpec(scenario=SMALL, reps=3, m_grid=(0, 1))
        message = f"^workers must be an integer, got {re.escape(repr(workers))}$"
        with pytest.raises(ValueError, match=message):
            run(spec, workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("reps,m_grid,workers,share", [
        (6, (1, 5, 20), 2, 9),  # the shape of the benchmark's M2 power curve
        (2, (0, 1, 2), 3, 2),
        (7, (0,), 2, 4),  # uneven: 4 and 3
        (7, (0, 1, 2), 4, 6),  # 21 over 4: 6, 6, 6 and 3
    ])
    def test_one_share_per_worker(self, monkeypatch, pool_sizes, reps, m_grid, workers, share):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)))
        spec = ExperimentSpec(scenario=SMALL, reps=reps, m_grid=m_grid)
        table = run_power_curve(spec, workers=workers)
        assert pool_sizes == [workers] and pool_sizes.chunksizes == [share]
        assert pool_sizes.initializers == [harness._pin_malloc_thresholds]
        assert table_to_csv(table) == table_to_csv(run_power_curve(spec, workers=1))

    @pytest.mark.parametrize("cpus,sizes", [(2, [2]), (None, [])])
    def test_cpu_count_without_affinity(self, monkeypatch, pool_sizes, cpus, sizes):
        # macOS and Windows have no sched_getaffinity; an unknown CPU count runs serially
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        spec = ExperimentSpec(scenario=SMALL, reps=3)
        serial = run_experiment(spec, workers=1)
        assert pool_sizes == []
        assert table_to_csv(run_experiment(spec, workers=5000)) == table_to_csv(serial)
        assert pool_sizes == sizes


# Runs small pooled power curves in a fresh interpreter, one per pool size in
# argv[1] (CPU affinity widened to 4 so that 3 is a bounded size), and prints
# the Python thread count at each fork and the pool's worker pids after each
# call.
POOLED_CALLS = """
import json, multiprocessing, os, sys, threading
from alphatest import harness
from alphatest.harness import ExperimentSpec, ScenarioConfig, run_power_curve

harness.os.sched_getaffinity = lambda pid: set(range(4))
threads_at_fork = []
os.register_at_fork(before=lambda: threads_at_fork.append(threading.active_count()))
scenario = ScenarioConfig(n=20, t=40, cov_model="M1", error_dist="normal", seed=123)
spec = ExperimentSpec(scenario=scenario, reps=3, m_grid=(0, 2))
pids = []
for workers in json.loads(sys.argv[1]):
    run_power_curve(spec, workers=workers)
    pids.append(sorted(p.pid for p in multiprocessing.active_children()))
print(json.dumps({"threads_at_fork": threads_at_fork, "pids": pids}))
"""


def run_pooled_calls(sizes, *flags):
    """{threads_at_fork, pids} printed by POOLED_CALLS at `sizes`, one BLAS thread."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *flags, "-c", POOLED_CALLS, json.dumps(sizes)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestPoolLifecycle:
    SPEC = ExperimentSpec(scenario=SMALL, reps=4, m_grid=(0, 2))

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)))

    def test_successive_calls_share_one_pool(self, pool_sizes):
        serial = table_to_csv(run_power_curve(self.SPEC, workers=1))
        for _ in range(2):
            assert table_to_csv(run_power_curve(self.SPEC, workers=2)) == serial
        assert pool_sizes == [2]

    def test_another_size_replaces_the_pool(self, monkeypatch, pool_sizes):
        run_power_curve(self.SPEC, workers=2)
        shutdowns = []
        monkeypatch.setattr(harness._POOLS[2], "shutdown", lambda wait: shutdowns.append(wait))
        run_power_curve(self.SPEC, workers=3)
        assert pool_sizes == [2, 3]
        assert shutdowns == [True]

    def test_no_worker_outlives_the_interpreter(self):
        pids = run_pooled_calls([2, 2])["pids"]
        assert len(pids[0]) == 2 and pids[1] == pids[0]  # the second call reused the pool
        for pid in pids[0]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_no_fork_while_a_pool_thread_runs(self):
        # each worker is forked while the main thread runs alone, so Python
        # >= 3.12 has no multi-threaded fork to warn about
        seen = run_pooled_calls([2, 3, 2], "-W", "error::DeprecationWarning")
        assert seen["threads_at_fork"] == [1] * 7
        assert [len(pids) for pids in seen["pids"]] == [2, 3, 2]

    def test_broken_pool_is_replaced(self):
        serial = table_to_csv(run_power_curve(self.SPEC, workers=1))
        harness._drop_pool()
        run_power_curve(self.SPEC, workers=2)
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        os.kill(workers[0].pid, signal.SIGKILL)
        for worker in workers:  # the pool terminates the survivor once it sees the death
            assert wait([worker.sentinel], timeout=30)
        with pytest.raises(BrokenProcessPool):
            run_power_curve(self.SPEC, workers=2)
        assert harness._POOLS == {}
        assert table_to_csv(run_power_curve(self.SPEC, workers=2)) == serial


def pinned_calls() -> int:
    """Calls of `harness._pin_malloc_thresholds` cached in this process: 0 or 1."""
    return harness._pin_malloc_thresholds.cache_info().currsize


class TestPinMallocThresholds:
    def test_no_op_off_linux(self, monkeypatch):
        monkeypatch.setattr(harness.sys, "platform", "darwin")
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda *args: pytest.fail("loaded libc"))
        assert harness._pin_malloc_thresholds.__wrapped__() is None

    def test_each_pool_worker_pins(self, monkeypatch):
        # the pool's initializer, not this process, fills each worker's call cache
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(4)))
        harness._drop_pool()
        harness._pin_malloc_thresholds.cache_clear()
        run_power_curve(TestPoolLifecycle.SPEC, workers=2)
        assert pinned_calls() == 0
        assert [harness._POOLS[2].submit(pinned_calls).result(timeout=30)
                for _ in range(4)] == [1] * 4


class TestRunPowerCurve:
    def test_rows_ordered(self):
        spec = ExperimentSpec(scenario=SMALL, reps=5, m_grid=(2, 1))
        table = run_power_curve(spec)
        keys = [(r.method, r.m) for r in table.rows if r.method in ("PY", "MAX1")]
        assert keys == [("PY", 1), ("PY", 2), ("MAX1", 1), ("MAX1", 2)]

    def test_duplicate_grid_entries_stay(self):
        # stable by m within each method: both m=2 blocks keep a row
        spec = ExperimentSpec(scenario=SMALL, reps=3, m_grid=(2, 1, 2))
        table = run_power_curve(spec)
        assert [(r.method, r.m) for r in table.rows] == [
            (method, m) for method in METHODS for m in (1, 2, 2)]
        assert table.rows[1] == table.rows[2]
        assert table.scenario == SMALL

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            run_power_curve(ExperimentSpec(scenario=SMALL))

    def test_m_zero_matches_size_experiment(self):
        size_csv = table_to_csv(run_experiment(ExperimentSpec(scenario=SMALL)))
        power_csv = table_to_csv(
            run_power_curve(ExperimentSpec(scenario=SMALL, m_grid=(0,)))
        )
        assert size_csv == power_csv


class TestSummarize:
    def test_worked_example(self):
        scenario = ScenarioConfig(n=200, t=100, cov_model="M3")
        row = TableRow(method="PY", m=0, reps=1000,
                       rate=0.054, se=float(np.sqrt(0.054 * 0.946 / 1000)))
        text = summarize(SizePowerTable(scenario=scenario, rows=(row,)))
        assert "PY      M3/normal/N200/T100" in text
        assert "5.4 (±0.7)" in text

    def test_empty_raises(self):
        with pytest.raises(EmptyTable):
            summarize(SizePowerTable(scenario=SMALL, rows=()))

    def test_roundtrip_at_one_decimal(self):
        table = run_experiment(ExperimentSpec(scenario=SMALL))
        text = summarize(table)
        for row in table.rows:
            assert f"{100 * row.rate:.1f} " in text


class TestTableToCsv:
    def test_header_and_rows(self):
        table = run_experiment(ExperimentSpec(scenario=SMALL))
        lines = table_to_csv(table).strip().split("\n")
        assert lines[0] == "method,model,error_dist,N,T,m,reps,rate,se"
        assert len(lines) == 6
        assert lines[1].startswith("PY,M1,normal,20,40,0,10,")


class TestStreams:
    def test_substream_reproducible(self):
        a = streams.substream(5, 0, 3, streams.ERRORS).standard_normal(10)
        b = streams.substream(5, 0, 3, streams.ERRORS).standard_normal(10)
        assert np.array_equal(a, b)

    def test_substream_distinct(self):
        a = streams.substream(5, 0, 3, streams.ERRORS).standard_normal(10)
        b = streams.substream(5, 0, 4, streams.ERRORS).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_replication_streams_uncorrelated(self):
        # paired entries across two replication substreams
        a = gen_errors(np.eye(1000), "normal", 1000,
                       streams.substream(7, 0, 0, streams.ERRORS)).ravel()
        b = gen_errors(np.eye(1000), "normal", 1000,
                       streams.substream(7, 0, 1, streams.ERRORS)).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01


@pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
def test_frozen_covariance_is_drawn_once(monkeypatch, model):
    # five freezeCov replications at each of two seeds and two values of m
    # build the pinned covariance once per (seed, m) for M2 and M4, and
    # once in all for M1 and M3, which draw nothing; each panel equals the
    # one simulated with an empty root cache
    keys = [(seed, m) for seed in (5, 6) for m in (0, 2)]
    scenario = ScenarioConfig(n=40, t=60, cov_model=model, freeze_cov=True)
    harness._frozen_cov_root.cache_clear()
    calls = []
    build = harness.build_cov
    monkeypatch.setattr(harness, "build_cov", lambda *args: calls.append(args) or build(*args))
    panels = {(seed, m, rep): harness.simulate_panel(replace(scenario, seed=seed), m, rep)
              for seed, m in keys for rep in range(5)}
    drawn = 1 if model in ("M1", "M3") else len(keys)
    assert len(calls) == drawn
    for (seed, m, rep), panel in panels.items():
        harness._frozen_cov_root.cache_clear()
        fresh = harness.simulate_panel(replace(scenario, seed=seed), m, rep)
        np.testing.assert_array_equal(panel.returns, fresh.returns)
        np.testing.assert_array_equal(panel.factors, fresh.factors)
    assert len(calls) == drawn + len(panels)
    harness._frozen_cov_root.cache_clear()


def test_mc_error_halves_when_reps_double():
    spec_a = ExperimentSpec(scenario=SMALL, reps=400)
    spec_b = ExperimentSpec(scenario=SMALL, reps=800)
    se_a = run_experiment(spec_a).rows[0].se
    se_b = run_experiment(spec_b).rows[0].se
    assert abs(se_b / se_a - 1.0 / np.sqrt(2.0)) < 0.1


def _rejection_dependence(n):
    """|joint - product| of PY and MAX2 rejections at m=2, with its
    delta-method standard error from the same batch."""
    scenario = ScenarioConfig(n=n, t=100, cov_model="M3", error_dist="normal",
                              m=2, seed=314)
    details = replicate_details(scenario, 2, 2000)
    py = np.array([d["PY"].reject for d in details], dtype=float)
    mx = np.array([d["MAX2"].reject for d in details], dtype=float)
    cross = (py - py.mean()) * (mx - mx.mean())
    return abs(cross.mean()), cross.std() / np.sqrt(cross.size)


@pytest.mark.slow
def test_joint_rejection_near_product_under_sparse_alternative():
    # Under a sparse alternative both statistics are driven by the same two
    # signal coordinates, so their rejections are dependent at finite N
    # (|joint - product| is about 0.05 at N=200 and 0.10 at N=50); the
    # dependence vanishes only as N grows.  Assert that it falls from N=50
    # to N=200 by more than three Monte Carlo standard errors.
    dep_200, se_200 = _rejection_dependence(200)
    dep_50, se_50 = _rejection_dependence(50)
    bound = 3.0 * np.hypot(se_50, se_200)
    assert dep_50 - dep_200 > bound, (
        f"|joint - product| N=200 {dep_200:.4f} (se {se_200:.4f}), "
        f"N=50 {dep_50:.4f} (se {se_50:.4f}); "
        f"drop {dep_50 - dep_200:.4f} not above 3se {bound:.4f}"
    )
