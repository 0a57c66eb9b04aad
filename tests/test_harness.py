from dataclasses import replace
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

    @pytest.mark.parametrize("reps,scenario_reps", [(0, 10), (-1, 10), (None, 0)])
    def test_reps_below_one(self, reps, scenario_reps):
        scenario = ScenarioConfig(n=20, t=40, reps=scenario_reps)
        with pytest.raises(ValueError, match="replication"):
            ExperimentSpec(scenario=scenario, reps=reps)


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

    def test_deterministic_across_worker_counts(self):
        spec = ExperimentSpec(scenario=SMALL)
        csv_serial = table_to_csv(run_experiment(spec, workers=1))
        csv_parallel = table_to_csv(run_experiment(spec, workers=2))
        assert csv_serial == csv_parallel

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
