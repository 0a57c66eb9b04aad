import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import alphatest
from alphatest import harness
from alphatest.alpha_tests import TestConfig as Config
from alphatest.alpha_tests import run_all_detailed
from alphatest.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from alphatest.dgp import gen_alpha, gen_betas, gen_errors, gen_factors, assemble_panel
from alphatest.harness import ExperimentSpec, ScenarioConfig, run_experiment, table_to_csv
from alphatest.panel_io import load_panel, write_panel


def write_scenario(path, **overrides):
    scenario = ScenarioConfig(**overrides)
    path.write_text(scenario.to_json())
    return scenario


def null_panel_files(tmp_path, n=30, t=50, seed=0, alpha=None):
    rng = np.random.default_rng(seed)
    factors = gen_factors(t, rng=rng)
    betas = gen_betas(n, rng)
    errors = gen_errors(np.eye(n), "normal", t, rng)
    if alpha is None:
        alpha = np.zeros(n)
    panel = assemble_panel(alpha, betas, factors, errors)
    rpath = tmp_path / "returns.csv"
    fpath = tmp_path / "factors.csv"
    write_panel(panel, str(rpath), str(fpath))
    return rpath, fpath


# Runs `alphatest test`, then frees eight 1 MiB temporaries at a time, ten
# times, and prints the minor page faults of those ten rounds.
CHURN_AFTER_MAIN = """
import resource, sys
import numpy as np
from alphatest.cli import main

def churn():
    blocks = [np.ones(1 << 17) for _ in range(8)]
    del blocks

assert main(sys.argv[1:]) == 0
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestCmdTest:
    def test_null_panel_report(self, tmp_path):
        rpath, fpath = null_panel_files(tmp_path)
        out = tmp_path / "report.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert set(report["tests"]) == {"PY", "MAX1", "MAX2", "FC1", "FC2"}
        for entry in report["tests"].values():
            assert 0.0 <= entry["p_value"] <= 1.0
            assert isinstance(entry["reject"], bool)
        assert report["metadata"]["N"] == 30
        assert report["metadata"]["v"] == 50 - 3 - 1
        assert 0 <= report["metadata"]["coupled"] <= 30
        meta = report["metadata"]
        assert 0 <= 2 * meta["components"] <= meta["coupled"]
        assert (meta["largest_component"] > 0) == (meta["coupled"] > 0)
        assert isinstance(report["metadata"]["repaired"], bool)
        assert 0 <= report["metadata"]["mt_survivors"] <= 30 * 29 // 2

    def test_overrides_reach_the_tests(self, tmp_path):
        rpath, fpath = null_panel_files(tmp_path, seed=3)
        reports = []
        for name, flags in (("default", []), ("overridden", [
                "--gamma", "0.1", "--qmt", "0.1", "--deltamt", "0.5", "--raw-critical"])):
            out = tmp_path / f"{name}.json"
            assert main(["test", "--returns", str(rpath), "--factors", str(fpath),
                         "--out", str(out), *flags]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        config = Config(gamma=0.1, q_mt=0.1, delta_mt=0.5, use_adjusted_critical=False)
        results, diagnostics = run_all_detailed(load_panel(rpath, fpath), config)
        assert reports[1] != reports[0]
        assert reports[1]["metadata"] == json.loads(json.dumps(diagnostics))
        for r in results:
            assert reports[1]["tests"][r.name] == {
                "statistic": r.statistic, "p_value": r.p_value, "reject": r.reject,
                "critical_value": r.critical_value}

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc malloc only")
    def test_freed_temporaries_are_reused(self, tmp_path):
        # glibc's own thresholds would trim the heap after each round and
        # fault in 8 MiB (2048 pages) again in the next
        rpath, fpath = null_panel_files(tmp_path)
        src = os.path.dirname(os.path.dirname(alphatest.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", CHURN_AFTER_MAIN, "test", "--returns", str(rpath),
             "--factors", str(fpath), "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, check=True)
        assert int(done.stdout) < 256

    def test_planted_alpha_rejected(self, tmp_path):
        n, t = 50, 60
        alpha = np.zeros(n)
        alpha[0] = 10.0 * np.sqrt(np.log(n) / t)
        rpath, fpath = null_panel_files(tmp_path, n=n, t=t, seed=1, alpha=alpha)
        out = tmp_path / "report.json"
        assert main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["tests"]["MAX2"]["reject"] is True

    def test_missing_factors_file(self, tmp_path):
        rpath, _ = null_panel_files(tmp_path, seed=2)
        code = main(["test", "--returns", str(rpath),
                     "--factors", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO

    def test_nan_cell_exits_io(self, tmp_path):
        rpath, fpath = null_panel_files(tmp_path, seed=3)
        text = rpath.read_text().splitlines()
        cells = text[4].split(",")
        cells[0] = "NaN"
        text[4] = ",".join(cells)
        rpath.write_text("\n".join(text) + "\n")
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_IO

    def test_undecodable_csv_exits_io(self, tmp_path, capsys):
        rpath, fpath = null_panel_files(tmp_path, seed=3)
        rpath.write_bytes(b"a,b\n1,\xff2\n")
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {rpath}: not UTF-8 text (invalid start byte)\n"
        assert not out.exists()

    def test_cell_over_csv_field_limit_exits_io(self, tmp_path, capsys):
        # a quoted cell longer than the csv module's 131072-character limit
        rpath, fpath = null_panel_files(tmp_path, seed=3)
        rpath.write_text('a,b\n"' + "1" * 200_000 + '",2\n')
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {rpath}: field larger than field limit (131072)\n")
        assert not out.exists()

    def test_collinear_factors_exit_numeric(self, tmp_path):
        rpath, fpath = null_panel_files(tmp_path, seed=4)
        lines = fpath.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[1] = row[0]  # duplicate a factor column
        fpath.write_text("\n".join(
            [",".join(header)] + [",".join(row) for row in rows]) + "\n")
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC

    def test_constant_security_exits_numeric(self, tmp_path, capsys):
        rpath, fpath = null_panel_files(tmp_path, seed=6)
        lines = rpath.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[3] = "0.25"  # security 3 is fitted exactly by its intercept
        rpath.write_text("\n".join(
            [lines[0]] + [",".join(row) for row in rows]) + "\n")
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: exact fit") and err.endswith("[3]\n")
        assert not out.exists()

    def test_underflowing_security_exits_numeric(self, tmp_path, capsys):
        rpath, fpath = null_panel_files(tmp_path, seed=6)
        lines = rpath.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[2] = f"{float(row[2]) * 1e-170!r}"  # its squares underflow to 0
        rpath.write_text("\n".join(
            [lines[0]] + [",".join(row) for row in rows]) + "\n")
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: squared returns or residuals underflow")
        assert "for securities [2]" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,knob", [
        ("--qmt", "nan", "q_mt"),
        ("--qmt", "0", "q_mt"),
        ("--qmt", "-1", "q_mt"),
        ("--deltamt", "nan", "delta_mt"),
        ("--deltamt", "-50", "delta_mt"),
        ("--delta", "nan", "threshold_delta"),
        ("--delta", "0", "threshold_delta"),
        ("--delta", "-1", "threshold_delta"),
    ])
    def test_bad_threshold_knob_exits_numeric(self, tmp_path, capsys, flag, value, knob):
        # each would silently empty the multiple-testing step, or write a NaN threshold
        rpath, fpath = null_panel_files(tmp_path, seed=7)
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out), flag, value])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and knob in err
        assert not out.exists()

    def test_eigensolver_failure_exits_numeric(self, tmp_path, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        rpath, fpath = null_panel_files(tmp_path, seed=5)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "r.json"
        code = main(["test", "--returns", str(rpath), "--factors", str(fpath),
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric error: Eigenvalues did not converge\n"
        assert not out.exists()


class TestCmdSize:
    def test_deterministic_output(self, tmp_path):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, cov_model="M3", reps=25, seed=7)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["size", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["size", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_rep_rates_are_binary(self, tmp_path):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=1, seed=8)
        out = tmp_path / "table.csv"
        assert main(["size", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for line in out.read_text().strip().splitlines()[1:]:
            rate = float(line.split(",")[7])
            assert rate in (0.0, 1.0)

    def test_seed_env_override(self, tmp_path, monkeypatch):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=20, seed=9)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["size", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        monkeypatch.setenv("ALPHATEST_SEED", "10")
        assert main(["size", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_seed_flag_beats_seed_env(self, tmp_path, monkeypatch):
        # scenario JSON < ALPHATEST_SEED < --seed
        config = tmp_path / "scenario.json"
        scenario = write_scenario(config, n=20, t=40, reps=20, seed=9)
        monkeypatch.setenv("ALPHATEST_SEED", "10")
        for flags, seed in (([], 10), (["--seed", "11"], 11)):
            out = tmp_path / f"seed{seed}.csv"
            assert main(["size", "--config", str(config), "--out", str(out), *flags]) == EXIT_OK
            spec = ExperimentSpec(scenario=replace(scenario, seed=seed))
            assert out.read_text() == table_to_csv(run_experiment(spec))

    def test_flag_overrides_reach_the_scenario(self, tmp_path):
        config = tmp_path / "scenario.json"
        scenario = write_scenario(config, n=20, t=40, cov_model="M2", m=2, reps=6, seed=4)
        out = tmp_path / "t.csv"
        assert main(["size", "--config", str(config), "--out", str(out), "--freeze-cov",
                     "--fixed-support", "--raw-critical", "--gamma", "0.1"]) == EXIT_OK
        expected = replace(scenario, freeze_cov=True, fixed_support=True,
                           test=Config(gamma=0.1, use_adjusted_critical=False))
        assert out.read_text() == table_to_csv(run_experiment(ExperimentSpec(expected)))

    def test_bad_seed_env_names_the_variable(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=2, seed=9)
        monkeypatch.setenv("ALPHATEST_SEED", "abc")
        code = main(["size", "--config", str(config), "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "error: ALPHATEST_SEED: expected int, got 'abc'\n"

    def test_bad_json_exits_io(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("{not json")
        code = main(["size", "--config", str(config),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO

    @pytest.mark.parametrize("text,key", [
        ('{"T": 40}', "N"),
        ('{"N": 20, "T": 40, "covmodel": "M3"}', "covmodel"),
        ('{"N": 20, "T": 40, "flags": {"freezecov": true}}', "flags.freezecov"),
    ], ids=["missing_n", "unknown_key", "unknown_flag"])
    def test_bad_scenario_key_exits_io(self, tmp_path, capsys, text, key):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        code = main(["size", "--config", str(config),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ('{"N": 20, "T": 40, "flags": {"freezeCov": "false"}}', "flags.freezeCov"),
        ('{"N": 20, "T": 40, "flags": {"fixedSupport": 1}}', "flags.fixedSupport"),
        ('{"N": 30.7, "T": 40}', "N"),
        ('{"N": 20, "T": 40, "reps": true}', "reps"),
    ], ids=["string_flag", "int_flag", "fractional_n", "bool_reps"])
    def test_mistyped_scenario_value_exits_io(self, tmp_path, capsys, text, key):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        code = main(["size", "--config", str(config),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO
        assert f"error: {key}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key,allowed", [
        ('{"N": 20, "T": 40, "covModel": "M9"}', "covModel", "M1, M2, M3, M4"),
        ('{"N": 20, "T": 40, "errorDist": "cauchy"}', "errorDist",
         "normal, t5_scaled, mixture_scaled"),
    ], ids=["cov_model", "error_dist"])
    def test_unknown_model_exits_io(self, tmp_path, capsys, text, key, allowed):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out)])
        assert code == EXIT_IO
        assert f"error: {key}: expected one of {allowed}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_reps_exits_io(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=5, seed=8)
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out),
                     "--reps", "0"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "error: reps: expected an integer >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ('{"N": 20, "T": 40, "seed": -3}', "seed: expected an integer >= 0, got -3"),
        ('{"N": 20, "T": 40, "m": -1}', "m: expected an integer >= 0, got -1"),
        ('{"N": 20, "T": 40, "reps": 0}', "reps: expected an integer >= 1, got 0"),
        ('{"N": 20, "T": 40, "m": 25}', "m: expected an integer <= N=20, got 25"),
        ('{"N": 2, "T": 40}', "N: expected an integer >= 3, got 2"),
    ], ids=["negative_seed", "negative_m", "zero_reps", "m_above_n", "two_securities"])
    def test_out_of_range_scenario_value_exits_io(self, tmp_path, capsys, text, message):
        config = tmp_path / "scenario.json"
        config.write_text(text)
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_flag_exits_io(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=2)
        code = main(["size", "--config", str(config), "--out", str(tmp_path / "t.csv"),
                     "--seed", "-1"])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "error: seed: expected an integer >= 0, got -1\n"

    def test_negative_seed_env_names_the_variable(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=2)
        monkeypatch.setenv("ALPHATEST_SEED", "-1")
        code = main(["size", "--config", str(config), "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == \
            "error: ALPHATEST_SEED: expected an integer >= 0, got -1\n"

    def test_too_few_periods_exits_io(self, tmp_path, capsys):
        # T=8 leaves v = T - p - 1 = 4 with the three factors: an input fault
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=8, reps=2)
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == "error: need T > p + 5, got T=8, p=3\n"
        assert not out.exists()

    def test_nan_qmt_scenario_exits_numeric(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text('{"N": 20, "T": 40, "reps": 2, "qMt": NaN}')
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "q_mt must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_threshold_scenario_exits_numeric(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text('{"N": 20, "T": 40, "reps": 2, "thresholdDelta": 0}')
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "threshold_delta must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_json_exits_io(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("[20, 40]")
        code = main(["size", "--config", str(config),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO


class TestWorkersOption:
    @pytest.mark.parametrize("command", ["size", "power"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_io(self, tmp_path, capsys, command, workers):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=2, seed=12)
        out = tmp_path / "t.csv"
        code = main([command, "--config", str(config), "--out", str(out),
                     "--workers", workers])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: --workers: expected an integer >= 1, got {workers}\n")
        assert not out.exists()

    def test_pool_is_bounded_by_the_tasks(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)))
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=4, seed=12)
        code = main(["size", "--config", str(config), "--out", str(tmp_path / "t.csv"),
                     "--workers", "5000"])
        assert code == EXIT_OK
        assert pool_sizes == [4]


class TestCmdPower:
    def test_writes_table_and_plot_csv(self, tmp_path):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=10, seed=11)
        out = tmp_path / "power.csv"
        code = main(["power", "--config", str(config), "--out", str(out),
                     "--m-grid", "1,3"])
        assert code == EXIT_OK
        assert out.exists()
        plot = tmp_path / "power_plot.csv"
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "m,method,power"
        assert len(lines) == 1 + 2 * 5

    def test_m_grid_range_syntax(self, tmp_path):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=5, seed=12)
        out = tmp_path / "power.csv"
        code = main(["power", "--config", str(config), "--out", str(out),
                     "--m-grid", "1:3"])
        assert code == EXIT_OK
        ms = {line.split(",")[5] for line in out.read_text().strip().splitlines()[1:]}
        assert ms == {"1", "2", "3"}

    @pytest.mark.parametrize("grid,message", [
        ("abc", "expected"), ("5:1", "expected"), ("-1", "expected"),
        ("1,50", "entries must not exceed N=20, got 50\n"),
    ], ids=["not_integer", "empty_range", "negative", "above_n"])
    def test_bad_m_grid_exits_io(self, tmp_path, capsys, grid, message):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=2, seed=12)
        out = tmp_path / "power.csv"
        code = main(["power", "--config", str(config), "--out", str(out),
                     "--m-grid", grid])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("error: --m-grid: " + message)
        assert not out.exists()


class TestCmdGen:
    def test_roundtrip(self, tmp_path):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=15, t=40, m=2, seed=13)
        prefix = str(tmp_path / "data_")
        assert main(["gen", "--config", str(config), "--out-prefix", prefix]) == EXIT_OK
        panel = load_panel(prefix + "returns.csv", prefix + "factors.csv")
        assert panel.n_securities == 15
        assert panel.n_periods == 40
        # determinism: regenerating produces identical files
        prefix2 = str(tmp_path / "again_")
        assert main(["gen", "--config", str(config), "--out-prefix", prefix2]) == EXIT_OK
        assert (tmp_path / "data_returns.csv").read_bytes() == \
            (tmp_path / "again_returns.csv").read_bytes()
