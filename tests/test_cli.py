import json

import numpy as np
import pytest

from alphatest.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from alphatest.dgp import gen_alpha, gen_betas, gen_errors, gen_factors, assemble_panel
from alphatest.harness import ScenarioConfig
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
        assert isinstance(report["metadata"]["repaired"], bool)
        assert 0 <= report["metadata"]["mt_survivors"] <= 30 * 29 // 2

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

    def test_zero_reps_exits_numeric(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        write_scenario(config, n=20, t=40, reps=5, seed=8)
        out = tmp_path / "t.csv"
        code = main(["size", "--config", str(config), "--out", str(out),
                     "--reps", "0"])
        assert code == EXIT_NUMERIC
        assert "replication" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_json_exits_io(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text("[20, 40]")
        code = main(["size", "--config", str(config),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_IO


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
