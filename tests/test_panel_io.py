import numpy as np
import pytest

from alphatest.errors import ParseError, ShapeMismatch, TooFewObservations
from alphatest.panel_io import load_panel, write_panel, write_text_atomic
from alphatest.ols import FactorPanel


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def well_formed_pair(tmp_path, t=10, n=3, p=2, seed=0):
    rng = np.random.default_rng(seed)
    returns = rng.standard_normal((t, n))
    factors = rng.standard_normal((t, p))
    rpath = tmp_path / "returns.csv"
    fpath = tmp_path / "factors.csv"
    write_csv(rpath, [f"sec{i}" for i in range(n)], returns)
    write_csv(fpath, [f"factor{k}" for k in range(p)], factors)
    return rpath, fpath, returns, factors


class TestLoadPanel:
    def test_well_formed(self, tmp_path):
        rpath, fpath, returns, factors = well_formed_pair(tmp_path)
        panel = load_panel(str(rpath), str(fpath))
        assert panel.n_securities == 3
        assert panel.n_periods == 10
        assert panel.n_factors == 2
        assert np.allclose(panel.returns, returns.T)
        assert np.allclose(panel.factors, factors)

    def test_shape_mismatch(self, tmp_path):
        rpath, fpath, _, factors = well_formed_pair(tmp_path)
        write_csv(fpath, ["factor0", "factor1"], factors[:-1])
        with pytest.raises(ShapeMismatch):
            load_panel(str(rpath), str(fpath))

    def test_nan_cell_named(self, tmp_path):
        rpath, fpath, returns, _ = well_formed_pair(tmp_path)
        rows = returns.tolist()
        rows[3][1] = "NaN"
        write_csv(rpath, ["sec0", "sec1", "sec2"], rows)
        with pytest.raises(ParseError) as err:
            load_panel(str(rpath), str(fpath))
        assert "row 5" in str(err.value)
        assert "sec1" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        rpath, fpath, returns, _ = well_formed_pair(tmp_path)
        rows = returns.tolist()
        rows[0][0] = "oops"
        write_csv(rpath, ["sec0", "sec1", "sec2"], rows)
        with pytest.raises(ParseError):
            load_panel(str(rpath), str(fpath))

    @pytest.mark.parametrize("cell,message", [
        ("oops", "row 6, column 'sec2': cannot parse 'oops'"),
        ("inf", "row 6, column 'sec2': non-finite value 'inf'"),
        ("-nan", "row 6, column 'sec2': non-finite value '-nan'"),
    ])
    def test_bad_cell_position(self, tmp_path, cell, message):
        rpath, fpath, returns, _ = well_formed_pair(tmp_path)
        rows = returns.tolist()
        rows[4][2] = cell
        rows[7][0] = "later"  # the first bad cell in file order is named
        write_csv(rpath, ["sec0", "sec1", "sec2"], rows)
        with pytest.raises(ParseError) as err:
            load_panel(str(rpath), str(fpath))
        assert str(err.value) == f"{rpath}: {message}"

    def test_cells_parse_as_float_does(self, tmp_path):
        rpath, fpath, returns, _ = well_formed_pair(tmp_path)
        rows = returns.tolist()
        rows[0][0] = "1_000"
        rows[1][1] = "  2.5\t"
        rows[2][2] = "-1e-3 "
        write_csv(rpath, ["sec0", "sec1", "sec2"], rows)
        panel = load_panel(str(rpath), str(fpath))
        assert (panel.returns[0, 0], panel.returns[1, 1], panel.returns[2, 2]) == (
            1000.0, 2.5, -1e-3)
        expect = returns.T.copy()
        expect[0, 0], expect[1, 1], expect[2, 2] = 1000.0, 2.5, -1e-3
        np.testing.assert_array_equal(panel.returns, expect)

    def test_ragged_row(self, tmp_path):
        rpath, fpath, _, _ = well_formed_pair(tmp_path)
        rpath.write_text("a,b,c\n1,2\n")
        with pytest.raises(ParseError):
            load_panel(str(rpath), str(fpath))

    def test_too_few_observations(self, tmp_path):
        rpath, fpath, _, _ = well_formed_pair(tmp_path, t=7, p=2)
        with pytest.raises(TooFewObservations):
            load_panel(str(rpath), str(fpath))


class TestWritePanel:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        panel = FactorPanel(returns=rng.standard_normal((4, 12)),
                            factors=rng.standard_normal((12, 3)))
        rpath = tmp_path / "r.csv"
        fpath = tmp_path / "f.csv"
        write_panel(panel, str(rpath), str(fpath))
        loaded = load_panel(str(rpath), str(fpath))
        assert np.array_equal(loaded.returns, panel.returns)
        assert np.array_equal(loaded.factors, panel.factors)


class TestWriteTextAtomic:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert not (tmp_path / "out.txt.tmp").exists()
