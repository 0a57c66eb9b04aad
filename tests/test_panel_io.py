import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import csv_reference
from alphatest.errors import AlphatestError, ParseError, ShapeMismatch, TooFewObservations
from alphatest.panel_io import _read_csv_matrix, load_panel, write_panel, write_text_atomic
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

    def test_failed_write_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(str(target), "a\ud800")  # a lone surrogate cannot be encoded
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # a file cannot replace a directory
        with pytest.raises(OSError):
            write_text_atomic(str(target), "hello\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_foreign_temp_file_is_left_alone(self, tmp_path):
        target = tmp_path / "out.txt"
        other = tmp_path / "out.txt.tmp"
        other.write_text("another writer\n")
        write_text_atomic(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        assert other.read_text() == "another writer\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]


# A grammar of CSV files: numbers as written by %.17g, integers and
# hand-written mantissa/exponent forms, padded with spaces, tabs or
# no-break spaces; the odd cells float() accepts or rejects; headers; and
# line structure (CRLF, lone CR, blank lines, missing final newline,
# ragged rows, header-only and empty files).
PADS = st.sampled_from(["", "", " ", "\t", "\xa0", " \t"])
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-(10**20), 10**20).map(str),
    st.builds(lambda sign, mantissa, e, exp: f"{sign}{mantissa}{e}{exp}",
              st.sampled_from(["", "+", "-"]),
              st.sampled_from(["0", "1.5", ".5", "5.", "007", "12345678901234567890.5"]),
              st.sampled_from(["e", "E"]),
              st.sampled_from(["0", "-3", "+12", "308", "-320", "400"])),
)
ODD_CELLS = st.sampled_from([
    "1_000", "-2_5.5", "1__0", "\u0661\u0662", "\uff11.5", "\u0663e2", "1\u0662",
    "nan", "-NaN", "inf", "-Infinity", "1e999", "", " ", '"1.5"', '" 2"', '"3,5"',
    '"a""b"', '"7', "#", "#1", "1#", "oops", "1e", "0x10", "1 2", ".", "1,5",
])
NAMES = st.sampled_from(["a", "sec1", " x ", "#", "f\xa0", "\u00e9", "", '"q"', '"a,b"', '"h'])


@st.composite
def csv_texts(draw, n_rows=None):
    """One CSV file's text; `n_rows` fixes the number of data rows."""
    width = draw(st.integers(1, 4))
    named = draw(st.booleans())  # header names from NAMES, else c0, c1, ...
    odd = draw(st.sampled_from([0, 0, 1, 4]))  # odd cells per 8, on average
    data_width = draw(st.sampled_from([width, width, width, width + 1, width - 1]))
    if n_rows is None:
        n_rows = draw(st.integers(0, 6))
    lines = [",".join(draw(NAMES) if named else f"c{j}" for j in range(width))]
    for _ in range(n_rows):
        row_width = data_width + draw(st.sampled_from([0] * 14 + [-1, 1]))
        lines.append(",".join(
            draw(PADS) + draw(ODD_CELLS if draw(st.integers(0, 7)) < odd else NUMBERS)
            + draw(PADS) for _ in range(max(row_width, 0))))
    if not draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, end, "", end + end]))
    return draw(st.sampled_from([text] * 8 + ["", lines[0] + end]))


# files the C reader must not decide alone
EDGE_TEXTS = [
    "", "a\n", "a,b\n\n", "\n\n", "\n1\n", "a,b\n1,2\n\n", "a,b\n\n1,2\n", "a\r\n\r\n",
    '"h\n1\n2\n', '"a\nb",c\n1,2\n', '"a,b",c\n1,2\n', 'a\n"1"\n', "a,b\n1,2,3\n",
    "a,b\n1\n", "a,b,c\n1,2\n3,4\n", "a\n  \n", "a\n1_0\n", "a\n\u0661\n", "a\n\xa01\xa0\n",
    "a\nnan\n", "a\n1e999\n", "a\n#1\n", "a\n1\r2\n", "a\n1\x0c2\n", "a\n1\u20282\n",
    "a\n1\x00\n", "a,b\r1,2\r3,4", "\ufeffa\n1\n", "a\n-0\n",
    # a cell longer than csv's field limit (131072 characters); quoted, or
    # unquoted with a value that overflows to inf, it takes the csv.reader path
    pytest.param('a,b\n"' + "1" * 200_000 + '",2\n', id="quoted-cell-over-field-limit"),
    pytest.param("a,b\n" + "1" * 200_000 + ",2\n", id="unquoted-cell-over-field-limit"),
    pytest.param("a" * 200_000 + "\n1\n", id="header-over-field-limit"),
]


def outcome(fn, *args):
    """`fn`'s result, or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except AlphatestError as exc:
        return type(exc), str(exc)


def assert_same_matrix(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple) and isinstance(want[0], type):  # an error
        assert got == want
        return
    (header, data), (header_ref, data_ref) = got, want
    assert header == header_ref
    assert data.dtype == data_ref.dtype and data.shape == data_ref.shape
    assert data.tobytes() == data_ref.tobytes()


def assert_reader_matches_reference(path, text):
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # such as numpy's on a file without data
        got = outcome(_read_csv_matrix, str(path))
    try:
        want = outcome(csv_reference.read_csv_matrix, str(path))
    except csv.Error as exc:  # the one intended divergence: a cell over csv's field limit
        want = ParseError, f"{path}: {exc}"
    assert_same_matrix(got, want)


class TestParserMatchesReference:
    @given(csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_reader(self, tmp_path_factory, text):
        assert_reader_matches_reference(tmp_path_factory.mktemp("csv") / "m.csv", text)

    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_reader_on_edge_cases(self, tmp_path, text):
        assert_reader_matches_reference(tmp_path / "m.csv", text)

    @given(st.integers(0, 12).flatmap(lambda t: st.tuples(csv_texts(t), csv_texts(t))))
    @settings(max_examples=100, deadline=None)
    def test_load_panel(self, tmp_path_factory, texts):
        folder = tmp_path_factory.mktemp("pair")
        paths = [str(folder / "returns.csv"), str(folder / "factors.csv")]
        for path, text in zip(paths, texts):
            with open(path, "wb") as handle:
                handle.write(text.encode("utf-8"))
        got = outcome(load_panel, *paths)
        want = outcome(csv_reference.load_panel, *paths)
        if isinstance(want, FactorPanel):
            assert isinstance(got, FactorPanel)
            assert got.returns.tobytes() == want.returns.tobytes()
            assert got.factors.tobytes() == want.factors.tobytes()
        else:
            assert got == want

    @given(st.integers(3, 6).flatmap(lambda n: arrays(
        float, (n, 9), elements=st.floats(allow_nan=False, allow_infinity=False))),
        arrays(float, (9, 2), elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_write_panel_round_trip_is_bit_exact(self, tmp_path_factory, returns, factors):
        folder = tmp_path_factory.mktemp("trip")
        paths = [str(folder / "r.csv"), str(folder / "f.csv")]
        panel = FactorPanel(returns=returns, factors=factors)
        write_panel(panel, *paths)
        for loaded in (load_panel(*paths), csv_reference.load_panel(*paths)):
            assert loaded.returns.tobytes() == panel.returns.tobytes()
            assert loaded.factors.tobytes() == panel.factors.tobytes()
