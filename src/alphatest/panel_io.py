"""CSV panel serialization.

Returns and factor files are time-major: one header row, then T data
rows; returns columns are securities, factor columns are factors.
Numbers are written with 17 significant digits so a write/read round
trip reproduces every float bit-exactly.
"""

import csv
import os
import secrets

import numpy as np

from .errors import ParseError, ShapeMismatch, TooFewObservations
from .ols import FactorPanel

__all__ = ["load_panel", "write_panel", "write_text_atomic"]


def _read_csv_matrix(path: str) -> tuple[list[str], np.ndarray]:
    """Header and data rows of a CSV file of numbers.

    A file without quotes or blank lines is parsed by numpy's C reader,
    and that result is kept only if it has one finite number per header
    cell on every line.  Any other file goes through `csv.reader` and
    ``float()`` cell by cell, which define what is accepted and name the
    first bad cell; the C reader accepts a subset of that, with the same
    values.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = handle.readlines()  # the lines csv.reader reads
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # loadtxt would skip a blank line, which is a ragged row here
    blank = ("\n", "\r\n", "\r")
    if len(lines) >= 2 and not any('"' in line or line in blank for line in lines):
        header = _csv_rows(path, lines[:1])[0]
        try:
            data = np.loadtxt(lines[1:], delimiter=",", comments=None, quotechar=None,
                              ndmin=2, dtype=float)
        except ValueError:
            data = None
        if (data is not None and data.shape == (len(lines) - 1, len(header))
                and np.isfinite(data).all()):
            return header, data
    rows = _csv_rows(path, lines)
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = rows[0]
    try:
        # one conversion for all cells; it accepts exactly what float() does
        data = np.array(rows[1:], dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1:] != (len(header),) or not np.isfinite(data).all():
        _raise_first_bad_cell(path, header, rows)
    return header, data


def _csv_rows(path: str, lines: list[str]) -> list[list[str]]:
    """`csv.reader`'s rows of `lines`; a cell over its field limit is a ParseError."""
    try:
        return list(csv.reader(lines))
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _raise_first_bad_cell(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Raise the error of the first ragged row or bad cell, in file order."""
    width = len(header)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i}, column {header[j]!r}: cannot parse {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"{path}: row {i}, column {header[j]!r}: non-finite value {cell!r}"
                )


def load_panel(returns_path: str, factors_path: str) -> FactorPanel:
    """Read a returns/factors CSV pair into a validated panel."""
    _, returns_tm = _read_csv_matrix(returns_path)
    _, factors_tm = _read_csv_matrix(factors_path)
    if returns_tm.shape[0] != factors_tm.shape[0]:
        raise ShapeMismatch(
            f"returns have {returns_tm.shape[0]} periods but factors have "
            f"{factors_tm.shape[0]}"
        )
    t, p = factors_tm.shape
    if t <= p + 5:
        raise TooFewObservations(f"need T > p + 5, got T={t}, p={p}")
    return FactorPanel(returns=returns_tm.T.copy(), factors=factors_tm)


def write_panel(panel: FactorPanel, returns_path: str, factors_path: str) -> None:
    """Write a panel as a time-major returns/factors CSV pair."""
    for path, label, matrix in ((returns_path, "sec", panel.returns.T),
                                (factors_path, "factor", panel.factors)):
        lines = [",".join(f"{label}{k + 1}" for k in range(matrix.shape[1]))]
        lines += [",".join(f"{v:.17g}" for v in row) for row in matrix]
        write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so partial files are never left.

    The temp file is new and unique, next to `path`; it is removed if
    anything fails, and the error is raised again.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
