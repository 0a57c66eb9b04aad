"""Cell-by-cell CSV reader, the reference for `panel_io`'s parser, for tests.

`read_csv_matrix` reads the whole file through `csv.reader` and converts
every cell with ``float()`` semantics, naming the first ragged row or
bad cell in file order.  `panel_io` parses most files with numpy's C
reader instead and falls back to this rule for the rest; `load_panel`
here is `panel_io.load_panel` on top of this reader, so the two must
give bit-identical panels or the identical error.
"""

import csv

import numpy as np

from alphatest.errors import ParseError, ShapeMismatch, TooFewObservations
from alphatest.ols import FactorPanel


def read_csv_matrix(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
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
    _, returns_tm = read_csv_matrix(returns_path)
    _, factors_tm = read_csv_matrix(factors_path)
    if returns_tm.shape[0] != factors_tm.shape[0]:
        raise ShapeMismatch(
            f"returns have {returns_tm.shape[0]} periods but factors have "
            f"{factors_tm.shape[0]}"
        )
    t, p = factors_tm.shape
    if t <= p + 5:
        raise TooFewObservations(f"need T > p + 5, got T={t}, p={p}")
    return FactorPanel(returns=returns_tm.T.copy(), factors=factors_tm)
