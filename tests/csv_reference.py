"""The tests' reference grid-CSV reader: one row at a time.

``read_grid_csv_rows(ts, path, columns, what)`` reads a CSV of the header
t,columns on the grid ``ts`` row by row, ``csv.reader`` line by line and
``float`` cell by cell, and raises ``AdmissibilityError`` at the first row
that breaks the format.  The library's reader (``variational._read_grid_csv``)
checks each rule in one pass over all rows; it must give the same array bits,
or the same error text with the same line number, on every file.
"""

import csv

import numpy as np

from nablats.timescale import TimeScale
from nablats.variational import AdmissibilityError


def read_grid_csv_rows(ts: TimeScale, path, columns: list[str], what: str) -> np.ndarray:
    expected = ["t", *columns]
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != expected:
            raise AdmissibilityError(f"bad {what} header {header!r}, expected {expected!r}")
        rows = []
        for row in filter(None, rd):
            if len(row) != len(expected):
                raise AdmissibilityError(f"{what} line {rd.line_num} has {len(row)} cells, "
                                         f"the header has {len(expected)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise AdmissibilityError(f"{what} line {rd.line_num}: {exc}") from None
    if len(rows) != len(ts):
        raise AdmissibilityError(f"{what} has {len(rows)} rows, grid has {len(ts)} points")
    arr = np.array(rows)
    bad = np.flatnonzero(arr[:, 0] != ts.points_array)
    if bad.size:
        raise AdmissibilityError(f"{what} row at t={float(arr[bad[0], 0])!r} does not match "
                                 f"grid point {ts.points[bad[0]]!r}")
    return arr[:, 1:]
