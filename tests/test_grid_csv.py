"""The grid-CSV reader against the row-by-row reference reader.

``variational._read_grid_csv`` checks each rule of the format in one pass
over all rows; ``csv_reference.read_grid_csv_rows`` reads one row at a time
and stops at the first row that breaks a rule.  On every file both must give
the same array bits, or the same error with the same text (line numbers
included).
"""

import csv
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reference import read_grid_csv_rows
from nablats import variational
from nablats.timescale import from_points, integers, uniform
from nablats.variational import AdmissibilityError, _read_grid_csv

_ENDINGS = ("\n", "\r\n", "\r")
_JUNK = ("", " ", "abc", "x1", "True", "1_0", "0x10", "0x1p3", "١٢", "∞", "1e-400", "1e400", " nan ",
         "-inf", "+Infinity", "1,0", "1..0", "1e", ".", "-", "1\x00", "\x0c2\x0b")


def _outcome(reader, ts, path, columns):
    try:
        arr = reader(ts, path, columns, "trajectory")
    except (AdmissibilityError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "array", arr.shape, arr.dtype.str, arr.tobytes()


@st.composite
def _cell(draw, text):
    """``text`` as a CSV cell: as is, padded with spaces or quoted."""
    form = draw(st.sampled_from(["plain"] * 40 + ["spaces"] * 3 + ["quoted"] * 3
                                + ["doubled quote", "stray quote", "quoted newline", "junk"]))
    if form == "spaces":
        return draw(st.sampled_from([" ", "\t"])) + text + draw(st.sampled_from(["", " "]))
    if form == "quoted":
        return f'"{text}"'
    if form == "doubled quote":
        return f'"{text}"""'
    if form == "stray quote":
        return f'{text}"'
    if form == "quoted newline":
        return f'"{text}{draw(st.sampled_from(_ENDINGS))}"'
    if form == "junk":
        return draw(st.sampled_from(_JUNK))
    return text


@st.composite
def grid_csv_files(draw):
    """A grid, the value columns and the text of a CSV for them: mostly well
    formed, with drawn line endings, blank lines, padded or quoted cells,
    and now and then a wrong header, a ragged, missing, repeated or
    off-grid row."""
    m = draw(st.integers(1, 8))
    if draw(st.booleans()):
        ts = integers(0, m)
    else:
        ts = from_points([0.1 * i for i in range(m + 1)], draw(st.lists(st.sampled_from("sd"), min_size=m,
                                                                        max_size=m)))
    columns = [f"x{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    header = ["t", *columns]
    if draw(st.integers(0, 9)) == 9:
        header = draw(st.sampled_from([header[:-1], [" t", *columns], ['"t"', *columns], [], header + ["x9"]]))
    rows = [[repr(t)] + [repr(draw(st.floats(-3.0, 3.0))) for _ in columns] for t in ts.points]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        flaw = draw(st.sampled_from(["ragged long", "ragged short", "missing", "repeated", "off-grid"]))
        i = draw(st.integers(0, len(rows) - 1))
        if flaw == "ragged long":
            rows[i].append("1.0")
        elif flaw == "ragged short" and len(rows[i]) > 1:
            rows[i].pop()
        elif flaw == "missing" and len(rows) > 1:
            del rows[i]
        elif flaw == "repeated":
            rows.insert(i, list(rows[i]))
        elif flaw == "off-grid":
            rows[i][0] = repr(float(rows[i][0]) + 0.25)
    lines = [",".join(header)] + [",".join(draw(_cell(c)) for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):  # blank or blank-looking lines, mostly after the header
        where = draw(st.sampled_from([*range(1, len(lines) + 1)] * 4 + [0]))
        lines.insert(where, draw(st.sampled_from(["", "", "", " ", ","])))
    text = "".join(line + draw(st.sampled_from(_ENDINGS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return ts, columns, text


@given(case=grid_csv_files())
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_row_by_row_reference(case, tmp_path_factory):
    ts, columns, text = case
    path = tmp_path_factory.getbasetemp() / "grid.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    expected = _outcome(read_grid_csv_rows, ts, path, columns)
    assert _outcome(_read_grid_csv, ts, path, columns) == expected


def _read(tmp_path, text, ts=None, columns=("x1",)):
    path = tmp_path / "grid.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    ts = ts or integers(0, 2)
    return _read_grid_csv(ts, path, list(columns), "trajectory")


@pytest.mark.parametrize("ending", _ENDINGS)
def test_line_endings_blank_lines_and_quoted_cells_are_read(tmp_path, ending):
    text = ending.join(["t,x1", "", "0.0, 1.5", '"1.0","-2"', "", "2.0,3e0", ""])
    arr = _read(tmp_path, text)
    assert arr.tolist() == [[1.5], [-2.0], [3.0]]


@pytest.mark.parametrize("text, message", [
    ("t,x1\n0,1\n1,2,3\n2,3\n", "trajectory line 3 has 3 cells, the header has 2"),
    ("t,x1\n0,1\n\n1,abc\n2,3,4\n", "trajectory line 4: could not convert string to float: 'abc'"),
    # a quoted cell that spans two lines: the next row starts on line 4
    ('t,x1\n"0\n",1\n1,x\n2,3\n', "trajectory line 4: could not convert string to float: 'x'"),
    ("t,x1\r\n0,1\r\n1,2\r\n", "trajectory has 2 rows, grid has 3 points"),
    ("t,x1\r1,1\r1,2\r2,3\r", "trajectory row at t=1.0 does not match grid point 0.0"),
    ("x1,t\n", "bad trajectory header ['x1', 't'], expected ['t', 'x1']"),
    ("", "bad trajectory header None, expected ['t', 'x1']"),
])
def test_each_rule_names_the_first_offending_line(tmp_path, text, message):
    with pytest.raises(AdmissibilityError) as info:
        _read(tmp_path, text)
    assert str(info.value) == message


def test_read_values_keep_their_bits(tmp_path):
    values = [5e-324, -0.0, 0.1 + 0.2, 1.7976931348623157e308, float("nan")]
    ts = integers(0, len(values) - 1)
    text = "t,x1\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in zip(ts.points, values))
    arr = _read(tmp_path, text, ts)
    assert arr[:, 0].tobytes() == np.array(values).tobytes()


class TestReuse:
    """A text already read and validated for the same grid object and the
    same columns, at any path, returns the same read-only array unparsed;
    anything else is parsed and checked as on a first read."""

    TEXT = "t,x1\r\n0.0,1.5\r\n1.0,-2.0\r\n2.0,3.0\r\n"

    @staticmethod
    def write(path, text):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return path

    @staticmethod
    def read(ts, path, columns=("x1",)):
        return _read_grid_csv(ts, path, list(columns), "trajectory")

    def test_unchanged_bytes_return_the_same_array_unparsed(self, tmp_path, monkeypatch):
        ts = integers(0, 2)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        arr = self.read(ts, path)
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
        assert self.read(ts, path) is arr
        # the same bytes at another path are a hit too
        assert self.read(ts, self.write(tmp_path / "copy.csv", self.TEXT)) is arr
        assert calls == []
        assert arr.tolist() == [[1.5], [-2.0], [3.0]]

    def test_a_file_rewritten_in_place_is_parsed_again(self, tmp_path):
        ts = integers(0, 2)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        first = self.read(ts, path)
        # the same length and the same modification time: only the bytes differ
        stamp = path.stat()
        self.write(path, self.TEXT.replace("-2.0", "-7.0"))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        second = self.read(ts, path)
        assert second.tolist() == [[1.5], [-7.0], [3.0]]
        assert first.tolist() == [[1.5], [-2.0], [3.0]]

    @pytest.mark.parametrize("bad, message", [
        ("0.0,1.5\r\n1.0,-2.0,9\r\n", "trajectory line 3 has 3 cells, the header has 2"),
        ("1.0,-2.0\r\n", "trajectory line 3: could not convert string to float: 'x'"),
    ])
    def test_a_malformed_file_raises_the_same_error_on_every_call_and_is_never_kept(
            self, tmp_path, bad, message):
        ts = integers(0, 2)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        arr = self.read(ts, path)
        text = self.TEXT.replace("0.0,1.5\r\n1.0,-2.0\r\n", bad).replace("2.0,3.0", "2.0,x")
        self.write(path, text)
        kept = dict(variational._CSVS)
        for _ in range(3):
            with pytest.raises(AdmissibilityError) as info:
                self.read(ts, path)
            assert str(info.value) == message
        assert variational._CSVS == kept
        # the file restored reads from its entry again
        assert self.read(ts, self.write(path, self.TEXT)) is arr

    def test_the_same_bytes_under_another_grid_are_checked_against_it(self, tmp_path):
        path = self.write(tmp_path / "x.csv", self.TEXT)
        first = self.read(integers(0, 2), path)
        # an equal grid of a new run file: parsed anew, the same values
        again = self.read(integers(0, 2), path)
        assert again is not first and again.tobytes() == first.tobytes()
        with pytest.raises(AdmissibilityError, match="trajectory has 3 rows, grid has 4 points"):
            self.read(integers(0, 3), path)
        with pytest.raises(AdmissibilityError, match="row at t=1.0 does not match grid point 0.5"):
            self.read(uniform(0.0, 1.0, 0.5), path)
        with pytest.raises(AdmissibilityError, match="bad trajectory header"):
            self.read(integers(0, 2), path, columns=("f",))

    def test_a_returned_array_cannot_be_changed(self, tmp_path):
        ts = integers(0, 2)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        for arr in (self.read(ts, path), self.read(ts, path)):  # a miss, then a hit
            with pytest.raises(ValueError, match="read-only"):
                arr[1, 0] = 9.0
        assert self.read(ts, path).tolist() == [[1.5], [-2.0], [3.0]]

    def test_the_process_keeps_a_few_entries_and_lets_the_rest_go(self, tmp_path):
        grids = [integers(0, 2) for _ in range(variational.CSVS_KEPT + 2)]
        path = self.write(tmp_path / "x.csv", self.TEXT)
        first = weakref.ref(grids[0])
        for ts in grids:
            self.read(ts, path)
        assert len(variational._CSVS) == variational.CSVS_KEPT
        del grids[0]
        gc.collect()
        assert first() is None

    def test_dev_stdin_is_read_as_a_trajectory(self, tmp_path):
        run = tmp_path / "run.ini"
        run.write_text("[timescale]\nfamily = integers\na = 0\nb = 2\n\n[problem]\nn = 1\n"
                       "L = \"-(v1^2)\"\ng = \"0\"\nx_a = 1.5\n\n[report]\n"
                       f"report_out = {tmp_path / 'residuals.csv'}\n")
        path = self.write(tmp_path / "x.csv", self.TEXT)
        # one process: a read at a path, then the same bytes through /dev/stdin
        script = (
            "import sys\nfrom nablats.cli import main\n"
            "run, path = sys.argv[1:]\n"
            "print(main(['compare', run, '--candidate', path, '--star', path]))\n"
            "print(main(['compare', run, '--candidate', '/dev/stdin', '--star', path]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(variational.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(run), str(path)], input=self.TEXT,
                              capture_output=True, text=True, env=env, timeout=120)
        summary = "margin: 0.0\ntolerance: 1e-06\nstatus: PASS\n0\n"
        assert (done.returncode, done.stdout, done.stderr) == (0, summary * 2, "")
        for argv in (["check-el", str(run), "--trajectory", "/dev/stdin"],
                     ["compare", str(run), "--candidate", "/dev/stdin", "--star", str(path)]):
            done = subprocess.run([sys.executable, "-m", "nablats", *argv], input=self.TEXT,
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode in (0, 1) and done.stderr == "" and "status: " in done.stdout
