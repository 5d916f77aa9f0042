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
from nablats import cli, config, variational
from nablats.timescale import from_points, integers, uniform
from nablats.variational import AdmissibilityError, _read_grid_csv, _read_text

_ENDINGS = ("\n", "\r\n", "\r")
_JUNK = ("", " ", "abc", "x1", "True", "1_0", "0x10", "0x1p3", "١٢", "∞", "1e-400", "1e400", " nan ",
         "-inf", "+Infinity", "1,0", "1..0", "1e", ".", "-", "1\x00", "\x0c2\x0b")


def _outcome(read):
    try:
        arr = read()
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
    expected = _outcome(lambda: read_grid_csv_rows(ts, path, columns, "trajectory"))
    assert _outcome(lambda: _read_grid_csv(ts, _read_text(path), columns, "trajectory")) == expected


def _read(text, ts=None, columns=("x1",)):
    return _read_grid_csv(ts or integers(0, 2), text, list(columns), "trajectory")


@pytest.mark.parametrize("ending", _ENDINGS)
def test_line_endings_blank_lines_and_quoted_cells_are_read(ending):
    text = ending.join(["t,x1", "", "0.0, 1.5", '"1.0","-2"', "", "2.0,3e0", ""])
    arr = _read(text)
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
def test_each_rule_names_the_first_offending_line(text, message):
    with pytest.raises(AdmissibilityError) as info:
        _read(text)
    assert str(info.value) == message


def test_read_values_keep_their_bits():
    values = [5e-324, -0.0, 0.1 + 0.2, 1.7976931348623157e308, float("nan")]
    ts = integers(0, len(values) - 1)
    text = "t,x1\r\n" + "".join(f"{t!r},{v!r}\r\n" for t, v in zip(ts.points, values))
    arr = _read(text, ts)
    assert arr[:, 0].tobytes() == np.array(values).tobytes()


class TestReuse:
    """A text already read and validated as a trajectory (or a function) on a
    run file's grid, at any path, returns the same read-only array unparsed
    while that run file's text repeats; anything else is parsed and checked
    as on a first read."""

    TEXT = "t,x1\r\n0.0,1.5\r\n1.0,-2.0\r\n2.0,3.0\r\n"
    RUN = "[timescale]\nfamily = integers\na = 0\nb = 2\n\n[problem]\nn = 1\nL = \"-(v1^2)\"\nx_a = 1.5\n"

    @staticmethod
    def write(path, text):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return path

    def load(self, tmp_path, text=RUN):
        return config.load_config(self.write(tmp_path / "run.ini", text))

    @staticmethod
    def read(rc, path, what="trajectory"):
        return cli._grid_values(rc, _read_text(path), what)

    def test_unchanged_bytes_return_the_same_array_unparsed(self, tmp_path, monkeypatch):
        rc = self.load(tmp_path)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        arr = self.read(rc, path)
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
        assert self.read(rc, path) is arr
        # the same bytes at another path are a hit too
        assert self.read(rc, self.write(tmp_path / "copy.csv", self.TEXT)) is arr
        # and so is the same run file loaded again
        assert self.read(self.load(tmp_path), path) is arr
        assert calls == []
        assert arr.tolist() == [[1.5], [-2.0], [3.0]]

    def test_a_file_rewritten_in_place_is_parsed_again(self, tmp_path):
        rc = self.load(tmp_path)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        first = self.read(rc, path)
        # the same length and the same modification time: only the bytes differ
        stamp = path.stat()
        self.write(path, self.TEXT.replace("-2.0", "-7.0"))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        second = self.read(rc, path)
        assert second.tolist() == [[1.5], [-7.0], [3.0]]
        assert first.tolist() == [[1.5], [-2.0], [3.0]]

    @pytest.mark.parametrize("bad, message", [
        ("0.0,1.5\r\n1.0,-2.0,9\r\n", "trajectory line 3 has 3 cells, the header has 2"),
        ("1.0,-2.0\r\n", "trajectory line 3: could not convert string to float: 'x'"),
    ])
    def test_a_malformed_file_raises_the_same_error_on_every_call_and_is_never_kept(
            self, tmp_path, bad, message):
        rc = self.load(tmp_path)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        arr = self.read(rc, path)
        text = self.TEXT.replace("0.0,1.5\r\n1.0,-2.0\r\n", bad).replace("2.0,3.0", "2.0,x")
        self.write(path, text)
        kept = list(rc.memo.items())
        for _ in range(3):
            with pytest.raises(AdmissibilityError) as info:
                self.read(rc, path)
            assert str(info.value) == message
        assert list(rc.memo.items()) == kept
        # the file restored reads from its entry again
        assert self.read(rc, self.write(path, self.TEXT)) is arr

    def test_the_same_bytes_under_a_new_run_file_are_checked_against_its_grid(self, tmp_path):
        path = self.write(tmp_path / "x.csv", self.TEXT)
        first = self.read(self.load(tmp_path), path)
        # an equal grid of a new run file: parsed anew, the same values
        again = self.read(self.load(tmp_path, self.RUN + "; another run file\n"), path)
        assert again is not first and again.tobytes() == first.tobytes()
        with pytest.raises(AdmissibilityError, match="trajectory has 3 rows, grid has 4 points"):
            self.read(self.load(tmp_path, self.RUN.replace("b = 2", "b = 3")), path)
        uniform_run = self.RUN.replace("integers", "uniform").replace("b = 2", "b = 1\nh = 0.5")
        with pytest.raises(AdmissibilityError, match="row at t=1.0 does not match grid point 0.5"):
            self.read(self.load(tmp_path, uniform_run), path)
        rc = self.load(tmp_path)
        self.read(rc, path)
        with pytest.raises(AdmissibilityError, match="bad function header"):
            self.read(rc, path, what="function")

    def test_a_returned_array_cannot_be_changed(self, tmp_path):
        rc = self.load(tmp_path)
        path = self.write(tmp_path / "x.csv", self.TEXT)
        for arr in (self.read(rc, path), self.read(rc, path)):  # a miss, then a hit
            with pytest.raises(ValueError, match="read-only"):
                arr[1, 0] = 9.0
        assert self.read(rc, path).tolist() == [[1.5], [-2.0], [3.0]]

    def test_a_run_file_keeps_a_few_entries_and_a_replaced_one_lets_them_go(self, tmp_path):
        rc = self.load(tmp_path)
        texts = [self.TEXT.replace("1.5", repr(1.5 + i)) for i in range(cli.MEMO_KEPT + 2)]
        arrays = [self.read(rc, self.write(tmp_path / "x.csv", text)) for text in texts]
        assert len(rc.memo) == cli.MEMO_KEPT
        assert list(rc.memo.values()) == arrays[-cli.MEMO_KEPT:]
        first = weakref.ref(rc)
        del rc, arrays
        self.load(tmp_path, self.RUN + "; another run file\n")
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
