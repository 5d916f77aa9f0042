"""What one process keeps between requests, seen from outside.

``config.load_config`` keeps the last run file's ``RunConfig`` by its text,
and the CLI keeps what it builds from a grid CSV's text (the validated
values, and ``check-el``'s report) in that config's ``memo``.  No request
may tell: every call prints, writes and exits as it does in a process that
has kept nothing, and no other module-level container changes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats import config
from nablats.cli import main

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "scripts" / "sample_config.ini"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

#: two run files on one grid of seven points; sqrt(x1) leaves its domain on a
#: negative state, so some requests exit 3
RUNS = {
    "a": ("[timescale]\nfamily = integers\na = -3\nb = 3\n\n[problem]\nn = 1\n"
          "L = \"sqrt(x1) - v1^2\"\ng = \"0\"\nx_a = 1.0\n\n[report]\nreport_out = {work}/residuals.csv\n"),
    "b": ("[timescale]\nfamily = integers\na = -3\nb = 3\n\n[problem]\nn = 1\n"
          "L = \"exp(-t)*(-(v1^2) - x1^2)\"\ng = \"0\"\nx_a = 1.0\n\n[report]\n"
          "tolerance = 0.5\nreport_out = {work}/residuals.csv\n"),
}
#: the run files' grid, and points off it
GRIDS = {"on": range(-3, 4), "off": range(0, 7)}


def _csv(header, grid, values, ragged):
    rows = [f"{float(t)!r},{v!r}" for t, v in zip(GRIDS[grid], values)]
    if ragged:
        rows[3] += ",0.0"
    return "".join(f"{line}\n" for line in [header, *rows])


_values = st.lists(st.sampled_from([1.0, 1.25, 1.5, 0.5] * 3 + [-1.0, 0.0]), min_size=6, max_size=6)
_edits = st.tuples(st.just("edit"), st.sampled_from(["x.csv", "y.csv", "f.csv"]),
                   st.sampled_from(["on"] * 5 + ["off"]), _values, st.sampled_from([False] * 5 + [True]))
_runs = st.sampled_from(["a.ini", "b.ini"])
_check_el = st.builds(
    lambda run, x, form, tp: ["check-el", run, "--trajectory", x, "--form", form, *tp],
    _runs, st.sampled_from(["x.csv", "y.csv"]), st.sampled_from(["pointwise", "integral", "finite"]),
    st.sampled_from([[]] * 2 + [["--Tprime", "0.0"]] * 2 + [["--Tprime", "-0.0"]] * 2 + [["--Tprime", "1"]]))
_compare = st.builds(lambda run, a, b: ["compare", run, "--candidate", a, "--star", b],
                     _runs, st.sampled_from(["x.csv", "y.csv"]), st.sampled_from(["x.csv", "y.csv"]))
_lemma = st.builds(lambda run, f: ["lemma", run, "--function", f], _runs, st.sampled_from(["f.csv", "x.csv"]))
#: each round: an edit or none, then a request
_rounds = st.lists(st.tuples(st.none() | _edits, st.one_of(_check_el, _check_el, _compare, _lemma)),
                   min_size=6, max_size=14)


def _play(work, steps, forget):
    """Each step's (exit code, stdout, stderr, report bytes) in ``work``, set up
    anew; ``forget`` clears the loaded run file before every call."""
    for name, text in RUNS.items():
        (work / f"{name}.ini").write_text(text.format(work=work))
    for name, header in (("x.csv", "t,x1"), ("y.csv", "t,x1"), ("f.csv", "t,f")):
        (work / name).write_text(_csv(header, "on", [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0], False))
    report = work / "residuals.csv"
    report.unlink(missing_ok=True)
    seen = []
    for step in steps:
        if step[0] == "edit":
            _, name, grid, values, ragged = step
            header = "t,f" if name == "f.csv" else "t,x1"
            (work / name).write_text(_csv(header, grid, [1.0, *values], ragged))
            continue
        if forget:
            config._LOADED.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(work / arg) if arg.endswith((".ini", ".csv")) else arg for arg in step])
        seen.append((step, code, out.getvalue(), err.getvalue(),
                     report.read_bytes() if report.exists() else None))
    return seen


@given(rounds=_rounds)
@settings(max_examples=200, deadline=None)
def test_requests_read_the_same_as_in_a_process_that_keeps_nothing(rounds):
    steps = [step for pair in rounds for step in pair if step is not None]
    with tempfile.TemporaryDirectory() as tmp:
        config._LOADED.clear()
        kept = _play(Path(tmp), steps, forget=False)
        assert kept == _play(Path(tmp), steps, forget=True)


ROUND = """
import json, sys
import nablats.calculus, nablats.fundamental, nablats.solver, nablats.timescale
from nablats.cli import main

def containers():
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "nablats" or name.startswith("nablats."):
            for attr, value in vars(module).items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    items = value.items() if isinstance(value, dict) else [value]
                    found[f"{name}.{attr}"] = (value, [x for pair in items for x in pair])
    return found

before = containers()
sample = sys.argv[1]
for argv in (["solve", sample], ["check-el", sample, "--trajectory", "trajectory.csv"],
             ["compare", sample, "--candidate", "trajectory.csv", "--star", "trajectory.csv"],
             ["lemma", sample, "--function", "f.csv"], ["quad", sample, "--from", "0", "--to", "3"]):
    assert main(argv) == 0, argv
after = containers()
changed = [name for name in sorted(before.keys() | after.keys())
           if name not in before or name not in after
           or len(before[name][1]) != len(after[name][1])
           or any(a is not b for a, b in zip(before[name][1], after[name][1]))]
print(json.dumps(changed))
"""


def test_a_round_of_every_subcommand_changes_only_the_run_file_and_shape_caches(tmp_path):
    # in a new process, so no earlier test has filled a cache already
    (tmp_path / "f.csv").write_text("t,f\n" + "".join(f"{t}.0,{float(t == 3)}\n" for t in range(13)))
    done = subprocess.run([sys.executable, "-c", ROUND, str(SAMPLE)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == ["nablats.config._LOADED", "nablats.expressions._SHAPES"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("argv", [
    ["solve"],
    ["check-el", "--trajectory", "trajectory.csv", "--form", "integral"],
    ["compare", "--candidate", "trajectory.csv", "--star", "trajectory.csv"],
    ["lemma", "--function", "f.csv"],
    ["quad", "--from", "0", "--to", "3"],
])
def test_a_run_file_read_from_dev_stdin_reads_as_the_run_file_by_path(tmp_path, argv):
    (tmp_path / "f.csv").write_text("t,f\n" + "".join(f"{t}.0,{(t - 5) ** 2 - 9}.0\n" for t in range(13)))
    assert subprocess.run([sys.executable, "-m", "nablats", "solve", str(SAMPLE)], cwd=tmp_path,
                          env=ENV, capture_output=True, timeout=300).returncode == 0
    outputs = ("trajectory.csv", "horizon.csv", "residuals.csv")

    def fresh(config_arg, stdin):
        for name in outputs if argv[0] == "solve" else outputs[1:]:
            (tmp_path / name).unlink(missing_ok=True)
        done = subprocess.run([sys.executable, "-m", "nablats", argv[0], config_arg, *argv[1:]],
                              cwd=tmp_path, env=ENV, input=stdin, capture_output=True, timeout=300)
        files = {name: (tmp_path / name).read_bytes() for name in outputs if (tmp_path / name).exists()}
        return done.returncode, done.stdout, done.stderr, files

    by_path = fresh(str(SAMPLE), b"")
    assert by_path[0] == 0 and by_path[2] == b""
    assert fresh("/dev/stdin", SAMPLE.read_bytes()) == by_path
