"""The command line on hostile input: deep expressions, grids that cannot be
built, and fuzzed run files and grid CSVs.  Every call ends in one of the
fixed exit codes with at most one ``error:`` line, and no exception escapes
``main``."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats import cli, config, expressions, timescale
from nablats.cli import main
from nablats.expressions import FUNCTIONS, BinOp, Call, Neg, Num, Var, to_source
from nablats.timescale import from_points

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "scripts" / "sample_config.ini"
SAMPLE_L = 'L = "exp(-t)*(-(v1^2) - x1^2)"'

#: the inputs no recursive walk can take, as (run-file key, expression)
DEEP = {
    "5,000-term L": ("L", "-(v1^2)" + " - 0.001*x1^2" * 4999),
    "1,000 nested brackets": ("L", "-(v1^2) - " + "(" * 1000 + "x1^2" + ")" * 1000),
    "1,000 nested sin": ("L", "-(v1^2) - x1^2 + " + "sin(" * 1000 + "t" + ")" * 1000),
    "1,000 unary minuses": ("L", "-(v1^2) - x1^2 + " + "-" * 1000 + "t"),
    "5,000-term [quad] f": ("f", "1" + " + 0.001*t" * 4999),
}

#: inputs as deep as the walks took before they were guarded: they still solve
SOLVABLE = {
    "300-term sum": "-(v1^2)" + " - 0.001*x1^2" * 299,
    "150 nested brackets": "-(v1^2) - " + "(" * 150 + "x1^2" + ")" * 150,
    "700 unary minuses": "-(v1^2) - x1^2 + " + "-" * 700 + "t",
}


def call(argv):
    """``main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, err):
    assert code in (0, 1, 2, 3, 4), code
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err


def sample_with(tmp_path, key, src, name="deep.ini"):
    """The sample run file with ``L`` or ``[quad] f`` set to ``src``."""
    text = SAMPLE.read_text()
    text = text.replace(SAMPLE_L, f'L = "{src}"') if key == "L" else text.replace('f = "1"', f'f = "{src}"')
    path = tmp_path / name
    path.write_text(text)
    return path


def fresh_process(*argv, cwd):
    """``python -m nablats argv`` in a new process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "nablats", *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.fixture
def sample_run(tmp_path, monkeypatch):
    """Work in tmp_path: the sample's solved trajectory and a spike function."""
    monkeypatch.chdir(tmp_path)
    assert call(["solve", SAMPLE])[0] == 0
    (tmp_path / "spike.csv").write_text("t,f\n" + "".join(f"{t}.0,{float(t == 3)}\n" for t in range(13)))
    return tmp_path


def every_subcommand(config):
    traj = "trajectory.csv"
    return [
        ["quad", config, "--from", "0", "--to", "3"],
        ["solve", config],
        ["check-el", config, "--trajectory", traj],
        ["compare", config, "--candidate", traj, "--star", traj],
        ["lemma", config, "--function", "spike.csv"],
    ]


class TestDeepInput:
    @pytest.mark.parametrize("case", list(DEEP))
    def test_exits_0_or_2_with_one_error_line_on_every_subcommand(self, sample_run, case):
        config = sample_with(sample_run, *DEEP[case])
        for argv in every_subcommand(config):
            code, out, err = call(argv)
            if code != 0:
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("case", list(SOLVABLE))
    def test_inputs_as_deep_as_before_still_solve(self, sample_run, case):
        code, out, err = call(["solve", sample_with(sample_run, "L", SOLVABLE[case])])
        assert (code, err) == (0, "")
        assert "converged: true" in out.splitlines()

    def test_the_next_request_in_the_process_is_untouched(self, tmp_path, monkeypatch):
        expected = fresh_process("solve", SAMPLE, cwd=tmp_path)
        assert expected.returncode == 0
        monkeypatch.chdir(tmp_path)
        shapes = dict(expressions._SHAPES)
        code, out, err = call(["solve", sample_with(tmp_path, *DEEP["5,000-term L"])])
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert expressions._SHAPES.keys() <= shapes.keys()
        assert call(["solve", SAMPLE]) == (0, expected.stdout, "")

    def test_a_shape_whose_lowering_overflowed_serves_the_next_request(self, tmp_path, monkeypatch):
        # the walk stops partway through lowering the sample's own shape: the
        # shape stays cached with a half-lowered program, which the next
        # request of that shape finishes
        expected = fresh_process("solve", SAMPLE, cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(expressions, "_SHAPES", {})
        # a run file loaded earlier in the process holds a problem bound to its shape
        monkeypatch.setattr(config, "_LOADED", {})
        lower, budget = expressions.Program.lower, iter(range(40))

        def overflowing(program, e):
            if next(budget, None) is None:
                raise RecursionError("maximum recursion depth exceeded")
            return lower(program, e)

        monkeypatch.setattr(expressions.Program, "lower", overflowing)
        code, out, err = call(["solve", SAMPLE])
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert len(expressions._SHAPES) == 1
        monkeypatch.setattr(expressions.Program, "lower", lower)
        assert call(["solve", SAMPLE]) == (0, expected.stdout, "")

    def test_a_fresh_process_exits_2_with_one_line(self, sample_run):
        # the deep cases run here in one new process, from a shallow stack
        configs = [sample_with(sample_run, *DEEP[case], name=f"deep{i}.ini") for i, case in enumerate(DEEP)]
        script = (
            "import sys\nfrom nablats.cli import main\n"
            "for config in sys.argv[1:]:\n"
            "    print(main(['quad', config, '--from', '0', '--to', '3']), main(['solve', config]),"
            " file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", script, *map(str, configs)], cwd=sample_run,
                              env=env, capture_output=True, text=True)
        lines = done.stderr.splitlines()
        assert done.returncode == 0 and "Traceback" not in done.stderr
        # per config: the solve's error line, if any, then the codes
        for case in DEEP:
            codes = lines.pop(0)
            while not codes[0].isdigit():
                assert codes.startswith("error: ")
                codes = lines.pop(0)
            quad, solve = map(int, codes.split())
            assert quad in (0, 2) and solve in (0, 2), case

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_config", exhausted)
        assert call(["solve", tmp_path / "any.ini"]) == (2, "", "error: out of memory\n")


class TestGridsThatCannotBeBuilt:
    @pytest.mark.parametrize(
        "grid, message",
        [("family = uniform\na = 3.5\nb = 5\nh = 1e-300",
          "uniform(3.5, 5.0, 1e-300): 1.5e+300 points, more than the limit of 1000000"),
         ("family = integers\na = 0\nb = 10000000",
          "integers(0, 10000000): 10000001 points, more than the limit of 1000000"),
         ("family = sampled_interval\na = 0\nb = 1\nn = 2000000",
          "sampled_interval(0.0, 1.0, 2000000): 2000001 points, more than the limit of 1000000"),
         ("family = q_scale\nq = 2\nt0 = 1\ncount = 2000",
          "q_scale(2.0, 1.0, 2000): the last point t0*q^1999 is not a finite float"),
         ("family = uniform\na = nan\nb = 5\nh = 0.5",
          "uniform(nan, 5.0, 0.5): every argument must be a finite number"),
         ("family = sampled_interval\na = 0\nb = inf\nn = 4",
          "sampled_interval(0.0, inf, 4): every argument must be a finite number")],
    )
    def test_exit_2_with_one_line_naming_the_builder(self, tmp_path, grid, message):
        text = SAMPLE.read_text()
        text = text.replace("family = integers\na = 0\nb = 12", grid)
        (tmp_path / "big.ini").write_text(text)
        for argv in (["quad", tmp_path / "big.ini", "--from", "0", "--to", "1"], ["solve", tmp_path / "big.ini"]):
            assert call(argv) == (2, "", f"error: [timescale]: {message}\n")


# -- the fuzzer -------------------------------------------------------------------

_junk = st.text(alphabet="abcxyz019.,-+*/^()[]=:;# eE\t", max_size=16)
_number = st.one_of(
    st.integers(-3, 60).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-300", "1e300", "-0.0", "nan", "inf", "10000000"]),
)
_value = st.one_of(_number, _junk)


def _leaf(names):
    return st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e300, 1e-300]).map(Num),
        st.floats(-10.0, 10.0).map(Num),
    )


def _branch(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda a: BinOp(*a)),
    )


def _deep(kind, depth):
    if kind == "sum":
        return "-(v1^2)" + " - 0.5*x1^2" * depth
    if kind == "brackets":
        return "(" * depth + "x1" + ")" * depth
    if kind == "sin":
        return "sin(" * depth + "t" + ")" * depth
    if kind == "neg":
        return "-" * depth + "x1"
    return "x1/(1 + " * depth + "v1" + ")" * depth


def _expressions(names):
    """Random trees over ``names`` (mostly), or deep chains."""
    return st.one_of(
        st.recursive(_leaf(names), _branch, max_leaves=8).map(to_source),
        st.just("exp(-0.1*t)*(-(v1^2) - x1^2)"),
        st.tuples(st.sampled_from(["sum", "brackets", "sin", "neg"]),
                  st.sampled_from([3, 30, 300, 5000])).map(lambda a: _deep(*a)),
        # a quotient chain's second partials grow with the cube of its depth
        st.sampled_from([3, 30]).map(lambda depth: _deep("quotient", depth)),
    )


def _grid(draw):
    """A [timescale] section of at most 50 points, and its points."""
    family = draw(st.sampled_from(["integers", "uniform", "sampled_interval", "q_scale", "points"]))
    m, a = draw(st.integers(1, 49)), draw(st.integers(-5, 5))
    if family == "points":
        points = [a + 0.5 * i for i in range(m + 1)]
        kinds = draw(st.lists(st.sampled_from("sd"), min_size=m, max_size=m))
        keys = {"points": ", ".join(map(repr, points)), "gap_kinds": ", ".join(kinds)}
        ts = from_points(points, kinds)
    else:
        keys = {
            "integers": {"a": a, "b": a + m},
            "uniform": {"a": a, "b": a + m * 0.5, "h": 0.5},
            "sampled_interval": {"a": a, "b": a + draw(st.integers(1, 9)), "n": m},
            "q_scale": {"q": draw(st.sampled_from([1.5, 2.0, 3.0])), "t0": 1, "count": m + 1},
        }[family]
        ts = getattr(timescale, family)(*keys.values())
    return {"family": family, **{k: str(v) for k, v in keys.items()}}, ts.points


def _ini(sections) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@st.composite
def run_files(draw):
    """A run file and its grid points: each section present or not, with
    drawn values; then up to two flaws (a value replaced by a drawn number or
    junk, a key dropped, a stray key or section)."""
    n = draw(st.integers(1, 3))
    names = ["t", "z"] + [f"{s}{i}" for s in "xv" for i in range(1, n + 1)]
    grid, points = _grid(draw)
    point = st.sampled_from(points[1:])
    floats = st.floats(-2.0, 2.0)
    x_a = draw(st.lists(floats, min_size=n, max_size=n))
    sections = {"timescale": grid}
    if draw(st.integers(0, 9)):
        sections["problem"] = {
            "n": str(n),
            "L": draw(_expressions(names)),
            "g": draw(st.one_of(st.just("0"), _expressions(names[:1] + names[2:]))),
            "x_a": ", ".join(map(repr, x_a)),
            "sense": draw(st.sampled_from(["max", "min"])),
        }
    if draw(st.integers(0, 4)):
        sections["solve"] = {
            "T_trunc": repr(draw(point)),
            "max_iters": str(draw(st.integers(1, 30))),
            "terminal": draw(st.one_of(st.just("free"), st.lists(floats, min_size=n, max_size=n).map(
                lambda v: "pinned: " + ", ".join(map(repr, v))))),
            "grad_tol": draw(st.sampled_from(["1e-9", "1e-6"])),
            "truncations": ", ".join(map(repr, sorted(set(draw(st.lists(point, min_size=1, max_size=3)))))),
        }
    if draw(st.booleans()):
        sections["report"] = {"tolerance": draw(st.sampled_from(["1e-6", "1e-3", "0"]))}
    if draw(st.integers(0, 4)):
        sections["quad"] = {"f": draw(_expressions(["t"]))}
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        keys = sections[draw(st.sampled_from(sorted(sections)))]
        flaw = draw(st.sampled_from(["value", "value", "drop", "stray key", "stray section"]))
        if flaw == "stray section":
            sections[draw(_junk)] = {draw(_junk): draw(_value)}
        elif flaw == "stray key" or not keys:
            keys[draw(st.sampled_from(["a", "q", "bogus", "L", "precondition"]))] = draw(_value)
        elif flaw == "drop":
            del keys[draw(st.sampled_from(sorted(keys)))]
        else:
            keys[draw(st.sampled_from(sorted(keys)))] = draw(_value)
    return _ini(sections), points, x_a


def _grid_csv(data, header, points, first):
    """A grid CSV on ``points`` whose first row holds ``first``, or a broken
    one: another header, a ragged or malformed row, a missing or off-grid row."""
    rows = [[repr(t)] + [repr(data.draw(st.floats(-2.0, 2.0))) for _ in first] for t in points]
    rows[0][1:] = map(repr, first)
    flaw = data.draw(st.sampled_from(["none"] * 6 + ["header", "ragged", "cell", "missing", "off-grid"]))
    if flaw == "header":
        header = data.draw(st.lists(_junk, max_size=3))
    elif flaw == "ragged":
        rows[-1].append("1.0")
    elif flaw == "cell":
        rows[data.draw(st.integers(0, len(rows) - 1))][-1] = data.draw(_value)
    elif flaw == "missing":
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    elif flaw == "off-grid":
        rows[-1][0] = repr(float(rows[-1][0]) + 0.25)
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in rows)


@given(run=run_files(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_subcommand_on_a_fuzzed_run_file_exits_cleanly(run, data):
    text, points, x_a = run
    bound = st.one_of(st.sampled_from(points), st.floats(-5.0, 60.0)).map(repr)
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a run file without [report] writes its outputs here
        try:
            Path("run.ini").write_text(text)
            for name in ("a.csv", "b.csv"):
                Path(name).write_text(_grid_csv(data, ["t"] + [f"x{i + 1}" for i in range(len(x_a))], points, x_a))
            Path("f.csv").write_text(_grid_csv(data, ["t", "f"], points, [data.draw(st.floats(-2.0, 2.0))]))
            form = data.draw(st.sampled_from(["pointwise", "integral", "finite"]))
            tprime = data.draw(st.one_of(st.just([]), st.tuples(st.just("--Tprime"), bound)))
            tol = data.draw(st.one_of(st.just([]), st.tuples(st.just("--tol"), st.floats().map(repr))))
            for argv in (
                ["quad", "run.ini", "--from", data.draw(bound), "--to", data.draw(bound)],
                ["solve", "run.ini"],
                ["check-el", "run.ini", "--trajectory", "a.csv", "--form", form, *tprime],
                ["compare", "run.ini", "--candidate", "a.csv", "--star", "b.csv"],
                ["lemma", "run.ini", "--function", "f.csv", *tol],
            ):
                code, _, err = call(argv)
                assert_clean(code, err)
        finally:
            os.chdir(cwd)
