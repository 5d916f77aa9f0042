"""End-to-end tests of the command-line front end (in-process)."""

import configparser
import contextlib
import csv
import gc
import io
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats import cli, config, expressions, solver, variational
from nablats.cli import main
from nablats.calculus import GridFunction, nabla_integral
from nablats.config import ConfigError, load_config
from nablats.expressions import FUNCTIONS, BinOp, Call, Neg, Num, Var, to_source
from nablats.solver import FREE, SolveOptions, direct_solve
from nablats.timescale import integers
from nablats.variational import (
    Problem,
    Trajectory,
    el_report_indices,
    finite_horizon_el_residual,
    trajectory_to_csv,
)
from tree_walk import tree_walk

BASE_INI = """
[timescale]
family = integers
a = 0
b = 5

[problem]
n = 1
L = "-(v1^2)"
g = "0"
x_a = 0.0

[solve]
T_trunc = 5
terminal = pinned: 5.0
grad_tol = 1e-10

[report]
tolerance = 1e-6
trajectory_out = {dir}/trajectory.csv
horizon_out = {dir}/horizon.csv
report_out = {dir}/residuals.csv

[quad]
f = "1"
"""


def write_ini(tmp_path, body=BASE_INI, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body).format(dir=tmp_path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_problem():
    return Problem.from_strings(integers(0, 5), 1, "-(v1^2)", "0", [0.0])


def write_trajectory(tmp_path, name, values):
    p = base_problem()
    traj = Trajectory.from_values(p, np.asarray(values, dtype=float).reshape(-1, 1))
    path = tmp_path / name
    trajectory_to_csv(traj, path)
    return str(path)


MIXED_INI = """
[timescale]
family = points
points = 0, 0.25, 0.5, 1, 2, 3, 3.5, 4, 4.5, 6
gap_kinds = d, d, s, s, s, d, d, d, s

[problem]
n = 2
L = "exp(-0.3*t)*(-(v1^2) - x1^2 - v2^2 + 0.5*x1*x2) - 0.1*z"
g = "x1^2 + x2*v1"
x_a = 1.0, -0.5

[report]
report_out = {dir}/residuals.csv
"""


class TestQuad:
    def test_unit_integrand_over_three_steps(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        code, out, _ = run(capsys, "quad", cfg, "--from", "0", "--to", "3")
        assert code == 0
        assert out.strip() == "3.00000000000000"

    def test_equal_bounds_prints_zero(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        code, out, _ = run(capsys, "quad", cfg, "--from", "2", "--to", "2")
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_off_grid_bound_exits_2_naming_the_value(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        code, _, err = run(capsys, "quad", cfg, "--from", "0", "--to", "0.5")
        assert code == 2
        assert "0.5" in err

    def test_non_finite_integrand_exits_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, BASE_INI.replace('f = "1"', 'f = "1/(t-2)"'))
        code, _, err = run(capsys, "quad", cfg, "--from", "0", "--to", "3")
        assert code == 3
        assert err == "error: integrand '1.0/(t - 2.0)' is non-finite at t=2.0\n"

    @given(f=st.recursive(
        st.one_of(st.just(Var("t")), st.floats(-4.0, 4.0).map(Num), st.sampled_from([0.0, 1.0, 2.0]).map(Num)),
        lambda children: st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda a: BinOp(*a)),
        ),
        max_leaves=10,
    ), body=st.sampled_from([BASE_INI, MIXED_INI]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_kernel_integral_has_the_bits_of_the_oracle_integral(self, f, body, data):
        # the integrand through the compiled kernel against the tree walk of
        # the parsed f, integrated by the same nabla_integral
        source = to_source(f)
        body = body.replace('f = "1"', f'f = "{source}"') if "[quad]" in body else f'{body}\n[quad]\nf = "{source}"\n'
        integrated = []

        def recording(*args):
            integrated.append((args, nabla_integral(*args)))
            return integrated[-1][1]

        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_ini(Path(tmp), body)
            rc = load_config(cfg)
            points = rc.timescale.points
            a, b = sorted(data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
            with mock.patch.object(cli, "nabla_integral", recording), \
                    contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(["quad", cfg, "--from", repr(a), "--to", repr(b)])
        walk = np.broadcast_to(tree_walk(rc.quad_f, {"t": rc.timescale.points_array}), (len(points),))
        bad = ~np.isfinite(walk)
        if bad.any():
            t = points[int(np.argmax(bad))]
            assert (code, out.getvalue(), integrated) == (3, "", [])
            assert err.getvalue() == f"error: integrand '{to_source(rc.quad_f)}' is non-finite at t={t!r}\n"
            return
        expected = nabla_integral(GridFunction.scalar(rc.timescale, walk), a, b)
        assert (code, err.getvalue()) == (0, "")
        [((integrand, *bounds), value)] = integrated
        assert bounds == [a, b] and _bits(integrand.values[:, 0]) == _bits(walk)
        assert _bits(value) == _bits(expected)
        assert out.getvalue() == cli._fmt(float(expected[0])) + "\n"


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestCheckEl:
    def test_linear_trajectory_passes(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        code, out, _ = run(capsys, "check-el", cfg, "--trajectory", traj)
        assert code == 0
        assert "status: PASS" in out

    def test_perturbation_fails_and_localizes(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        clean = write_trajectory(tmp_path, "clean.csv", [0, 1, 2, 3, 4, 5])
        bumped = write_trajectory(tmp_path, "bumped.csv", [0, 1, 3, 3, 4, 5])

        def pointwise_rows():
            with open(tmp_path / "residuals.csv", newline="") as fh:
                return {
                    float(row["t"]): float(row["value"])
                    for row in csv.DictReader(fh)
                    if row["kind"] == "el_pointwise"
                }

        code, _, _ = run(capsys, "check-el", cfg, "--trajectory", clean)
        assert code == 0
        clean_rows = pointwise_rows()

        code, out, _ = run(capsys, "check-el", cfg, "--trajectory", bumped)
        assert code == 1
        assert "status: FAIL" in out
        bumped_rows = pointwise_rows()

        # residual at t uses x(t-2h)..x(t); bumping x(2) touches t in {2,3,4}
        assert set(clean_rows) == set(bumped_rows)
        for t in (2.0, 3.0, 4.0):
            assert abs(bumped_rows[t] - clean_rows[t]) > 0.5
        for t in set(clean_rows) - {2.0, 3.0, 4.0}:
            assert bumped_rows[t] == clean_rows[t]

    def test_missing_trajectory_file_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        code, _, err = run(capsys, "check-el", cfg, "--trajectory", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "Traceback" not in err

    def test_a_ragged_trajectory_row_exits_2_naming_its_line(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        path = tmp_path / "ragged.csv"
        path.write_text("t,x1\n0.0,0.0\n1.0,1.0\n2.0,2.0,7.0\n3.0,3.0\n4.0,4.0\n5.0,5.0\n")
        code, out, err = run(capsys, "check-el", cfg, "--trajectory", str(path))
        assert (code, out) == (2, "")
        assert err == "error: trajectory line 4 has 3 cells, the header has 2\n"

    def test_integral_and_finite_forms_pass_on_extremal(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        for form in ("integral", "finite"):
            code, out, _ = run(capsys, "check-el", cfg, "--trajectory", traj, "--form", form)
            assert code == 0, form
            assert f"form: {form}" in out

    @pytest.mark.parametrize("T_prime", [None, "3.5"])
    def test_finite_form_reports_the_pointwise_statistic(self, tmp_path, capsys, T_prime):
        cfg = write_ini(tmp_path, MIXED_INI)
        p = load_config(cfg).require_problem()
        vals = np.random.default_rng(4).uniform(-1.0, 1.0, (len(p.ts), 2))
        vals[0] = p.x_a
        path = tmp_path / "x.csv"
        trajectory_to_csv(Trajectory.from_values(p, vals), path)
        extra = [] if T_prime is None else ["--Tprime", T_prime]
        stats = {}
        for form in ("pointwise", "finite"):
            code, out, _ = run(capsys, "check-el", cfg, "--trajectory", str(path), "--form", form, *extra)
            assert code == 1
            stats[form] = float(dict(line.split(": ", 1) for line in out.splitlines())["max_residual"])
        assert stats["finite"] == stats["pointwise"]
        # the oracle: the finite-horizon residual at every reported point up to T'
        x = Trajectory.from_values(p, vals)
        T = p.ts.points[-1] if T_prime is None else float(T_prime)
        k = p.ts.index_of(T)
        expected = max(
            float(np.max(np.abs(finite_horizon_el_residual(p, x, T, p.ts.points[j]))))
            for j in el_report_indices(p.ts, k)
        )
        assert stats["finite"] == expected

    def test_overflowing_pairing_writes_inf_and_nothing_on_stderr(self, tmp_path):
        # x = 1e300 at t = 5 against Lv = 1e10*cos(v1): T1 overflows there
        body = BASE_INI.replace("b = 5", "b = 10").replace('"-(v1^2)"', '"1e10*sin(v1)"')
        cfg = write_ini(tmp_path, body)
        p = Problem.from_strings(integers(0, 10), 1, "1e10*sin(v1)", "0", [0.0])
        vals = np.zeros(11)
        vals[5] = 1e300
        traj = tmp_path / "x.csv"
        trajectory_to_csv(Trajectory.from_values(p, vals), traj)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "nablats", "check-el", cfg, "--trajectory", str(traj)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.stderr == ""
        assert done.returncode == 1
        assert "status: FAIL" in done.stdout
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert "5.0,10.0,0,-inf,trans_T1" in lines

    def test_nan_residual_row_fails(self, tmp_path, capsys):
        # the tail integral overflows at t = 3 only: rows 3 and 4 are NaN, row 2 is 0
        cfg = write_ini(tmp_path, BASE_INI.replace('"-(v1^2)"', '"z*1e308*cos(pi*(t-1)/3)"'))
        traj = write_trajectory(tmp_path, "x.csv", [0, 0, 0, 0, 0, 0])
        code, out, err = run(capsys, "check-el", cfg, "--trajectory", traj)
        assert code == 1
        assert "max_residual: nan" in out
        assert "status: FAIL" in out
        assert err == ""
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert "3.0,5.0,1,nan,el_pointwise" in lines

    def test_off_grid_Tprime_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        code, _, err = run(capsys, "check-el", cfg, "--trajectory", traj, "--Tprime", "2.5")
        assert code == 2
        assert "2.5" in err


class TestSolve:
    def test_writes_trajectory_and_horizon_files(self, tmp_path, capsys):
        body = BASE_INI.replace("T_trunc = 5", "T_trunc = 5\ntruncations = 3, 5")
        cfg = write_ini(tmp_path, body)
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        assert "converged: true" in out

        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1"]
        assert len(rows) == 7  # header + 6 grid points
        values = np.array([[float(c) for c in r] for r in rows[1:]])
        assert np.max(np.abs(values[:, 1] - values[:, 0])) <= 1e-8  # x = t

        with open(tmp_path / "horizon.csv", newline="") as fh:
            hrows = list(csv.DictReader(fh))
        assert list(hrows[0]) == [
            "T_trunc", "max_el_residual", "trans_T1", "trans_T2",
            "objective", "trans_applicable",
        ]
        assert [float(r["T_trunc"]) for r in hrows] == [3.0, 5.0]
        assert all(r["trans_applicable"] == "false" for r in hrows)  # pinned terminal
        assert all(float(r["max_el_residual"]) <= 1e-8 for r in hrows)

    @pytest.mark.parametrize(
        "T_trunc, cuts, solved",
        [(5.0, "3, 5", [3.0, 5.0]), (4.0, "3, 5", [4.0, 3.0, 5.0]), (3.0, "3, 5", [3.0, 5.0])],
    )
    def test_each_horizon_is_solved_once(self, tmp_path, capsys, monkeypatch, T_trunc, cuts, solved):
        calls, starts = [], []
        original = solver.direct_solve

        def counting(p, opts, with_info=False, **shared):
            calls.append(opts.T_trunc)
            starts.append(shared.get("_start"))
            return original(p, opts, with_info, **shared)

        monkeypatch.setattr(solver, "direct_solve", counting)
        monkeypatch.setattr(cli, "direct_solve", counting)
        body = (
            BASE_INI.replace("T_trunc = 5", f"T_trunc = {T_trunc}\ntruncations = {cuts}")
            .replace("pinned: 5.0", "free\ngradient = analytic")
            .replace('L = "-(v1^2)"', 'L = "-(v1^2) - (x1 - 1)^2"')
        )
        cfg = write_ini(tmp_path, body)
        code, out, _ = run(capsys, "solve", cfg)
        assert code == 0
        assert calls == solved
        # the two cuts of the free end start from one shared pass
        study = starts[-2:]
        assert study[0] is not None and study[1] is study[0]
        assert starts[:-2] == [None] * (len(solved) - 2)
        # the written trajectory and the summary are those of the T_trunc solve
        rc = load_config(cfg)
        traj, info = original(rc.problem, rc.options, with_info=True)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert np.array_equal(np.array([[float(r[1])] for r in rows]), traj.values)
        assert f"iterations: {info.iterations}" in out
        assert f"objective: {info.objective!r}" in out

    def test_rows_past_the_truncation_are_never_evaluated(self, tmp_path, capsys):
        # sqrt(6.5 - t) is NaN at t = 7 and 8, rows the problem truncated at 6
        # never reads: the solve, its horizon table and check-el at T' = 6 pass
        body = (
            BASE_INI.replace("b = 5", "b = 8")
            .replace('L = "-(v1^2)"', 'L = "exp(-0.1*t)*(-(v1^2) - x1^2) + 1e-3*sqrt(6.5 - t)"')
            .replace("x_a = 0.0", "x_a = 1.0")
            .replace("T_trunc = 5", "T_trunc = 6\ntruncations = 3, 6")
            .replace("pinned: 5.0", "free")
        )
        cfg = write_ini(tmp_path, body)
        code, out, err = run(capsys, "solve", cfg)
        assert (code, err) == (0, "")
        assert "converged: true" in out
        code, out, err = run(capsys, "check-el", cfg, "--trajectory", str(tmp_path / "trajectory.csv"),
                             "--form", "finite", "--Tprime", "6")
        assert (code, err) == (0, "")
        assert "status: PASS" in out
        with open(tmp_path / "horizon.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[-1]
        assert f"max_residual: {row['max_el_residual']}" in out

    def test_sample_config_says_why_it_stopped(self, tmp_path, capsys, monkeypatch):
        sample = Path(__file__).resolve().parents[1] / "scripts" / "sample_config.ini"
        monkeypatch.chdir(tmp_path)  # the sample writes its outputs to the working directory
        code, out, _ = run(capsys, "solve", str(sample))
        assert code == 0
        assert "iterations: 2\nconverged: true\nstop_reason: grad_tol\n" in out

    def test_search_overflowing_the_objective_sum_says_so(self, tmp_path, capsys):
        # L is unbounded above (z grows like x^2, so -x*z like -x^3): a Newton
        # step lands where every term is finite but their sum overflows
        body = (
            BASE_INI.replace('L = "-(v1^2)"', 'L = "-(v1^2)-x1^2 - x1*z"')
            .replace('g = "0"', 'g = "x1^2"')
            .replace("x_a = 0.0", "x_a = 1.0")
            .replace("pinned: 5.0", "free\nprecondition = true")
        )
        code, out, err = run(capsys, "solve", write_ini(tmp_path, body))
        assert code == 3
        assert out == ""
        assert err == "error: z or the objective overflows during the search\n"

    def test_search_leaving_the_domain_reports_a_plain_time(self, tmp_path, capsys):
        # the Newton step from x1 = 1 is -19/21; twice that leaves the domain
        # of log at the one free row that L reads, x1(rho(2))
        body = (
            BASE_INI.replace('L = "-(v1^2)"', 'L = "log(x1) - 10*x1^2"')
            .replace("b = 5", "b = 2")
            .replace("x_a = 0.0", "x_a = 1.0")
            .replace("T_trunc = 5", "T_trunc = 2")
            .replace("pinned: 5.0", "free\nstep_init = 2")
        )
        code, out, err = run(capsys, "solve", write_ini(tmp_path, body))
        assert code == 3
        assert out == ""
        assert err == (
            "error: objective integrand 'log(x1) - 10.0*x1^2.0' is non-finite at t=2.0 "
            "during the search\n"
        )

    def test_non_finite_derivative_pass_exits_3_without_warnings(self, tmp_path, capsys):
        # every L_z = 1e308*cos(pi*(t-1)/3) is finite, but the tail sums of
        # w*L_z overflow from t = 3 down: the search stops on the first pass
        # instead of stepping on with NaN
        body = BASE_INI.replace('L = "-(v1^2)"', 'L = "z*1e308*cos(pi*(t-1)/3)"').replace(
            "pinned: 5.0", "free"
        )
        cfg = write_ini(tmp_path, body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", cfg)
        assert caught == []
        assert (code, out) == (3, "")
        assert err == "error: the tail sum of w*L_z is non-finite at t=1.0 during the search\n"

    def test_solved_trajectory_passes_check_el(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        code, _, _ = run(capsys, "solve", cfg)
        assert code == 0
        code, out, _ = run(
            capsys, "check-el", cfg, "--trajectory", str(tmp_path / "trajectory.csv")
        )
        assert code == 0
        assert "status: PASS" in out

    def test_a_lagrangian_singular_at_the_start_passes_its_own_checks(self, tmp_path, capsys):
        # -x1^2/t is not finite at t = 0, the right-scattered start, whose
        # term carries zero weight: solve never evaluates it, and neither do
        # check-el in any form, compare or the truncated objective
        body = (BASE_INI.replace('L = "-(v1^2)"', 'L = "-(v1^2) - x1^2/t"')
                .replace("b = 5", "b = 6").replace("x_a = 0.0", "x_a = 1.0")
                .replace("T_trunc = 5\nterminal = pinned: 5.0", "T_trunc = 6\nterminal = free"))
        cfg = write_ini(tmp_path, body)
        code, out, err = run(capsys, "solve", cfg)
        assert (code, err) == (0, "")
        assert "objective: -1.4739186931501764\n" in out
        traj = str(tmp_path / "trajectory.csv")
        for form in ("pointwise", "integral", "finite"):
            code, out, err = run(capsys, "check-el", cfg, "--trajectory", traj, "--form", form)
            assert (code, err) == (0, "")
            assert "status: PASS" in out
        code, out, err = run(capsys, "compare", cfg, "--candidate", traj, "--star", traj)
        assert (code, out, err) == (0, "margin: 0.0\ntolerance: 1e-06\nstatus: PASS\n", "")
        p = load_config(cfg).require_problem()
        x = variational.trajectory_from_csv(p, traj)
        assert variational.evaluate_functional_partial(p, x, 6.0) == -1.4739186931501764


class TestLemma:
    def test_zero_function_exits_4(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        path = tmp_path / "zero.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "f"])
            for t in range(6):
                wr.writerow([float(t), 0.0])
        code, out, _ = run(capsys, "lemma", cfg, "--function", str(path))
        assert code == 4
        assert "zero" in out

    def test_spike_reports_case_point_and_value(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        path = tmp_path / "spike.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "f"])
            for t in range(6):
                wr.writerow([float(t), 2.0 if t == 3 else 0.0])
        code, out, _ = run(capsys, "lemma", cfg, "--function", str(path))
        assert code == 0
        assert "case_tag: SCATTERED_SPIKE" in out
        assert "t0: 3.0" in out
        assert "witness_value: 4.00000000000000" in out

    def test_dense_bump_reports_positive_value(self, tmp_path, capsys):
        body = """
        [timescale]
        family = sampled_interval
        a = 0
        b = 1
        n = 4
        """
        cfg = write_ini(tmp_path, body)
        path = tmp_path / "ramp.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "f"])
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                wr.writerow([t, t])
        code, out, _ = run(capsys, "lemma", cfg, "--function", str(path))
        assert code == 0
        assert "case_tag: LEFT_DENSE_BUMP" in out
        value = float(next(l.split(":")[1] for l in out.splitlines() if l.startswith("witness_value")))
        assert value > 0.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_function_exits_2(self, tmp_path, capsys, value):
        # without the bad value at t = 4, the spikes at 3 and 5 have a witness
        cfg = write_ini(tmp_path, BASE_INI.replace("b = 5", "b = 10"))
        path = tmp_path / "f.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "f"])
            for t in range(11):
                wr.writerow([float(t), {3: "0.5", 4: value, 5: "0.5"}.get(t, "0.0")])
        code, out, err = run(capsys, "lemma", cfg, "--function", str(path))
        assert (code, out, err) == (2, "", "error: function contains non-finite values\n")

    def test_a_ragged_function_row_exits_2_naming_its_line(self, tmp_path, capsys):
        # a third cell was dropped without a word, and the spike at t = 5 reported
        cfg = write_ini(tmp_path)
        path = tmp_path / "ragged.csv"
        path.write_text("t,f\n0.0,0.0\n1.0,0.0\n2.0,0.0\n3.0,0.0,9.0\n4.0,0.0\n5.0,2.0\n")
        code, out, err = run(capsys, "lemma", cfg, "--function", str(path))
        assert (code, out) == (2, "")
        assert err == "error: function line 5 has 3 cells, the header has 2\n"

    @pytest.mark.parametrize("row, message", [
        ("3.0,0.0,9.0", "function line 5 has 3 cells, the header has 2"),
        ("3.0,x", "function line 5: could not convert string to float: 'x'"),
    ])
    def test_a_bad_function_row_read_from_a_pipe_exits_2_naming_its_line(self, tmp_path, row, message):
        # the file is read once: a pipe is empty the second time
        cfg = write_ini(tmp_path)
        text = f"t,f\n0.0,0.0\n1.0,0.0\n2.0,0.0\n{row}\n4.0,0.0\n5.0,2.0\n"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "nablats", "lemma", cfg, "--function", "/dev/stdin"],
            input=text, capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    def test_a_pairing_past_the_largest_float_exits_3_naming_t0(self, tmp_path):
        # the spike's pairing is 1e300^2: numpy warned and lemma printed inf with exit 0
        cfg = write_ini(tmp_path, BASE_INI.replace("b = 5", "b = 12"))
        path = tmp_path / "f.csv"
        path.write_text("t,f\n" + "".join(f"{t}.0,{1e300 if t == 3 else 0.0!r}\n" for t in range(13)))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "nablats", "lemma", cfg, "--function", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: the witness pairing at t0=3.0 is past the largest float\n")

    def test_wrong_grid_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        path = tmp_path / "short.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "f"])
            wr.writerow([0.0, 1.0])
        code, _, err = run(capsys, "lemma", cfg, "--function", str(path))
        assert code == 2
        assert "Traceback" not in err


class TestCompare:
    def test_identical_files_margin_zero(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        a = write_trajectory(tmp_path, "a.csv", [0, 1, 2, 3, 4, 5])
        code, out, _ = run(capsys, "compare", cfg, "--candidate", a, "--star", a)
        assert code == 0
        assert "margin: 0.0" in out

    def test_perturbed_candidate_loses_to_optimum(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        p = base_problem()
        star_traj = direct_solve(
            p, SolveOptions(T_trunc=5.0, terminal_mode=FREE, grad_tol=1e-12)
        )
        star = str(tmp_path / "star.csv")
        trajectory_to_csv(star_traj, star)
        worse = star_traj.values.copy()
        worse[3, 0] += 0.5
        cand = write_trajectory(tmp_path, "cand.csv", worse)
        code, out, _ = run(capsys, "compare", cfg, "--candidate", cand, "--star", star)
        assert code == 0
        margin = float(next(l.split(":")[1] for l in out.splitlines() if l.startswith("margin")))
        assert margin < 0.0

    def test_better_candidate_fails_with_positive_margin(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        bad_star = write_trajectory(tmp_path, "star.csv", [0, 0, 0, 3, 3, 3])
        good = write_trajectory(tmp_path, "cand.csv", [0, 0.6, 1.2, 1.8, 2.4, 3.0])
        code, out, _ = run(capsys, "compare", cfg, "--candidate", good, "--star", bad_star)
        assert code == 1
        margin = float(next(l.split(":")[1] for l in out.splitlines() if l.startswith("margin")))
        assert margin > 0.0
        assert "status: FAIL" in out


class TestMalformedInput:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "quad", str(tmp_path / "none.ini"), "--from", "0", "--to", "1")
        assert code == 2
        assert "Traceback" not in err

    def test_missing_timescale_section(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, "[problem]\nn = 1\nL = \"0\"\nx_a = 0\n")
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "timescale" in err

    def test_bad_expression(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, BASE_INI.replace('L = "-(v1^2)"', 'L = "-(v1^2"'))
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "Traceback" not in err

    def test_wrong_x_a_length(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, BASE_INI.replace("x_a = 0.0", "x_a = 0.0, 1.0"))
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2

    def test_unknown_family(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, BASE_INI.replace("family = integers", "family = fractal"))
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2
        assert "fractal" in err

    @pytest.mark.parametrize("offset", [1_000, 20_046])
    def test_a_byte_that_is_not_utf8_is_named_at_its_file_offset(self, tmp_path, capsys, offset):
        # a file over 8 KB used to be decoded in chunks, each counting from 0
        body = write_ini(tmp_path).encode()
        padding = b"# " + b"-" * (offset - len(body) - 3) + b"\n"
        path = tmp_path / "bad.ini"
        path.write_bytes(body + padding + b"\xff\n")
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read config {str(path)!r}: 'utf-8' codec can't decode "
                       f"byte 0xff in position {offset}: invalid start byte\n")

    def test_bad_ini_syntax(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("this is not ini at all\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "Traceback" not in err

    def test_usage_error_on_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "setting, search",
        [("precondition = false", "plain gradient ascent"),
         ("gradient = fd", "finite-difference search")],
    )
    def test_removed_search_exits_2(self, tmp_path, capsys, setting, search):
        body = BASE_INI.replace("grad_tol = 1e-10", f"grad_tol = 1e-10\n{setting}")
        code, out, err = run(capsys, "solve", write_ini(tmp_path, body))
        assert (code, out) == (2, "")
        assert err.startswith("error: [solve]: ") and err.count("\n") == 1
        assert f"{search} was removed" in err

    @pytest.mark.parametrize(
        "setting, message",
        [("precondition = maybe", "[solve] precondition = 'maybe' is not a boolean"),
         ("max_iters = abc", "[solve] max_iters = 'abc' is not an integer"),
         ("grad_tol = tiny", "[solve] grad_tol = 'tiny' is not a number")],
    )
    def test_malformed_solve_value_names_its_section_once(self, tmp_path, capsys, setting, message):
        body = BASE_INI.replace("grad_tol = 1e-10", setting)
        code, out, err = run(capsys, "solve", write_ini(tmp_path, body))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, header", [
        (["check-el", "{cfg}", "--trajectory", "{csv}"], "t,x1"),
        (["compare", "{cfg}", "--candidate", "{csv}", "--star", "{csv}"], "t,x1"),
        (["lemma", "{cfg}", "--function", "{csv}"], "t,f"),
    ])
    def test_a_cell_past_the_csv_field_limit_exits_2_naming_its_line(self, tmp_path, capsys,
                                                                     command, header):
        cfg = write_ini(tmp_path)
        path = tmp_path / "big.csv"
        rows = [f"{t}.0,{'1' * 200_000 if t == 2 else '0.0'}" for t in range(6)]
        path.write_text("\n".join([header] + rows) + "\n")
        argv = [arg.format(cfg=cfg, csv=path) for arg in command]
        code, out, err = run(capsys, *argv)
        what = "function" if header == "t,f" else "trajectory"
        assert (code, out) == (2, "")
        assert err == f"error: {what} line 4: field larger than field limit (131072)\n"

    def test_pinned_without_values(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, BASE_INI.replace("terminal = pinned: 5.0", "terminal = pinned:"))
        code, _, err = run(capsys, "solve", cfg)
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_step_init_exits_2_before_the_search(self, tmp_path, capsys):
        # the first line-search probe of an infinite step would leave the reals
        body = (
            BASE_INI.replace("b = 5", "b = 10")
            .replace('L = "-(v1^2)"', 'L = "-(v1^2)-x1^2"')
            .replace("x_a = 0.0", "x_a = 1.0")
            .replace("T_trunc = 5", "T_trunc = 10")
            .replace("pinned: 5.0", "free\nstep_init = inf")
        )
        code, out, err = run(capsys, "solve", write_ini(tmp_path, body))
        assert (code, out, err) == (2, "", "error: [solve]: step_init must be finite\n")


class TestOutputFiles:
    """Every output is written over its file in place and truncated to the
    new length: a rerun leaves what a fresh write leaves."""

    def test_a_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, capsys):
        body = BASE_INI.replace("T_trunc = 5", "T_trunc = 5\ntruncations = 3, 4, 5")
        short = (body.replace("b = 5", "b = 3").replace("T_trunc = 5", "T_trunc = 3")
                 .replace("3, 4, 5", "2, 3").replace("pinned: 5.0", "pinned: 3.0"))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()
        assert run(capsys, "solve", write_ini(reused, body))[0] == 0
        before = (reused / "trajectory.csv").stat().st_size
        assert run(capsys, "solve", write_ini(reused, short))[0] == 0
        assert run(capsys, "solve", write_ini(fresh, short))[0] == 0
        assert (reused / "trajectory.csv").stat().st_size < before
        for name in ("trajectory.csv", "horizon.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_a_symlinked_output_writes_its_target_and_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"old contents, longer than the new ones\r\n")
        link.symlink_to(target)
        variational._write_csv_lines(link, ["t,x1", "0.0,1.0"])
        assert link.is_symlink() and target.read_bytes() == b"t,x1\r\n0.0,1.0\r\n"

    def test_an_existing_file_keeps_its_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"x" * 70_000)
        path.chmod(0o640)
        before = path.stat()
        variational._write_csv_lines(path, ["t,x1", "0.0,1.0"])
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_bytes() == b"t,x1\r\n0.0,1.0\r\n"

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        variational._write_csv_lines(tmp_path / "new.csv", ["t"])
        with open(tmp_path / "opened.csv", "w"):
            pass
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "opened.csv").stat().st_mode

    def test_a_report_to_the_null_device_exits_0(self, tmp_path, capsys):
        assert run(capsys, "solve", write_ini(tmp_path))[0] == 0
        cfg = write_ini(tmp_path, BASE_INI.replace("{dir}/residuals.csv", os.devnull), "null.ini")
        code, out, err = run(capsys, "check-el", cfg, "--trajectory", str(tmp_path / "trajectory.csv"))
        assert (code, err) == (0, "") and "status: PASS" in out

    def test_a_directory_as_output_exits_2_with_the_message_open_gives(self, tmp_path, capsys):
        (tmp_path / "trajectory.csv").mkdir()
        with pytest.raises(OSError) as exc:
            open(tmp_path / "trajectory.csv", "w")
        code, _, err = run(capsys, "solve", write_ini(tmp_path))
        assert (code, err) == (2, f"error: {exc.value}\n")


#: option values: file names, choices and one that is not, floats that do not
#: convert or start with "-", "--", "-h" and text that looks like none of these
ARGV_VALUES = st.one_of(
    st.sampled_from(["x.csv", "run.ini", "", "pointwise", "integral", "finite", "pointwse",
                     "3", " 2", "1_0", "1e3", "nan", "inf", "x", "-1", "-1e-3", "-x", "--",
                     "-h", "a=b", "check-el"]),
    st.floats().map(repr),
    st.text(max_size=4),
)


@st.composite
def argvs(draw):
    """(argv, canonical): argv over the five subcommands and others, and whether
    it has the canonical layout, COMMAND CONFIG (--option VALUE)..."""
    if draw(st.integers(0, 30)) == 0:
        return [], False
    command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "", "check", "-h"]))
    flags = list(cli._COMMANDS[command].options) if command in cli._COMMANDS else []
    own = st.sampled_from(flags) if flags else st.nothing()
    every_flag = sorted({flag for c in cli._COMMANDS.values() for flag in c.options})
    exact = st.tuples(st.just(True), st.tuples(own, ARGV_VALUES).map(list))
    other = st.tuples(st.just(False), st.one_of(
        st.tuples(st.sampled_from(every_flag), ARGV_VALUES).map(list),
        st.tuples(own.flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda k: f[:k])),
                  ARGV_VALUES).map(list),
        st.tuples(own, ARGV_VALUES).map(lambda pair: ["=".join(pair)]),
        st.sampled_from([["-h"], ["--help"], ["--"], ["extra"], [""], ["-1"], ["--tol"]]),
    ))
    pieces = draw(st.lists(st.one_of(exact, exact, other), max_size=5))
    tokens = [token for _, piece in pieces for token in piece]
    config = draw(st.sampled_from(["run.ini", "run.ini", "", "a b", "solve", "-run.ini", None]))
    at = draw(st.one_of(st.just(0), st.integers(0, len(tokens))))
    if config is not None:
        tokens.insert(at, config)
    canonical = (command in cli._COMMANDS and config is not None and not config.startswith("-")
                 and at == 0 and all(is_exact and not piece[1].startswith("-")
                                     for is_exact, piece in pieces))
    return [command, *tokens], canonical


class TestParserReuse:
    def test_successive_calls_share_one_parser_and_leak_nothing(self, tmp_path, capsys, monkeypatch):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        seen, reached = [], []  # each request's attributes; each argv that reached argparse
        parse_argv, parse_args = cli._parse_argv, parser.parse_args

        def recording(argv):
            args = parse_argv(argv)
            seen.append({key: value for key, value in vars(args).items() if key != "handler"})
            return args

        def reaching(argv):
            reached.append(list(argv))
            return parse_args(argv)

        monkeypatch.setattr(cli, "_parse_argv", recording)
        monkeypatch.setattr(parser, "parse_args", reaching)
        calls = [
            (["check-el", cfg, "--trajectory", traj, "--form", "integral", "--Tprime", "3"], 0,
             dict(command="check-el", config=cfg, trajectory=traj, form="integral", Tprime=3.0)),
            (["quad", cfg, "--from", "0", "--to", "3"], 0,
             dict(command="quad", config=cfg, from_t=0.0, to_t=3.0)),
            (["check-el", cfg, "--trajectory", traj], 0,
             dict(command="check-el", config=cfg, trajectory=traj, form="pointwise", Tprime=None)),
            (["solve", cfg], 0, dict(command="solve", config=cfg)),
            (["lemma", cfg, "--function", traj], 2,
             dict(command="lemma", config=cfg, function=traj, tol=None)),
        ]
        for argv, code, namespace in calls:
            assert run(capsys, *argv)[0] == code, argv
            assert seen[-1] == namespace
        assert reached == []  # the canonical spelling is read without argparse
        # abbreviations, --option=value and an option before the run file reach
        # argparse and give the same attributes
        respelled = [
            (["check-el", cfg, "--traj", traj, "--form=integral", "--Tprime=3"], calls[0]),
            (["quad", cfg, "--fr", "0", "--to=3"], calls[1]),
            (["check-el", f"--trajectory={traj}", cfg], calls[2]),
            (["lemma", cfg, "--func", traj], calls[4]),
        ]
        for argv, (_, code, namespace) in respelled:
            assert run(capsys, *argv)[0] == code, argv
            assert (reached[-1], seen[-1]) == (argv, namespace)
        # usage errors and --help keep their exit codes, and leave nothing behind
        for argv, code in ((["--help"], 0), (["check-el", "--help"], 0), (["frobnicate"], 2),
                           (["check-el", cfg], 2), (["quad", cfg, "--from", "x", "--to", "1"], 2)):
            assert run(capsys, *argv)[0] == code, argv
            assert reached[-1] == argv
        code, out, _ = run(capsys, "check-el", cfg, "--trajectory", traj)
        assert (code, seen[-1]) == (0, calls[2][2])
        assert reached[-1] == ["quad", cfg, "--from", "x", "--to", "1"]
        assert "form: pointwise" in out and "T_prime: 5.0" in out

    @given(argvs())
    @settings(max_examples=400, deadline=None)
    def test_the_direct_read_sets_what_argparse_sets(self, drawn):
        argv, canonical = drawn
        direct = cli._read_canonical(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            assert direct is None
            return
        if canonical:  # argparse accepted it, so every value converted
            assert direct is not None
        if direct is not None:
            # repr tells a float from its text, and -0.0 from 0.0
            assert {k: repr(v) for k, v in vars(direct).items()} == {k: repr(v) for k, v in parsed.items()}
            assert vars(direct)["handler"] is parsed["handler"]

    def test_a_canonical_request_imports_no_argparse(self, tmp_path):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv, imported in ((["check-el", cfg, "--trajectory", traj], False), (["check-el", "-h"], True)):
            done = subprocess.run([sys.executable, "-X", "importtime", "-m", "nablats", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            modules = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
            assert "nablats.cli" in modules
            assert ("argparse" in modules) is imported, argv


class TestShapeReuse:
    """Requests that repeat a problem's shape with new constants, in one process."""

    @staticmethod
    def discounted(tmp_path, rho, x_a="1.0", name="run.ini"):
        body = (
            BASE_INI.replace('L = "-(v1^2)"', f'L = "exp(-{rho}*t)*(-0.5*v1^2 - 3*x1^2)"')
            .replace("x_a = 0.0", f"x_a = {x_a}")
            .replace("pinned: 5.0", "free")
        )
        return write_ini(tmp_path, body, name)

    def test_a_repeated_shape_is_neither_differentiated_nor_lowered_again(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(expressions, "_SHAPES", {})
        calls = {"differentiate": 0, "lower": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        derive = counting("differentiate", expressions.differentiate)
        monkeypatch.setattr(expressions, "differentiate", derive)
        monkeypatch.setattr(variational, "differentiate", derive)
        monkeypatch.setattr(expressions.Program, "lower", counting("lower", expressions.Program.lower))
        traj = str(tmp_path / "trajectory.csv")
        counts = []
        for rho in (0.1, 0.2):
            cfg = self.discounted(tmp_path, rho)
            assert run(capsys, "solve", cfg)[0] == 0
            assert run(capsys, "check-el", cfg, "--trajectory", traj)[0] == 0
            counts.append(dict(calls))
            calls.update(differentiate=0, lower=0)
        assert min(counts[0].values()) > 0
        assert counts[1] == {"differentiate": 0, "lower": 0}

    def test_each_request_names_its_own_constants(self, tmp_path, capsys):
        for rho in (0.1, 0.2):
            cfg = self.discounted(tmp_path, rho, x_a="1e200")
            code, out, err = run(capsys, "solve", cfg)
            assert (code, out) == (3, "")
            assert err == (
                f"error: objective integrand 'exp(-{rho}*t)*(-0.5*v1^2.0 - 3.0*x1^2.0)' "
                "is non-finite at t=1.0 during the search\n"
            )


class TestConfigLoading:
    def test_full_roundtrip_of_sections(self, tmp_path):
        cfg = write_ini(tmp_path)
        rc = load_config(cfg)
        assert len(rc.timescale) == 6
        assert rc.problem is not None and rc.problem.n == 1
        assert rc.options is not None and rc.options.T_trunc == 5.0
        assert rc.options.terminal_mode.kind == "pinned"
        assert rc.truncations == (5.0,)
        assert rc.report.tolerance == 1e-6
        assert rc.quad_f is not None

    def test_points_family(self, tmp_path):
        body = """
        [timescale]
        family = points
        points = 0, 1, 1.5, 3
        gap_kinds = s, d, s
        """
        rc = load_config(write_ini(tmp_path, body))
        assert rc.timescale.points == (0.0, 1.0, 1.5, 3.0)

    def test_quad_rejects_foreign_variables(self, tmp_path):
        cfg = write_ini(tmp_path, BASE_INI.replace('f = "1"', 'f = "x1"'))
        try:
            load_config(cfg)
        except ConfigError as exc:
            assert "x1" in str(exc)
        else:
            raise AssertionError("expected ConfigError")

    def test_points_family_reads_padded_and_empty_items(self, tmp_path):
        body = """
        [timescale]
        family = points
        points = 0 ,1,, 1.5 ,\t3,
        gap_kinds = S, dense ,, s
        """
        rc = load_config(write_ini(tmp_path, body))
        assert rc.timescale.points == (0.0, 1.0, 1.5, 3.0)
        assert [k.value for k in rc.timescale.gap_kinds] == ["scattered", "dense_sample", "scattered"]

    @pytest.mark.parametrize("points, kinds, message", [
        ("0, 1, x", "s, s", "[timescale] points: '0, 1, x' is not a comma-separated number list"),
        ("0, 1, nan", "s, s", "[timescale]: non-finite grid point nan"),
        ("0, 2, 1", "s, s", "[timescale]: grid points must increase strictly (2.0 !< 1.0)"),
        ("0, 1, 2", "s, q", "[timescale]: unknown gap kind 'q'"),
    ])
    def test_points_family_errors(self, tmp_path, points, kinds, message):
        body = f"[timescale]\nfamily = points\npoints = {points}\ngap_kinds = {kinds}\n"
        with pytest.raises(ConfigError) as info:
            load_config(write_ini(tmp_path, body))
        assert str(info.value) == message


class TestRunFileReuse:
    """A run file whose text repeats the last one loaded is neither read as
    INI nor parsed again: ``load_config`` returns the same ``RunConfig``."""

    @staticmethod
    def spies(monkeypatch):
        calls = []

        def spy(name, fn):
            def called(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return called

        monkeypatch.setattr(configparser, "ConfigParser", spy("ConfigParser", configparser.ConfigParser))
        for module in (config, variational, expressions):
            monkeypatch.setattr(module, "parse", spy("parse", expressions.parse))
        return calls

    def test_unchanged_bytes_return_the_same_config_unparsed(self, tmp_path, monkeypatch):
        cfg = write_ini(tmp_path)
        rc = load_config(cfg)
        calls = self.spies(monkeypatch)
        assert load_config(cfg) is rc
        assert calls == []
        # the spies do see a miss
        load_config(write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", "tolerance = 3e-6")))
        assert calls.count("ConfigParser") == 1 and calls.count("parse") == 3

    def test_a_rewritten_file_is_loaded_anew(self, tmp_path):
        path = Path(write_ini(tmp_path))
        assert load_config(path).report.tolerance == 1e-6
        path.write_text(path.read_text().replace("tolerance = 1e-6", "tolerance = 0.5"))
        assert load_config(path).report.tolerance == 0.5
        # the same length and the same modification time: only the text differs
        stamp = path.stat()
        path.write_text(path.read_text().replace("tolerance = 0.5", "tolerance = 0.7"))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        assert load_config(path).report.tolerance == 0.7

    def test_the_same_bytes_at_another_path_are_a_hit(self, tmp_path):
        first = Path(write_ini(tmp_path))
        second = tmp_path / "copy.ini"
        second.write_bytes(first.read_bytes())
        assert load_config(second) is load_config(first)

    def test_a_malformed_file_is_never_cached(self, tmp_path):
        cfg = write_ini(tmp_path)
        rc = load_config(cfg)
        bad = write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", "tolerance = -1"), "bad.ini")
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigError) as info:
                load_config(bad)
            messages.append(str(info.value))
        assert messages == ["[report] tolerance = -1.0 is not a finite number >= 0"] * 2
        assert load_config(cfg) is rc

    def test_the_entry_it_replaces_can_be_collected(self, tmp_path):
        first = weakref.ref(load_config(write_ini(tmp_path)))
        load_config(write_ini(tmp_path, BASE_INI.replace("b = 5", "b = 6"), "other.ini"))
        gc.collect()
        assert first() is None


REUSE_INI = """
[timescale]
family = integers
a = -3
b = 3

[problem]
n = 1
L = "sqrt(x1) - v1^2"
g = "0"
x_a = 1.0

[report]
report_out = {dir}/residuals.csv
"""


class TestReportReuse:
    """``check-el`` on a run file, trajectory bytes and T' it has just reported
    writes the stored report, whatever the form, instead of computing it again."""

    @pytest.fixture(autouse=True)
    def reports(self, monkeypatch):
        monkeypatch.setattr(cli, "_REPORTS", {})
        calls = []

        def spy(p, x, T_prime):
            calls.append(T_prime)  # not p or x: an evicted problem must be collectable
            return variational.residual_report(p, x, T_prime)

        monkeypatch.setattr(cli, "residual_report", spy)
        return calls

    @staticmethod
    def trajectory(tmp_path, values, name="x.csv"):
        path = tmp_path / name
        path.write_text("t,x1\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(range(-3, 4), values)))
        return str(path)

    @staticmethod
    def fresh(tmp_path, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "nablats", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr, (tmp_path / "residuals.csv").read_bytes()

    def test_one_report_serves_every_form(self, tmp_path, capsys, reports):
        cfg = write_ini(tmp_path, REUSE_INI)
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        for form in ("pointwise", "integral", "finite", "pointwise"):
            code, out, _ = run(capsys, "check-el", cfg, "--trajectory", x, "--form", form)
            assert code == 1 and f"form: {form}" in out
        assert len(reports) == 1

    def test_each_request_prints_and_writes_what_a_fresh_process_does(self, tmp_path, capsys, reports):
        cfg = write_ini(tmp_path, REUSE_INI)
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        requests = [["--form", "pointwise"], ["--form", "integral"], ["--form", "finite", "--Tprime", "1"],
                    ["--form", "pointwise", "--Tprime", "1"], ["--form", "integral"]]
        ours = []
        for extra in requests:
            code, out, err = run(capsys, "check-el", cfg, "--trajectory", x, *extra)
            ours.append((code, out, err, (tmp_path / "residuals.csv").read_bytes()))
        assert len(reports) == 2
        assert ours == [self.fresh(tmp_path, ["check-el", cfg, "--trajectory", x, *extra]) for extra in requests]

    def test_a_trajectory_rewritten_in_place_is_reported_anew(self, tmp_path, capsys, reports):
        cfg = write_ini(tmp_path, REUSE_INI)
        path = Path(self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0]))
        run(capsys, "check-el", cfg, "--trajectory", str(path))
        first = (tmp_path / "residuals.csv").read_bytes()
        # the same length and the same modification time: only the bytes differ
        stamp = path.stat()
        path.write_text(path.read_text().replace("1.5\n", "1.7\n", 1))
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        run(capsys, "check-el", cfg, "--trajectory", str(path))
        assert len(reports) == 2
        p = load_config(cfg).require_problem()
        written = (tmp_path / "residuals.csv").read_bytes()
        assert written != first
        assert written == variational.residual_report(p, variational.trajectory_from_csv(p, path)).csv_bytes()

    def test_a_new_run_file_is_reported_anew(self, tmp_path, capsys, reports):
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        for tolerance in ("1e-6", "2.0", "1e-6"):
            cfg = write_ini(tmp_path, REUSE_INI + f"tolerance = {tolerance}\n")
            code, out, _ = run(capsys, "check-el", cfg, "--trajectory", x)
            assert (code, out.splitlines()[-1]) == ((1, "status: FAIL") if tolerance == "1e-6" else (0, "status: PASS"))
        assert len(reports) == 3

    def test_another_Tprime_is_reported_anew(self, tmp_path, capsys, reports):
        cfg = write_ini(tmp_path, REUSE_INI)
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        for extra in ([], ["--Tprime", "1"], ["--Tprime", "3"], ["--Tprime", "1"], []):
            run(capsys, "check-el", cfg, "--trajectory", x, *extra)
        assert reports == [3.0, 1.0]

    def test_a_negative_zero_Tprime_writes_its_own_report(self, tmp_path, capsys, reports):
        # -0.0 == 0.0 and both hash alike, but the CSV writes repr(T')
        cfg = write_ini(tmp_path, REUSE_INI)
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        for shown in ("0.0", "-0.0"):
            code, out, err = run(capsys, "check-el", cfg, "--trajectory", x, "--Tprime", shown)
            written = (tmp_path / "residuals.csv").read_bytes()
            assert {row.split(b",")[1] for row in written.splitlines()[1:]} == {shown.encode()}
            assert f"T_prime: {shown}" in out
            assert (code, out, err, written) == self.fresh(tmp_path, ["check-el", cfg, "--trajectory", x,
                                                                      "--Tprime", shown])
        assert len(reports) == 2

    def test_a_report_that_raises_is_never_kept(self, tmp_path, capsys, reports):
        cfg = write_ini(tmp_path, REUSE_INI)
        good = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        bad = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, -1.0, 1.0], "bad.csv")
        run(capsys, "check-el", cfg, "--trajectory", good)
        kept = dict(cli._REPORTS)
        for _ in range(2):
            code, out, err = run(capsys, "check-el", cfg, "--trajectory", bad)
            assert (code, out, err) == (3, "", "error: dL/dx '1.0/(2.0*sqrt(x1))' is non-finite at t=3.0\n")
        assert cli._REPORTS == kept
        assert len(reports) == 3

    def test_at_most_two_reports_are_kept_and_an_evicted_problem_can_be_collected(self, tmp_path, capsys):
        x = self.trajectory(tmp_path, [1.0, 1.25, 1.5, 1.5, 1.25, 1.0, 1.0])
        problems = []
        for tolerance in ("1e-6", "2e-6", "3e-6"):
            cfg = write_ini(tmp_path, REUSE_INI + f"tolerance = {tolerance}\n")
            run(capsys, "check-el", cfg, "--trajectory", x)
            problems.append(weakref.ref(load_config(cfg).require_problem()))
            assert len(cli._REPORTS) <= 2
        assert [entry[0] for entry in cli._REPORTS.values()] == [problems[1](), problems[2]()]
        gc.collect()
        assert problems[0]() is None


class TestTolerance:
    """A tolerance is a finite number >= 0; anything else exits 2 with one line."""

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                                              ("-1", "-1.0"), ("-1e-300", "-1e-300")])
    def test_report_tolerance_outside_the_domain_is_a_config_error(self, tmp_path, value, shown):
        cfg = write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", f"tolerance = {value}"))
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert str(info.value) == f"[report] tolerance = {shown} is not a finite number >= 0"

    def test_zero_tolerance_is_accepted(self, tmp_path):
        cfg = write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", "tolerance = 0"))
        assert load_config(cfg).report.tolerance == 0.0

    def test_nan_tolerance_exits_2_from_check_el(self, tmp_path, capsys):
        # it used to print status: FAIL at a residual of 2.2e-16
        cfg = write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", "tolerance = nan"))
        traj = write_trajectory(tmp_path, "line.csv", [0, 1, 2, 3, 4, 5])
        code, out, err = run(capsys, "check-el", cfg, "--trajectory", traj)
        assert (code, out, err) == (2, "", "error: [report] tolerance = nan is not a finite number >= 0\n")

    def test_negative_tolerance_exits_2_from_compare(self, tmp_path, capsys):
        # it used to fail a trajectory against itself at margin 0.0
        cfg = write_ini(tmp_path, BASE_INI.replace("tolerance = 1e-6", "tolerance = -1"))
        a = write_trajectory(tmp_path, "a.csv", [0, 1, 2, 3, 4, 5])
        code, out, err = run(capsys, "compare", cfg, "--candidate", a, "--star", a)
        assert (code, out, err) == (2, "", "error: [report] tolerance = -1.0 is not a finite number >= 0\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-0.5"])
    def test_lemma_tol_outside_the_domain_exits_2(self, tmp_path, capsys, tol):
        # nan used to report "no witness: the remaining mass pairs to zero" (exit 4)
        cfg = write_ini(tmp_path)
        path = tmp_path / "zero.csv"
        path.write_text("t,f\n" + "".join(f"{t}.0,0.0\n" for t in range(6)))
        code, out, err = run(capsys, "lemma", cfg, "--function", str(path), "--tol", tol)
        assert (code, out, err) == (2, "", f"error: tolerance {float(tol)!r} is not a finite number >= 0\n")

    def test_lemma_tol_zero_is_accepted(self, tmp_path, capsys):
        cfg = write_ini(tmp_path)
        path = tmp_path / "zero.csv"
        path.write_text("t,f\n" + "".join(f"{t}.0,0.0\n" for t in range(6)))
        code, out, _ = run(capsys, "lemma", cfg, "--function", str(path), "--tol", "0")
        assert (code, out) == (4, "function is zero at tolerance 0.0 (max |f| = 0.0)\n")
