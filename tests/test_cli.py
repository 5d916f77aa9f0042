"""End-to-end tests of the command-line front end (in-process)."""

import csv
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from nablats import cli, expressions, solver, variational
from nablats.cli import main
from nablats.config import ConfigError, load_config
from nablats.solver import FREE, SolveOptions, direct_solve
from nablats.timescale import integers
from nablats.variational import (
    Problem,
    Trajectory,
    el_report_indices,
    finite_horizon_el_residual,
    trajectory_to_csv,
)

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
        cfg = write_ini(tmp_path, BASE_INI.replace('f = "1"', 'f = "log(t)"'))
        code, _, err = run(capsys, "quad", cfg, "--from", "0", "--to", "3")
        assert code == 3
        assert "error" in err


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
        calls = []
        original = solver.direct_solve

        def counting(p, opts, with_info=False):
            calls.append(opts.T_trunc)
            return original(p, opts, with_info)

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


class TestParserReuse:
    def test_successive_calls_share_one_parser_and_leak_nothing(self, tmp_path, capsys, monkeypatch):
        cfg = write_ini(tmp_path)
        traj = write_trajectory(tmp_path, "x.csv", [0, 1, 2, 3, 4, 5])
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        seen = []
        parse_args = parser.parse_args

        def recording(argv):
            args = parse_args(argv)
            seen.append({key: value for key, value in vars(args).items() if key != "handler"})
            return args

        monkeypatch.setattr(parser, "parse_args", recording)
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
        # usage errors and --help keep their exit codes, and leave nothing behind
        for argv, code in ((["--help"], 0), (["check-el", "--help"], 0), (["frobnicate"], 2),
                           (["check-el", cfg], 2), (["quad", cfg, "--from", "x", "--to", "1"], 2)):
            assert run(capsys, *argv)[0] == code, argv
        code, out, _ = run(capsys, "check-el", cfg, "--trajectory", traj)
        assert (code, seen[-1]) == (0, calls[2][2])
        assert "form: pointwise" in out and "T_prime: 5.0" in out


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
