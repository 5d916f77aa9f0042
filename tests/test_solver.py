from dataclasses import replace

import numpy as np
import pytest

from nablats.solver import (
    FREE,
    PINNED,
    EnumerationGuardError,
    NonFiniteObjectiveError,
    SolveOptions,
    analytic_gradient,
    brute_force,
    direct_solve,
    fd_gradient,
    free_coordinates,
    horizon_study,
    horizon_table_to_csv,
)
from nablats.timescale import from_points, integers, sampled_interval
from nablats.variational import (
    Problem,
    Sense,
    el_report_indices,
    el_residual_pointwise,
    evaluate_functional_partial,
    transversality_residual_T1,
    transversality_residual_T2,
)


def make(L, g="0", ts=None, x_a=0.0, sense=Sense.MAX):
    ts = ts if ts is not None else integers(0, 6)
    return Problem.from_strings(ts, 1, L, g, x_a, sense)


class TestDirectSolve:
    def test_pure_state_cost_goes_to_zero(self):
        p = make("-(x1^2)", x_a=0.0)
        x, info = direct_solve(p, SolveOptions(T_trunc=6.0), with_info=True)
        assert info.converged
        assert np.max(np.abs(x.values)) <= 1e-5

    def test_pinned_terminal_recovers_straight_line(self):
        ts = sampled_interval(0.0, 1.0, 8)
        p = make("-(v1^2)", ts=ts, x_a=0.0)
        opts = SolveOptions(T_trunc=1.0, terminal_mode=PINNED(1.0), grad_tol=1e-9)
        x, info = direct_solve(p, opts, with_info=True)
        assert info.converged
        assert np.max(np.abs(x.values[:, 0] - ts.points_array)) <= 1e-5

    def test_monotone_ascent_log(self):
        p = make("-(v1^2)-x1^2", x_a=1.0)
        _, info = direct_solve(p, SolveOptions(T_trunc=6.0), with_info=True)
        log = np.asarray(info.objective_log)
        assert np.all(np.diff(log) >= 0.0)
        assert info.objective == pytest.approx(log[-1], rel=1e-12)

    def test_min_sense_matches_negated_max_exactly(self):
        body = "v1^2 + (x1-1)^2"
        p_min = make(body, x_a=0.0, sense=Sense.MIN)
        p_max = make(f"-({body})", x_a=0.0, sense=Sense.MAX)
        x_min = direct_solve(p_min, SolveOptions(T_trunc=6.0))
        x_max = direct_solve(p_max, SolveOptions(T_trunc=6.0))
        assert np.array_equal(x_min.values, x_max.values)

    def test_solved_residual_bounded_by_gradient_tolerance(self):
        # at a solved z-free instance the discrete first-order conditions
        # equal nu(t) times the pointwise residual at scattered points
        p = make("-(v1^2)-x1^2", x_a=1.0)
        tol = 1e-8
        x = direct_solve(p, SolveOptions(T_trunc=6.0, grad_tol=tol, max_iters=20000))
        for j in el_report_indices(p.ts):
            t = p.ts.points[j]
            if t >= 6.0:
                continue  # the terminal point answers to transversality instead
            r = el_residual_pointwise(p, x, t, 6.0)[0]
            assert abs(r) <= 10.0 * tol / p.ts.nu(t)

    def test_values_beyond_truncation_are_frozen(self):
        p = make("-(v1^2)-x1^2", x_a=1.0)
        x = direct_solve(p, SolveOptions(T_trunc=3.0))
        assert np.all(x.values[4:] == 1.0)

    def test_non_finite_objective_diagnoses_time(self):
        ts = integers(0, 2)
        p = make("log(x1)", ts=ts, x_a=1.0)
        opts = SolveOptions(T_trunc=2.0, terminal_mode=PINNED(-1.0))
        with pytest.raises(NonFiniteObjectiveError) as exc:
            direct_solve(p, opts)
        assert "t=" in str(exc.value)

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(T_trunc=5.0, max_iters=0)
        with pytest.raises(ValueError):
            SolveOptions(T_trunc=5.0, gradient="magic")
        with pytest.raises(ValueError):
            PINNED()

    def test_free_coordinates_respect_terminal_mode(self):
        p = make("-(x1^2)")
        assert free_coordinates(p, SolveOptions(T_trunc=6.0)) == [
            (j, 0) for j in range(1, 7)
        ]
        pinned = SolveOptions(T_trunc=6.0, terminal_mode=PINNED(0.0))
        assert free_coordinates(p, pinned) == [(j, 0) for j in range(1, 6)]


class TestGradients:
    def test_fd_and_analytic_agree_on_coupled_problem(self):
        ts = from_points(
            [0.0, 1.0, 1.25, 1.5, 2.5, 3.0, 4.0],
            ["s", "d", "d", "s", "s", "s"],
        )
        p = Problem.from_strings(ts, 1, "-(v1^2) - z - x1^2/4", "x1^2 + x1*v1/2", 0.5)
        opts = SolveOptions(T_trunc=4.0)
        rng = np.random.default_rng(21)
        vals = np.concatenate([[0.5], rng.uniform(-1, 1, len(ts) - 1)])[:, None]
        fd = fd_gradient(p, vals, opts)
        an = analytic_gradient(p, vals, opts)
        assert np.allclose(fd, an, rtol=1e-5, atol=1e-7)

    def test_analytic_gradient_solver_reaches_same_optimum(self):
        p = make("-(v1^2)-x1^2-z", g="x1^2", x_a=1.0)
        x_fd = direct_solve(
            p, SolveOptions(T_trunc=6.0, grad_tol=1e-7, precondition=True)
        )
        x_an = direct_solve(
            p,
            SolveOptions(
                T_trunc=6.0, grad_tol=1e-7, precondition=True, gradient="analytic"
            ),
        )
        assert np.max(np.abs(x_fd.values - x_an.values)) <= 1e-6


class TestBruteForce:
    def test_single_free_point_picks_zero(self):
        ts = sampled_interval(0.0, 1.0, 1)
        p = make("-(x1^2)", ts=ts, x_a=0.0)
        x = brute_force(p, SolveOptions(T_trunc=1.0), [-1.0, 0.0, 1.0])
        assert x.values[1, 0] == 0.0

    def test_degenerate_grid_gives_unique_trajectory(self):
        p = make("-(x1^2)")
        x = brute_force(p, SolveOptions(T_trunc=6.0), [0.7])
        assert np.all(x.values[1:, 0] == 0.7)

    def test_agrees_with_direct_solve_within_one_grid_step(self):
        ts = integers(0, 5)
        p = make("-(v1^2)-x1^2", ts=ts, x_a=1.0)
        opts = SolveOptions(T_trunc=5.0, terminal_mode=PINNED(0.0), grad_tol=1e-9)
        grid = np.linspace(0.0, 1.0, 11)
        xb = brute_force(p, opts, grid)
        xd = direct_solve(p, opts)
        assert np.max(np.abs(xb.values - xd.values)) <= 0.1 + 1e-9

    def test_discounted_instance_matches_direct(self):
        ts = integers(0, 5)
        p = make("exp(-t)*(-((v1-1)^2))", ts=ts, x_a=0.0)
        opts = SolveOptions(T_trunc=5.0, grad_tol=1e-8, max_iters=20000)
        xb = brute_force(p, opts, np.linspace(0.0, 5.0, 21))
        assert np.array_equal(xb.values[:, 0], np.arange(6.0))
        xd = direct_solve(p, opts)
        assert np.max(np.abs(xb.values - xd.values)) <= 0.25

    def test_permutation_invariance(self):
        ts = integers(0, 4)
        p = make("-(v1^2)-x1^2", ts=ts, x_a=1.0)
        opts = SolveOptions(T_trunc=4.0)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        a = brute_force(p, opts, grid)
        b = brute_force(p, opts, list(reversed(grid)))
        assert np.array_equal(a.values, b.values)

    def test_enumeration_guard(self):
        p = make("-(x1^2)", ts=integers(0, 8))
        with pytest.raises(EnumerationGuardError):
            brute_force(p, SolveOptions(T_trunc=8.0), np.linspace(0, 1, 11))

    def test_tie_breaks_lexicographically(self):
        # objective ignores the state entirely: every assignment ties and
        # the smallest values win coordinate by coordinate
        p = make("1", ts=integers(0, 3))
        x = brute_force(p, SolveOptions(T_trunc=3.0), [0.5, -0.5])
        assert np.all(x.values[1:, 0] == -0.5)


class TestHorizonStudy:
    def test_constant_lagrangian_rows(self):
        p = make("1", ts=integers(0, 8))
        rows = horizon_study(p, [4.0, 8.0], SolveOptions(T_trunc=8.0))
        assert [r.T_trunc for r in rows] == [4.0, 8.0]
        for r in rows:
            assert r.max_el_residual == 0.0
            assert r.trans_T1 == 0.0
            assert r.trans_T2 == 0.0
            assert r.objective == r.T_trunc
            assert r.trans_applicable

    def test_discounted_transversality_decays(self):
        p = make("exp(-t)*(-(v1^2)-x1^2)", ts=integers(0, 12), x_a=1.0)
        opts = SolveOptions(
            T_trunc=12.0, grad_tol=1e-9, gradient="analytic", precondition=True
        )
        rows = horizon_study(p, [4.0, 8.0, 12.0], opts)
        t1 = [r.trans_T1 for r in rows]
        assert t1[0] > t1[1] > t1[2]

    def test_pinned_rows_flagged(self):
        p = make("-(v1^2)", ts=integers(0, 4), x_a=0.0)
        opts = SolveOptions(T_trunc=4.0, terminal_mode=PINNED(2.0))
        rows = horizon_study(p, [4.0], opts)
        assert rows[0].trans_applicable is False

    def test_csv_columns(self, tmp_path):
        p = make("1", ts=integers(0, 4))
        rows = horizon_study(p, [2.0, 4.0], SolveOptions(T_trunc=4.0))
        path = tmp_path / "horizon.csv"
        horizon_table_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T_trunc,max_el_residual,trans_T1,trans_T2,objective,trans_applicable"
        assert len(lines) == 3

    @pytest.mark.parametrize("case", ["mixed_optimum", "partial_solve"])
    def test_rows_match_per_point_residuals(self, case):
        # the oracle rebuilds the residual at every point of every cut
        if case == "mixed_optimum":
            ts = from_points(
                [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                ["d", "d", "d", "d", "s", "s", "s", "s", "s"],
            )
            p = Problem.from_strings(ts, 1, "exp(-0.2*t)*(-(v1^2)-x1^2) - 0.05*z", "x1^2", 1.0)
            opts = SolveOptions(T_trunc=6.0, grad_tol=1e-9, gradient="analytic", precondition=True)
            cuts = [1.0, 4.0, 6.0]
        else:  # one step from the start: the largest residual sits at the cut
            ts = integers(0, 8)
            p = make("-(v1^2) + t*x1", ts=ts)
            opts = SolveOptions(T_trunc=8.0, max_iters=1)
            cuts = [3.0, 6.0, 8.0]
        rows = horizon_study(p, cuts, opts)
        for T, row in zip(cuts, rows):
            x, info = direct_solve(p, replace(opts, T_trunc=T), with_info=True)
            assert np.array_equal(row.solution.values, x.values)
            assert row.info == info
            K = ts.index_of(T)
            max_res = 0.0
            for j in el_report_indices(ts):
                if j <= K:
                    r = el_residual_pointwise(p, x, ts.points[j], T)
                    max_res = max(max_res, float(np.max(np.abs(r))))
            assert row.max_el_residual == max_res
            assert row.trans_T1 == abs(transversality_residual_T1(p, x, T))
            assert row.trans_T2 == abs(transversality_residual_T2(p, x, T))
            assert row.objective == evaluate_functional_partial(p, x, T)

    def test_truncations_must_increase(self):
        p = make("1", ts=integers(0, 4))
        with pytest.raises(Exception):
            horizon_study(p, [4.0, 2.0], SolveOptions(T_trunc=4.0))
