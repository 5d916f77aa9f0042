from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats.solver import (
    FREE,
    PINNED,
    EnumerationGuardError,
    NonFiniteObjectiveError,
    SolveOptions,
    _Engine,
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
    residual_report,
    transversality_residual_T1,
    transversality_residual_T2,
)


def make(L, g="0", ts=None, x_a=0.0, sense=Sense.MAX):
    ts = ts if ts is not None else integers(0, 6)
    return Problem.from_strings(ts, 1, L, g, x_a, sense)


def dense_start_case():
    """z-coupled problem on four dense-sample steps over [0, 1], then integers to 6."""
    ts = from_points(
        [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ["d", "d", "d", "d", "s", "s", "s", "s", "s"],
    )
    p = Problem.from_strings(ts, 1, "exp(-0.2*t)*(-(v1^2)-x1^2) - 0.05*z", "x1^2", 1.0)
    opts = SolveOptions(T_trunc=6.0, grad_tol=1e-9, gradient="analytic", precondition=True)
    return ts, p, opts


def loop_gradient(eng, x):
    """The per-coordinate loop the vectorised analytic gradient replaced."""
    env = eng._env(x)
    env["z"] = np.cumsum(eng.w[1:] * eng._eval(eng.p.z_integrand, env, "z integrand"))
    d = eng.p.partials
    Lz = eng._eval(d["Lz"], env, "dL/dz")
    S = np.cumsum((eng.w[1:] * Lz)[::-1])[::-1]
    cols = {
        c: tuple(eng._eval(d[key][c], env, key) for key in ("Lx", "Lv", "gx", "gv"))
        for c in range(eng.n)
    }
    grad = np.empty(len(eng.free))
    for i, (j, c) in enumerate(eng.free):
        Lx, Lv, gx, gv = cols[c]
        a = j - 1
        total = Lv[a] + S[a] * gv[a]
        if not eng.scattered[j - 1]:
            total += eng.w[j] * (Lx[a] + S[a] * gx[a])
        if j + 1 <= eng.K:
            total -= Lv[a + 1] + S[a + 1] * gv[a + 1]
            if eng.scattered[j]:
                total += eng.w[j + 1] * (Lx[a + 1] + S[a + 1] * gx[a + 1])
        grad[i] = total
    return grad


def fd_curvature(eng, x):
    """|diagonal curvature| by central differences of the analytic gradient:
    the O(m^2) refresh the analytic Hessian diagonal replaced."""
    diag = np.empty(len(eng.free))
    for i, (j, c) in enumerate(eng.free):
        h = 1e-6 * (1.0 + abs(x[j, c]))
        xp = x.copy()
        xp[j, c] = x[j, c] + h
        gp = eng.analytic_gradient(xp)[i]
        xp[j, c] = x[j, c] - h
        gm = eng.analytic_gradient(xp)[i]
        diag[i] = abs(gp - gm) / (2.0 * h)
    return np.maximum(diag, 1e-30)


def coupled_case(seed, n, sense):
    """A random mixed grid, a z-coupled L with nonzero L_zz, L_xz and L_vz, a g
    in x and v, a random horizon and terminal mode, and a random state."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 14))
    pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 1.0, m))])
    ts = from_points(pts.tolist(), [str(k) for k in rng.choice(["s", "d"], m)])

    def c(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    comps = range(1, n + 1)
    L = (
        f"exp(-{c(0.0, 0.05)}*t)*("
        + " ".join(f"-(v{i}^2) - x{i}^2 + {c(0.05, 0.2)}*x{i}*v{i}" for i in comps)
        + (" + 0.5*x1*x2" if n == 2 else "")
        + f") - {c(0.2, 0.3)}*z - {c(0.001, 0.005)}*z^2"
        + "".join(f" + {c(0.01, 0.03)}*x{i}*z - {c(0.01, 0.03)}*v{i}*z" for i in comps)
    )
    g = " + ".join(f"x{i}^2 + {c(0.01, 0.05)}*x{i}*v{i} + {c(0.01, 0.05)}*v{i}^2" for i in comps)
    p = Problem.from_strings(ts, n, L, g, [0.25] * n, sense)
    K = int(rng.integers(2, m + 1))
    terminal = PINNED(*rng.uniform(-0.5, 0.5, n)) if rng.random() < 0.3 else FREE
    eng = _Engine(p, SolveOptions(T_trunc=ts.points[K], terminal_mode=terminal))
    x = np.vstack([p.x_a_array, rng.uniform(-0.5, 0.5, (m, n))])
    return eng, x


coupled_cases = dict(
    seed=st.integers(0, 10_000), n=st.sampled_from([1, 2]), sense=st.sampled_from(list(Sense))
)


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

    def test_counts_on_one_coordinate(self):
        # f(x1) = -x1^2 from x1 = 1: the unit step lands on -1, which ties,
        # so one halving reaches the maximum; the Newton-scaled step needs none
        p = make("-(x1^2)", ts=sampled_interval(0.0, 1.0, 1), x_a=1.0)
        opts = SolveOptions(T_trunc=1.0, gradient="analytic")
        for precondition, backtracks, refreshes in ((False, 1, 0), (True, 0, 1)):
            x, info = direct_solve(p, replace(opts, precondition=precondition), with_info=True)
            assert x.values[1, 0] == 0.0
            assert (info.iterations, info.stop_reason, info.converged) == (2, "grad_tol", True)
            assert (info.backtracks, info.curvature_refreshes) == (backtracks, refreshes)

    @pytest.mark.parametrize(
        "opts, reason",
        [
            (SolveOptions(T_trunc=6.0), "grad_tol"),
            (SolveOptions(T_trunc=6.0, max_iters=1), "max_iters"),
            # past float resolution: the line search stops moving the iterate
            (SolveOptions(T_trunc=6.0, grad_tol=1e-300, max_iters=20000), "no_progress"),
            # past float resolution: 50 accepted steps leave the objective as it was
            (
                SolveOptions(
                    T_trunc=6.0, grad_tol=1e-300, max_iters=20000,
                    gradient="analytic", precondition=True,
                ),
                "flat",
            ),
        ],
    )
    def test_stop_reason(self, opts, reason):
        p = make("-(v1^2)-x1^2", x_a=1.0)
        _, info = direct_solve(p, opts, with_info=True)
        assert info.stop_reason == reason
        assert info.converged == (reason == "grad_tol")
        assert info.iterations < opts.max_iters or reason == "max_iters"
        refreshes = (info.iterations - 1) // 50 + 1 if opts.precondition else 0
        assert info.curvature_refreshes == refreshes

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

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_curvature_is_the_hessian_diagonal(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        np.testing.assert_allclose(eng.curvature(x), fd_curvature(eng, x), rtol=1e-6, atol=0)

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_vectorised_gradient_and_apply_match_the_loops(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        assert np.array_equal(eng.analytic_gradient(x), loop_gradient(eng, x))
        delta = np.random.default_rng(seed).uniform(-1, 1, len(eng.free))
        expected = x.copy()
        for i, (j, c) in enumerate(eng.free):
            expected[j, c] = x[j, c] + delta[i]
        assert np.array_equal(eng.apply(x, delta), expected)

    def test_curvature_never_calls_the_gradient(self, monkeypatch):
        calls = []
        original = _Engine.analytic_gradient

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(_Engine, "analytic_gradient", counting)
        _, p, opts = dense_start_case()
        _, info = direct_solve(p, replace(opts, gradient="fd", max_iters=60), with_info=True)
        assert info.curvature_refreshes == 2
        assert calls == []


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
            ts, p, opts = dense_start_case()
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

    def test_dense_start_report_skips_the_copied_derivative(self):
        ts, p, opts = dense_start_case()
        x, info = direct_solve(p, opts, with_info=True)
        assert info.converged
        report = residual_report(p, x, 6.0)
        # rows 0 and 1 read the copied derivative at the minimum (2.2 and 1.5 here)
        assert [t for t, _ in report.el_pointwise] == list(ts.points[2:])
        # on the integer tail the optimum meets the residual to solver accuracy;
        # the dense rows and the first step after them carry the O(h) error of
        # the backward stencil on sampled gaps (0.14 to 0.57 at h = 0.25)
        assert max(abs(r[0]) for t, r in report.el_pointwise if t >= 3.0) < 1e-8
        assert report.max_pointwise < 0.6

    def test_truncations_must_increase(self):
        p = make("1", ts=integers(0, 4))
        with pytest.raises(Exception):
            horizon_study(p, [4.0, 2.0], SolveOptions(T_trunc=4.0))
