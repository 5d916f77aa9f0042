import csv
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats.calculus import (
    GridFunction,
    GridMismatchError,
    OutsideKappaError,
    liminf_estimate,
    nabla_derivative_fn,
    nabla_integral,
    nabla_quotients,
)
from nablats.expressions import ExprDomainError
from nablats.timescale import GapKind, from_points, integers, q_scale, sampled_interval
from nablats.variational import (
    AdmissibilityError,
    Problem,
    ProblemError,
    ResidualReport,
    Sense,
    Trajectory,
    compute_z,
    el_report_indices,
    el_residual_pointwise,
    evaluate_functional_partial,
    finite_horizon_el_residual,
    path_env,
    residual_report,
    trajectory_from_csv,
    trajectory_to_csv,
    transversality_residual_T1,
    transversality_residual_T2,
    weak_max_compare,
)
from nablats import variational
from nablats.variational import _abs_max, _ELCore, _running_objective, _write_bytes
from tree_walk import tree_walk


def make_problem(L="-(v1^2)", g="0", ts=None, x_a=0.0, sense=Sense.MAX):
    ts = ts if ts is not None else integers(0, 5)
    return Problem.from_strings(ts, 1, L, g, x_a, sense)


def linear_trajectory(p, slope=1.0):
    vals = p.x_a_array + slope * (p.ts.points_array - p.ts.points[0])[:, None]
    return Trajectory.from_values(p, vals)


class TestProblemValidation:
    def test_rejects_unknown_variables(self):
        with pytest.raises(ProblemError):
            make_problem(L="-(v2^2)")  # index beyond n=1

    def test_z_not_allowed_in_z_integrand(self):
        with pytest.raises(ProblemError):
            make_problem(g="z")

    def test_x_a_length(self):
        with pytest.raises(ProblemError):
            Problem.from_strings(integers(0, 3), 2, "-(v1^2)", "0", (1.0,))

    def test_trajectory_must_pin_initial_state(self):
        p = make_problem(x_a=1.0)
        vals = np.zeros((len(p.ts), 1))
        with pytest.raises(AdmissibilityError):
            Trajectory.from_values(p, vals)


def mixed_problem(sense=Sense.MAX, ts=None):
    """n=2, z-coupled, by default on a grid with a dense start, scattered runs
    and a dense run (47 points)."""
    if ts is None:
        dense = [k / 12 for k in range(12)] + [12.5 + k / 4 for k in range(7)]
        ts = from_points(
            sorted(dense + list(range(1, 13)) + list(range(15, 31))),
            "d" * 12 + "s" * 12 + "d" * 6 + "s" * 16,
        )
    L = "exp(-0.1*t)*(-(v1^2) - x1^2 - v2^2 + 0.5*x1*x2) - 0.1*z"
    if sense is Sense.MIN:
        L = f"-({L})"
    return Problem.from_strings(ts, 2, L, "x1^2 + x2*v1", (1.0, -0.5), sense)


def random_trajectory(p, seed):
    vals = np.random.default_rng(seed).uniform(-1.5, 1.5, (len(p.ts), p.n))
    vals[0] = p.x_a
    return Trajectory.from_values(p, vals)


class TestPathEnv:
    def test_matches_grid_function_operators(self):
        p = mixed_problem()
        x = random_trajectory(p, 1)
        env = path_env(p.ts, x.values, len(p.ts) - 1)
        assert np.array_equal(env["t"], p.ts.points_array)
        for i in range(p.n):
            assert np.array_equal(env[f"x{i + 1}"], x.x.rho_values()[:, i])
            assert np.array_equal(env[f"v{i + 1}"], nabla_derivative_fn(x.x).values[:, i])

    def test_batch_axis_matches_single_trajectories(self):
        p = mixed_problem()
        xs = [random_trajectory(p, seed).values for seed in range(3)]
        k = 6
        batch = path_env(p.ts, np.stack(xs), k)
        for b, vals in enumerate(xs):
            single = path_env(p.ts, vals, k)
            for key in single:
                if key != "t":
                    assert np.array_equal(batch[key][b], single[key])


def fsum_prefixes(ts, vals):
    """The oracle: math.fsum of the weighted values over (a, t_j] for every j."""
    terms = ts.local_steps * vals
    return [math.fsum(terms[1 : j + 1]) for j in range(len(ts))]


class TestComputeZ:
    def test_prefixes_are_exact_sums(self):
        p = mixed_problem()
        x = random_trajectory(p, 5)
        g = tree_walk(p.z_integrand, path_env(p.ts, x.values, len(p.ts) - 1))
        assert compute_z(p, x).values[:, 0].tolist() == fsum_prefixes(p.ts, g)

    def test_hand_sum(self):
        # g = x1 * v1 along x(t) = t on integers [0, 3]:
        # z(3) = sum_{t=1..3} (t - 1) * 1 = 0 + 1 + 2 = 3
        p = make_problem(g="x1*v1", ts=integers(0, 3))
        z = compute_z(p, linear_trajectory(p))
        assert z.values[0, 0] == 0.0
        assert z.value_at(3.0)[0] == 3.0

    def test_zero_integrand(self):
        p = make_problem()
        z = compute_z(p, linear_trajectory(p))
        assert np.all(z.values == 0.0)

    def test_domain_error_reports_tau(self):
        # x_rho is x(0) = 0 at t = 1, the first row z reads; the start's
        # weightless term is never evaluated
        p = make_problem(g="log(x1)")
        with pytest.raises(ExprDomainError) as exc:
            compute_z(p, linear_trajectory(p))
        assert str(exc.value) == "z integrand 'log(x1)' is non-finite at t=1.0"


class TestFunctional:
    def test_prefixes_are_exact_sums(self):
        p = mixed_problem()
        x = random_trajectory(p, 6)
        env = path_env(p.ts, x.values, len(p.ts) - 1)
        env["z"] = np.asarray(fsum_prefixes(p.ts, tree_walk(p.z_integrand, env)))
        expected = fsum_prefixes(p.ts, tree_walk(p.lagrangian, env))
        for k in range(1, len(p.ts)):
            assert evaluate_functional_partial(p, x, p.ts.points[k]) == expected[k]

    @pytest.mark.parametrize("sense", list(Sense))
    def test_one_sum_at_the_horizon_is_the_running_objective(self, sense):
        # mixed_problem starts dense; the sampled interval is dense throughout
        for p in (mixed_problem(sense), mixed_problem(sense, sampled_interval(0.0, 2.0, 24))):
            for seed in range(3):
                x = random_trajectory(p, seed)
                J = _running_objective(p, x)
                for k in range(1, len(p.ts)):
                    assert evaluate_functional_partial(p, x, p.ts.points[k]) == J[k]

    def test_sum_overflow_past_the_horizon_does_not_raise(self):
        p = make_problem(L="1e308")
        x = linear_trajectory(p)
        assert evaluate_functional_partial(p, x, 1.0) == 1e308
        with pytest.raises(OverflowError):
            evaluate_functional_partial(p, x, 2.0)

    def test_a_z_sum_nothing_reads_does_not_overflow(self):
        # w*g sums past the largest float from t = 2 on, but L never reads z
        p = make_problem(L="-(v1^2)", g="1e308")
        x = linear_trajectory(p)
        with pytest.raises(OverflowError):
            compute_z(p, x)
        assert evaluate_functional_partial(p, x, 5.0) == -5.0
        assert weak_max_compare(p, linear_trajectory(p, 2.0), x) < 0.0

    def test_quadratic_speed_cost(self):
        # L = -(v1^2), x linear with slope 1: J_T = -T on the integer scale
        p = make_problem()
        x = linear_trajectory(p)
        assert evaluate_functional_partial(p, x, 3.0) == -3.0
        assert evaluate_functional_partial(p, x, 5.0) == -5.0

    def test_literal_L_for_min_sense(self):
        p = make_problem(sense=Sense.MIN)
        x = linear_trajectory(p)
        assert evaluate_functional_partial(p, x, 3.0) == -3.0

    def test_horizon_must_follow_start(self):
        p = make_problem()
        for fn in (evaluate_functional_partial, residual_report, transversality_residual_T1,
                   transversality_residual_T2):
            with pytest.raises(ProblemError, match="strictly past the initial point"):
                fn(p, linear_trajectory(p), 0.0)

    def test_rows_past_the_horizon_are_never_evaluated(self):
        # sqrt(2.5 - t) is NaN from t = 3 on: the objective truncated at 2 and
        # the residuals at T' = 2 read rows 0..2 only
        p = make_problem(L="-(v1^2) + sqrt(2.5 - t)*x1")
        x = linear_trajectory(p)
        assert math.isfinite(evaluate_functional_partial(p, x, 2.0))
        report = residual_report(p, x, 2.0)
        assert np.isfinite(report.el_pointwise).all() and np.isfinite(report.trans_T2).all()
        with pytest.raises(ExprDomainError, match="t=3.0"):
            evaluate_functional_partial(p, x, 3.0)


class TestPointwiseResidual:
    def test_zero_along_linear_extremal(self):
        p = make_problem()
        x = linear_trajectory(p, slope=2.0)
        for t in (2.0, 3.0, 4.0, 5.0):
            assert el_residual_pointwise(p, x, t, 5.0)[0] == 0.0

    def test_independent_of_T_prime_when_z_free(self):
        p = make_problem(L="-(v1^2) - x1^2")
        rng = np.random.default_rng(0)
        vals = np.concatenate([[p.x_a[0]], rng.uniform(-1, 1, len(p.ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        for t in (2.0, 3.0):
            r3 = el_residual_pointwise(p, x, t, 3.0)[0]
            r5 = el_residual_pointwise(p, x, t, 5.0)[0]
            assert r3 == r5

    def test_finite_horizon_matches_pointwise_at_same_cut(self):
        p = make_problem(L="-(v1^2)-z", g="x1^2", x_a=1.0)
        rng = np.random.default_rng(1)
        vals = np.concatenate([[1.0], rng.uniform(-1, 1, len(p.ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        r1 = finite_horizon_el_residual(p, x, 5.0, 3.0)
        r2 = el_residual_pointwise(p, x, 3.0, 5.0)
        assert np.array_equal(r1, r2)

    def test_outside_kappa_raises(self):
        p = make_problem()
        with pytest.raises(OutsideKappaError):
            el_residual_pointwise(p, linear_trajectory(p), 0.0, 5.0)

    def test_unreported_rows_raise(self):
        p = make_problem()
        x = linear_trajectory(p)
        for t, T in ((4.0, 3.0), (1.0, 5.0)):  # past T'; row 1 reads the pinned start
            with pytest.raises(ProblemError):
                el_residual_pointwise(p, x, t, T)
        q = make_problem(ts=sampled_interval(0.0, 1.0, 4))
        for t in (0.0, 0.25, 0.75):  # rows 0 and 1 on a dense start, and past T' = 0.5
            with pytest.raises(ProblemError):
                el_residual_pointwise(q, linear_trajectory(q), t, 0.5)
        assert el_residual_pointwise(q, linear_trajectory(q), 0.5, 0.5)[0] == 0.0

    def test_report_indices_skip_min_successor_on_scattered_start(self):
        # row j reads the condition in x(t_{j-1}): row 1 would read the
        # pinned start x(0), on a scattered start as on a dense one
        assert el_report_indices(integers(0, 5)) == (2, 3, 4, 5)
        assert el_report_indices(integers(0, 5), 3) == (2, 3)
        ts = sampled_interval(0.0, 1.0, 4)
        assert el_report_indices(ts) == (2, 3, 4)
        assert el_report_indices(ts, 2) == (2,)


def stencil_residual(p, x, T_prime):
    """The second-difference stencil the pointwise rows replaced, as an
    oracle: gx*I - (gv*I)^nabla + Lx - Lv^nabla with I(t) the integral of
    Lz over (rho(t), T'], on grid rows 0..k (k + 1, n)."""
    core = _ELCore.along(p, x, T_prime)
    w = p.ts.local_steps[: core.k + 1]
    dG = nabla_quotients(core.gv * core.I, w)
    return core.gx * core.I - dG + core.Lx - nabla_quotients(core.Lv, w)


def fd_stationarity(p, x, T_prime, j, h=1e-5):
    """Central differences of the maximized objective truncated at T' in
    x(t_{j-1}), divided by the step t_j - t_{j-1}: independent of the
    symbolic partials."""
    sign = -1.0 if p.sense is Sense.MIN else 1.0
    i = j - 1
    out = np.empty(p.n)
    for c in range(p.n):
        vals = []
        for step in (h, -h):
            moved = x.values.copy()
            moved[i, c] += step
            vals.append(evaluate_functional_partial(p, Trajectory.from_values(p, moved), T_prime))
        out[c] = sign * (vals[0] - vals[1]) / (2.0 * h) / p.ts.local_steps[j]
    return out


def junction_grid():
    """A dense start, scattered gaps, and a dense run after them: x(3.5) is
    rho of no grid point."""
    return from_points([0.0, 0.2, 0.3, 0.6, 1.0, 2.0, 3.0, 3.5, 3.6, 3.8, 4.8, 5.8, 7.0],
                       "ddddsssddsss")


def held_optimum(p, T_prime, held, value):
    """The state that makes the objective truncated at T' stationary in every
    value x(t_1)..x(t_k) but x(t_held), which is held at ``value``, for an
    objective quadratic in the state: its gradient and Hessian from its own
    differences at unit steps, exact up to rounding and independent of the
    symbolic partials."""
    k, n = p.ts.index_of(T_prime), p.n
    base = np.tile(p.x_a_array, (len(p.ts), 1))

    def J(u):
        vals = base.copy()
        vals[1 : k + 1] += u.reshape(k, n)
        return evaluate_functional_partial(p, Trajectory.from_values(p, vals), T_prime)

    E = np.eye(k * n)
    J0, up, down = J(np.zeros(k * n)), [J(e) for e in E], [J(-e) for e in E]
    b = (np.array(up) - down) / 2.0
    H = np.diag(np.array(up) + down - 2.0 * J0)
    for a in range(k * n):
        for c in range(a):
            H[a, c] = H[c, a] = J(E[a] + E[c]) - up[a] - up[c] + J0
    fixed = [(held - 1) * n + c for c in range(n)]
    free = [a for a in range(k * n) if a not in fixed]
    u = np.zeros(k * n)
    u[fixed] = np.asarray(value) - base[held]
    u[free] = np.linalg.solve(H[np.ix_(free, free)], -b[free] - H[np.ix_(free, fixed)] @ u[fixed])
    vals = base.copy()
    vals[1 : k + 1] += u.reshape(k, n)
    return Trajectory.from_values(p, vals)


#: z-coupled problems for the stationarity oracles: n -> (L, g, x_a)
COUPLED = {
    1: ("exp(-0.1*t)*(-(v1^2) - x1^2) - 0.1*z*x1", "x1^2 + v1", (0.5,)),
    2: ("exp(-0.1*t)*(-(v1^2) - x1^2 - v2^2 + 0.5*x1*x2) - 0.1*z", "x1^2 + x2*v1", (1.0, -0.5)),
}


class TestStationarityRows:
    @pytest.mark.parametrize("grid", ["integers", "q_scale", "mixed"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN])
    def test_matches_the_stencil_where_t_and_its_predecessor_are_scattered(self, grid, n, sense):
        ts = {
            "integers": integers(0, 12),
            "q_scale": q_scale(1.3, 1.0, 12),
            "mixed": junction_grid(),
        }[grid]
        L, g, x_a = COUPLED[n]
        p = Problem.from_strings(ts, n, L if sense is Sense.MAX else f"-({L})", g, x_a, sense)
        both = [j for j in range(2, len(ts)) if ts.rho_indices[j - 1] == j - 2
                and ts.rho_indices[j] == j - 1]
        for seed in range(3):
            x = random_trajectory(p, seed)
            for T in (ts.points[len(ts) // 2], ts.points[-1]):
                report = residual_report(p, x, T)
                rows = report.pointwise_rows.tolist()
                R = stencil_residual(p, x, T)
                checked = [j for j in both if j in rows]
                assert checked
                for j in checked:
                    got = report.el_pointwise[rows.index(j)]
                    np.testing.assert_allclose(got, R[j], rtol=1e-12,
                                               atol=1e-12 * np.max(np.abs(R[checked])))
        if grid != "mixed":  # every reported row of a scattered grid
            assert both[0] == 2 and both == list(el_report_indices(ts))

    @pytest.mark.parametrize("case", ["mixed", "junction", "dense_start", "alternating", "q_scale"])
    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN])
    def test_every_row_is_the_derivative_of_the_truncated_objective(self, case, sense):
        # dense and junction rows included: row j is the derivative of the
        # objective truncated at T' in x(t_{j-1}), over the step to t_j, so
        # every state value T' leaves free, x(t_1)..x(t_{k-1}), has one row
        if case == "mixed":
            p = mixed_problem(sense)
        else:
            ts = {
                "dense_start": from_points([k / 8 for k in range(9)] + [2.0, 3.0, 4.0], "d" * 8 + "ss" + "s"),
                "alternating": from_points(np.cumsum([0.0] + [0.1, 0.3] * 5).tolist(), "d" * 10),
                "q_scale": q_scale(1.3, 1.0, 10),
                "junction": junction_grid(),
            }[case]
            L, g, x_a = COUPLED[1]
            p = Problem.from_strings(ts, 1, L if sense is Sense.MAX else f"-({L})", g, x_a, sense)
        ts = p.ts
        x = random_trajectory(p, 5)
        for T in (ts.points[len(ts) // 2], ts.points[-1]):
            report = residual_report(p, x, T)
            rows = report.pointwise_rows.tolist()
            k = ts.index_of(T)
            assert [j - 1 for j in rows] == list(range(1, k))
            for j, got in zip(rows, report.el_pointwise):
                np.testing.assert_allclose(got, fd_stationarity(p, x, T, j), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("case", ["junction", "mixed"])
    def test_a_wrong_value_after_a_scattered_gap_before_a_dense_run_fails(self, case):
        # x(t_i) after a scattered gap and before a dense run is rho of no
        # grid point; the row at t_{i+1} reads its condition.  Held at a wrong
        # value with every other state value stationary, only that row fails.
        if case == "junction":
            p, T, t = Problem.from_strings(junction_grid(), 2, *COUPLED[2]), 7.0, 3.5
        else:
            p, T, t = mixed_problem(), 13.0, 12.5
        ts = p.ts
        i = ts.index_of(t)
        assert i not in ts.rho_indices
        x = held_optimum(p, T, i, (2.0, 2.0))
        report = residual_report(p, x, T)
        rows = report.pointwise_rows.tolist()
        assert [j - 1 for j in rows] == list(range(1, ts.index_of(T)))
        at = rows.index(i + 1)
        assert np.min(np.abs(report.el_pointwise[at])) > 0.05
        assert np.max(np.abs(np.delete(report.el_pointwise, at, axis=0))) <= 1e-8
        assert report.max_pointwise > 1e-6  # check-el fails at its default tolerance


class TestIntegralForm:
    def test_constant_for_linear_extremal(self):
        # L = -(v1^2): the integral form equals L_v = -2 * slope at every t
        slope = 1.5
        p = make_problem()
        x = linear_trajectory(p, slope)
        report = residual_report(p, x, 5.0)
        assert report.integral_rows.tolist() == [1, 2, 3, 4, 5]
        for val in report.el_integral[:, 0]:
            assert val == pytest.approx(-2 * slope, rel=1e-14)
        spread = report.el_integral_constant_spread
        assert spread[0] <= 1e-14

    def test_equivalence_of_forms_at_scattered_points(self):
        # nabla derivative of the integral form = -(pointwise residual), an
        # algebraic identity that must hold for arbitrary trajectories where
        # t and its predecessor are left-scattered (t = 3.0, 4.5, 6.0)
        ts = from_points(
            [0.0, 1.0, 1.25, 1.5, 2.5, 3.0, 4.5, 6.0],
            ["s", "d", "d", "s", "s", "s", "s"],
        )
        p = Problem.from_strings(ts, 1, "-(v1^2) - z - x1^2/4", "x1^2 + x1*v1/2", 0.5)
        rng = np.random.default_rng(7)
        vals = np.concatenate([[0.5], rng.uniform(-1, 1, len(ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        T = ts.points[-1]
        report = residual_report(p, x, T)
        F = dict(zip(report.integral_rows.tolist(), report.el_integral[:, 0]))
        checked = []
        for j, t in enumerate(ts.points):
            if j < 2 or GapKind.DENSE_SAMPLE in ts.gap_kinds[j - 2 : j]:
                continue
            checked.append(t)
            dF = (F[j] - F[j - 1]) / ts.local_steps[j]
            R = el_residual_pointwise(p, x, t, T)[0]
            assert abs(dF + R) <= 1e-8 * max(1.0, abs(dF), abs(R))
        assert checked == [3.0, 4.5, 6.0]


class TestTransversality:
    def test_T1_matches_manual_bracket(self):
        ts = integers(0, 4)
        p = Problem.from_strings(ts, 1, "-(v1^2)-z", "x1*v1", 1.0)
        rng = np.random.default_rng(3)
        vals = np.concatenate([[1.0], rng.uniform(0.5, 2.0, len(ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        T = 4.0
        v_T = (vals[4, 0] - vals[3, 0]) / 1.0
        x_rho_T = vals[3, 0]
        # bracket = Lv + gv * nu * Lz = -2 v + x_rho * 1 * (-1)
        manual = vals[4, 0] * (-2 * v_T + x_rho_T * 1.0 * (-1.0))
        assert transversality_residual_T1(p, x, T) == pytest.approx(manual, rel=1e-14)

    def test_T1_item_five_route_agrees_at_scattered_point(self):
        ts = integers(0, 4)
        p = Problem.from_strings(ts, 1, "-(v1^2)-z", "x1*v1", 1.0)
        rng = np.random.default_rng(4)
        vals = np.concatenate([[1.0], rng.uniform(0.5, 2.0, len(ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        # nu(T) * Lz(T) computed as a product must equal the explicit
        # single-gap nabla integral of the Lz grid function
        Lz = GridFunction.from_callable(ts, lambda t: -1.0)
        direct = nabla_integral(Lz, ts.rho(4.0), 4.0)[0]
        assert direct == ts.nu(4.0) * -1.0

    def test_T2_zero_when_L_ignores_state(self):
        p = make_problem()
        x = linear_trajectory(p)
        assert transversality_residual_T2(p, x, 5.0) == 0.0

    def test_T1_dense_endpoint_drops_graininess_term(self):
        ts = sampled_interval(0.0, 1.0, 4)
        p = Problem.from_strings(ts, 1, "-(v1^2)-z", "x1^2", 1.0)
        x = linear_trajectory(p, slope=-1.0)
        # nu(1.0) = 0 on a sampled interval: only x(T') * Lv(T') remains
        v_T = (x.values[4, 0] - x.values[3, 0]) / 0.25
        assert transversality_residual_T1(p, x, 1.0) == pytest.approx(
            x.values[4, 0] * (-2 * v_T), rel=1e-13
        )


class TestWeakMaxCompare:
    def test_identical_trajectories_give_exact_zero(self):
        p = make_problem(L="-(x1^2)")
        x = linear_trajectory(p, slope=0.3)
        assert weak_max_compare(p, x, x) == 0.0

    def test_worse_candidate_has_negative_margin(self):
        p = make_problem(L="-(x1^2)", ts=integers(0, 10))
        star = Trajectory.constant(p)  # x = 0 everywhere, the true maximizer
        rng = np.random.default_rng(9)
        vals = np.concatenate([[0.0], rng.uniform(-1, 1, len(p.ts) - 1)])[:, None]
        cand = Trajectory.from_values(p, vals)
        assert weak_max_compare(p, cand, star) < 0.0

    def test_improvement_has_positive_margin(self):
        p = make_problem(L="-(x1^2)", ts=integers(0, 10))
        bad = np.full((len(p.ts), 1), 0.5)
        bad[0, 0] = 0.0
        star = Trajectory.from_values(p, bad)
        good = Trajectory.constant(p)
        assert weak_max_compare(p, good, star) > 0.0

    def test_min_sense_flips_comparison(self):
        # for MIN of x1^2, x = 0 is optimal and perturbations must not improve
        p = make_problem(L="x1^2", ts=integers(0, 10), sense=Sense.MIN)
        star = Trajectory.constant(p)
        vals = np.concatenate([[0.0], np.full(len(p.ts) - 1, 0.7)])[:, None]
        cand = Trajectory.from_values(p, vals)
        assert weak_max_compare(p, cand, star) < 0.0

    def test_grid_mismatch(self):
        p = make_problem()
        q = make_problem(ts=integers(0, 7))
        with pytest.raises(GridMismatchError):
            weak_max_compare(p, linear_trajectory(p), linear_trajectory(q))

    @pytest.mark.parametrize("sense", [Sense.MAX, Sense.MIN])
    def test_matches_loop_over_truncated_objectives(self, sense):
        # the oracle re-evaluates the truncated objective at every T'
        p = mixed_problem(sense)
        sign = -1.0 if sense is Sense.MIN else 1.0
        for seed in range(4):
            cand, star = random_trajectory(p, 2 * seed), random_trajectory(p, 2 * seed + 1)
            values = np.array([
                sign * (evaluate_functional_partial(p, cand, T) - evaluate_functional_partial(p, star, T))
                for T in p.ts.points[1:]
            ])
            assert weak_max_compare(p, cand, star) == liminf_estimate(values)


class TestClassicalLimit:
    def test_sampled_linear_extremal_is_exact(self):
        # L = -(v1^2): the sampled analytic extremal x(t) = t has velocity
        # exactly 1 on the grid, so the residual vanishes identically
        def max_residual(n):
            ts = sampled_interval(0.0, 1.0, n)
            p = Problem.from_strings(ts, 1, "-(v1^2)", "0", 0.0)
            x = Trajectory.from_values(p, ts.points_array[:, None])
            rep = residual_report(p, x)
            return rep.max_pointwise

        r_coarse, r_fine = max_residual(10), max_residual(20)
        assert r_coarse <= 1e-12
        assert r_fine <= max(r_coarse / 1.8, 1e-12)

    def test_curved_extremal_residual_is_second_order(self):
        # L = -(v1^2) - x1^2 has extremal sinh(t); a row reads the first-order
        # condition of the sampled problem, which the sampled extremal meets
        # to O(h^2) on a uniform dense grid
        def max_residual(n):
            ts = sampled_interval(0.0, 1.0, n)
            p = Problem.from_strings(ts, 1, "-(v1^2) - x1^2", "0", 0.0)
            x = Trajectory.from_values(p, np.sinh(ts.points_array)[:, None])
            return residual_report(p, x).max_pointwise

        r_coarse, r_fine = max_residual(64), max_residual(128)
        assert r_fine <= r_coarse / 3.5


class TestResidualReport:
    def test_report_and_csv_round_trip(self, tmp_path):
        p = make_problem(L="-(v1^2)-z", g="x1^2", x_a=1.0)
        rng = np.random.default_rng(11)
        vals = np.concatenate([[1.0], rng.uniform(-1, 1, len(p.ts) - 1)])[:, None]
        x = Trajectory.from_values(p, vals)
        rep = residual_report(p, x)
        assert rep.T_prime == 5.0
        assert len(rep.el_pointwise) == len(el_report_indices(p.ts))
        assert rep.pointwise_rows.tolist() == list(el_report_indices(p.ts))
        assert rep.el_pointwise.shape == (len(el_report_indices(p.ts)), 1)
        assert len(rep.trans_T1) == len(p.ts) - 1
        assert rep.trans_T1.shape == rep.trans_T2.shape == (len(p.ts) - 1,)
        path = tmp_path / "residuals.csv"
        _write_bytes(path, rep.csv_bytes())
        header = path.read_text().splitlines()[0]
        assert header == "t,T_prime,component,value,kind"

    def test_min_problem_mirrors_negated_max(self):
        ts = integers(0, 6)
        rng = np.random.default_rng(13)
        vals = np.concatenate([[1.0], rng.uniform(-1, 1, len(ts) - 1)])[:, None]
        p_min = Problem.from_strings(ts, 1, "v1^2 + x1^2", "0", 1.0, Sense.MIN)
        p_max = Problem.from_strings(ts, 1, "-(v1^2 + x1^2)", "0", 1.0, Sense.MAX)
        x_min = Trajectory.from_values(p_min, vals)
        x_max = Trajectory.from_values(p_max, vals)
        r_min = el_residual_pointwise(p_min, x_min, 3.0, 6.0)
        r_max = el_residual_pointwise(p_max, x_max, 3.0, 6.0)
        assert np.array_equal(r_min, r_max)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def report_cases(draw):
    """A grid of scattered and dense runs (possibly starting dense, dense
    steps non-uniform), n in {1, 2}, either sense, T' mid-grid or last,
    and a random admissible trajectory."""
    runs = draw(st.lists(st.tuples(st.sampled_from("sd"), st.integers(1, 4)), min_size=1, max_size=5))
    kinds = "".join(kind * count for kind, count in runs)
    if len(kinds) < 3:
        kinds += "s" * (3 - len(kinds))
    steps = [
        draw(st.sampled_from([1.0, 0.5, 2.0])) if kind == "s" else draw(st.floats(0.05, 0.4))
        for kind in kinds
    ]
    ts = from_points(np.cumsum([0.0] + steps).tolist(), kinds)
    n = draw(st.sampled_from([1, 2]))
    sense = draw(st.sampled_from([Sense.MAX, Sense.MIN]))
    if n == 1:
        L, g, x_a = "exp(-0.1*t)*(-(v1^2) - x1^2) - 0.1*z*x1", "x1^2 + v1", (0.5,)
        if sense is Sense.MIN:
            L = f"-({L})"
        p = Problem.from_strings(ts, 1, L, g, x_a, sense)
    else:
        p = mixed_problem(sense, ts)
    x = random_trajectory(p, draw(st.integers(0, 10_000)))
    T_prime = draw(st.sampled_from([ts.points[len(ts) // 2], ts.points[-1]]))
    return p, x, T_prime


def loop_stationarity(core, j):
    """Row j of the pointwise residual, term by term: the derivative in
    x(t_{j-1}) of the objective truncated at t_k, over the step w_j.  Terms
    j - 1 and j read x(t_{j-1}) through v, and through x(rho(t)) where
    rho(t) = t_{j-1}; through z each reads it with the weight S, the
    integral of Lz from that term to t_k (by math.fsum)."""
    w, rho, i = core.ts.local_steps[: core.k + 1], core.ts.rho_indices, j - 1

    def S(r):
        return math.fsum((w * core.Lz)[r : core.k + 1].tolist())

    def through_v(r):
        return core.Lv[r] + S(r) * core.gv[r]

    def through_x(r):
        return w[r] * (core.Lx[r] + S(r) * core.gx[r])

    grad = through_v(i) - through_v(j)
    for r in (i, j):
        if rho[r] == i:
            grad = grad + through_x(r)
    return grad / w[j]


def per_row_report(p, x, T_prime):
    """The per-row report: reported rows as (t, row) pairs, and T1 and T2
    as (t, value) pairs from one dot product per row."""
    ts = p.ts
    core = _ELCore.along(p, x, T_prime, start=0)  # every row, the start's included
    k = core.k
    F = core.integral_form()
    # row j reads x(t_{j-1}), neither the pinned start nor the free end
    rows_pw = range(2, k + 1)
    rows_int = [j for j in ts.kappa_indices if j <= k]
    spread = F[rows_int].max(axis=0) - F[rows_int].min(axis=0)

    def t1(j):
        bracket = core.Lv[j] + core.gv[j] * (core.nu_true[j] * core.Lz[j])
        return float(x.values[j] @ bracket)

    return {
        "el_pointwise": [(ts.points[j], loop_stationarity(core, j)) for j in rows_pw],
        "el_integral": [(ts.points[j], F[j]) for j in rows_int],
        "spread": spread,
        "trans_T1": [(ts.points[j], t1(j)) for j in range(1, k + 1)],
        "trans_T2": [(ts.points[j], float(x.values[j] @ core.CumLx[j])) for j in range(1, k + 1)],
    }


def per_row_report_csv(report, T_prime, path):
    """The residual CSV written one ``csv.writer`` row at a time."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "T_prime", "component", "value", "kind"])
        for kind in ("el_pointwise", "el_integral"):
            for t, vec in report[kind]:
                for c, v in enumerate(vec, start=1):
                    wr.writerow([repr(t), repr(T_prime), c, repr(float(v)), kind])
        for c, v in enumerate(report["spread"], start=1):
            wr.writerow([repr(T_prime), repr(T_prime), c, repr(float(v)), "el_integral_spread"])
        for kind in ("trans_T1", "trans_T2"):
            for t, v in report[kind]:
                wr.writerow([repr(t), repr(T_prime), 0, repr(v), kind])


def per_row_trajectory_csv(x, path):
    """The trajectory CSV written one ``csv.writer`` row at a time."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t"] + [f"x{i}" for i in range(1, x.x.dim + 1)])
        for j, t in enumerate(x.x.ts.points):
            wr.writerow([repr(t)] + [repr(float(v)) for v in x.x.values[j]])


class TestReportArrays:
    @given(report_cases())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_row_report_and_writer(self, tmp_path_factory, case):
        p, x, T_prime = case
        report = residual_report(p, x, T_prime)
        oracle = per_row_report(p, x, T_prime)
        ts = p.ts
        families = (("el_pointwise", report.pointwise_rows), ("el_integral", report.integral_rows))
        for kind, rows in families:
            values = getattr(report, kind)
            assert [ts.points[j] for j in rows.tolist()] == [t for t, _ in oracle[kind]]
            assert values.shape == (len(oracle[kind]), p.n)
            expected = np.array([r for _, r in oracle[kind]]).reshape(-1, p.n)
            if kind == "el_integral":
                assert np.array_equal(values, expected)
            else:  # summed in another order
                np.testing.assert_allclose(values, expected, rtol=1e-10,
                                           atol=1e-10 * (1.0 + _abs_max(expected)))
        # the writer's bytes from the report's own pointwise values
        oracle["el_pointwise"] = [(t, r) for (t, _), r in zip(oracle["el_pointwise"], report.el_pointwise)]
        assert np.array_equal(report.el_integral_constant_spread, oracle["spread"])
        assert report.trans_T1.tolist() == [v for _, v in oracle["trans_T1"]]
        assert report.trans_T2.tolist() == [v for _, v in oracle["trans_T2"]]
        k = len(report.trans_T1)
        assert [ts.points[j] for j in range(1, k + 1)] == [t for t, _ in oracle["trans_T1"]]
        assert report.max_pointwise == max(
            (float(np.max(np.abs(r))) for _, r in oracle["el_pointwise"]), default=0.0
        )
        d = tmp_path_factory.mktemp("report")
        _write_bytes(d / "new.csv", report.csv_bytes())
        per_row_report_csv(oracle, float(T_prime), d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    @given(report_cases())
    @settings(max_examples=60, deadline=None)
    def test_the_start_is_evaluated_only_where_it_is_read(self, case):
        # evaluating every row, the start included, as the kernel calls along
        # a path once did, changes no report, z or objective by a bit where L
        # is finite at the start: only the integral form on a dense start
        # reads row 0, and it is evaluated there
        p, x, T_prime = case
        other = random_trajectory(p, 99)

        def outputs():
            report = residual_report(p, x, T_prime)
            arrays = [getattr(report, name) for name in (
                "pointwise_rows", "el_pointwise", "integral_rows", "el_integral",
                "el_integral_constant_spread", "trans_T1", "trans_T2")]
            arrays += [compute_z(p, x).values, _running_objective(p, x)]
            return [a.tobytes() for a in arrays] + [
                repr(evaluate_functional_partial(p, x, T_prime)),
                repr(weak_max_compare(p, x, other)),
                repr(transversality_residual_T1(p, x, T_prime)),
                repr(transversality_residual_T2(p, x, T_prime)),
            ]

        rows_read = outputs()
        path = variational._path

        def every_row_path(*args, start=1):  # the rows start..k of a call on rows 0..k
            return {key: a[:, start:] for key, a in path(*args, start=0).items()}

        with patch.object(variational, "_path", every_row_path):
            every_row = outputs()
        assert rows_read == every_row

    def test_the_start_is_read_only_by_the_integral_form_on_a_dense_start(self):
        # -x1^2/t is not finite at t = 0: on a right-scattered start nothing
        # reads it; on a dense start the integral form does, and says where
        L = "-(v1^2) - x1^2/t"
        scattered = make_problem(L, x_a=1.0, ts=integers(0, 6))
        x = linear_trajectory(scattered, -0.1)
        report = residual_report(scattered, x)
        assert report.integral_rows[0] == 1
        assert np.all(np.isfinite(report.el_pointwise)) and np.all(np.isfinite(report.el_integral))
        assert math.isfinite(evaluate_functional_partial(scattered, x, 6.0))
        assert weak_max_compare(scattered, x, x) == 0.0
        dense = make_problem(L, x_a=1.0, ts=sampled_interval(0.0, 1.0, 4))
        x = linear_trajectory(dense, -0.1)
        with pytest.raises(ExprDomainError, match=r"is non-finite at t=0\.0$"):
            residual_report(dense, x)
        assert np.all(np.isfinite(el_residual_pointwise(dense, x, 0.5, 1.0)))
        assert math.isfinite(evaluate_functional_partial(dense, x, 1.0))

    @given(report_cases(), st.lists(finite_floats, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_trajectory_csv_matches_the_per_row_writer(self, tmp_path_factory, case, pool):
        p, x, _ = case
        # every float the trajectory holds: -0.0, subnormals, 1e308 and the like
        vals = np.resize(np.array(pool + [-0.0]), (len(p.ts), p.n))
        vals[0] = p.x_a
        x = Trajectory.from_values(p, vals)
        d = tmp_path_factory.mktemp("trajectory")
        trajectory_to_csv(x, d / "new.csv")
        per_row_trajectory_csv(x, d / "old.csv")
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
        assert np.array_equal(trajectory_from_csv(p, d / "new.csv").values, vals)

    def test_report_makes_no_per_row_transversality_calls(self, monkeypatch):
        calls = []
        original = _ELCore.transversality

        def counting(self, rows):
            calls.append((rows.start, rows.stop))
            return original(self, rows)

        monkeypatch.setattr(_ELCore, "transversality", counting)
        p = mixed_problem()
        x = random_trajectory(p, 3)
        k = len(p.ts) - 1
        report = residual_report(p, x)
        assert calls == [(1, k + 1)]  # one batched call over rows 1..k
        T1 = transversality_residual_T1(p, x, p.ts.points[-1])
        T2 = transversality_residual_T2(p, x, p.ts.points[-1])
        assert calls[1:] == [(k, k + 1), (k, k + 1)]
        assert (T1, T2) == (report.trans_T1[-1], report.trans_T2[-1])

    def test_a_nan_row_anywhere_makes_the_maximum_nan(self):
        # L = z*f(t) with g = 0: the tail integral I of f overflows to -inf at
        # t = 3 only, and gx*I = 0*(-inf) puts NaN in rows 3 and 4, after a
        # finite row 2 (the maximum over the rows once skipped them)
        p = make_problem(L="z*1e308*cos(pi*(t-1)/3)")
        report = residual_report(p, Trajectory.constant(p))
        assert np.isfinite(report.el_pointwise[0, 0])
        assert np.isnan(report.el_pointwise[1:3, 0]).all()
        assert math.isnan(report.max_pointwise)


def per_row_csv_of(report, path):
    """The residual CSV of a report's own arrays, one ``csv.writer`` row at a
    time, each t written as ``repr`` of its grid point."""
    T, pts = repr(report.T_prime), report.ts.points
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "T_prime", "component", "value", "kind"])
        for rows, values, kind in ((report.pointwise_rows, report.el_pointwise, "el_pointwise"),
                                   (report.integral_rows, report.el_integral, "el_integral")):
            for j, vec in zip(rows, values):
                for c, v in enumerate(vec, start=1):
                    wr.writerow([repr(pts[j]), T, c, repr(float(v)), kind])
        for c, v in enumerate(report.el_integral_constant_spread, start=1):
            wr.writerow([T, T, c, repr(float(v)), "el_integral_spread"])
        for values, kind in ((report.trans_T1, "trans_T1"), (report.trans_T2, "trans_T2")):
            for j, v in enumerate(values, start=1):
                wr.writerow([repr(pts[j]), T, 0, repr(float(v)), kind])


class TestTrajectoryCsv:
    @pytest.mark.parametrize("ts", [
        q_scale(1.1, 0.7, 40),
        from_points([k / 7 for k in range(8)] + [1.3 ** k for k in range(2, 13)] + [25.0 + k / 3 for k in range(5)],
                    "d" * 7 + "s" * 12 + "d" * 4),
    ], ids=["q_scale", "mixed"])
    def test_each_t_is_written_as_the_repr_of_its_point(self, tmp_path, ts):
        p = mixed_problem(ts=ts)
        x = random_trajectory(p, 5)
        trajectory_to_csv(x, tmp_path / "new.csv")
        per_row_trajectory_csv(x, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        for T_prime in (ts.points[len(ts) // 2], ts.points[-1]):
            report = residual_report(p, x, T_prime)
            _write_bytes(tmp_path / "new.csv", report.csv_bytes())
            per_row_csv_of(report, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_bit_exact_round_trip(self, tmp_path):
        ts = integers(0, 5)
        p = Problem.from_strings(ts, 2, "-(v1^2) - v2^2", "0", (0.1, -0.2))
        rng = np.random.default_rng(17)
        vals = rng.standard_normal((len(ts), 2))
        vals[0] = [0.1, -0.2]
        x = Trajectory.from_values(p, vals)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(x, path)
        back = trajectory_from_csv(p, path)
        assert np.array_equal(back.values, x.values)

    def test_a_malformed_cell_names_its_line(self, tmp_path):
        p = make_problem(ts=integers(0, 2))
        path = tmp_path / "traj.csv"
        path.write_text("t,x1\n0.0,0.0\n1.0,abc\n2.0,2.0\n")
        with pytest.raises(AdmissibilityError, match="^trajectory line 3: could not convert"):
            trajectory_from_csv(p, path)

    def test_grid_mismatch_detected(self, tmp_path):
        p = make_problem()
        x = linear_trajectory(p)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(x, path)
        p_other = make_problem(ts=integers(0, 7))
        with pytest.raises(AdmissibilityError):
            trajectory_from_csv(p_other, path)
