import csv
import logging
import math
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nablats import solver, variational
from nablats.calculus import nabla_quotients, running_fsum
from nablats.expressions import Kernel, Neg, Num, evaluate_many, parse, substitute
from nablats.solver import (
    EnumerationGuardError,
    HorizonRow,
    NonFiniteObjectiveError,
    SolveOptions,
    _band_factor,
    _band_sweep,
    _Engine,
    brute_force,
    direct_solve,
    free_coordinates,
    horizon_study,
    horizon_table_to_csv,
)
from nablats.timescale import from_points, integers, sampled_interval
from nablats.variational import (
    Problem,
    _ELCore,
    Sense,
    Trajectory,
    el_report_indices,
    el_residual_pointwise,
    evaluate_functional_partial,
    path_env,
    residual_report,
    transversality_residual_T1,
    transversality_residual_T2,
)
from tree_walk import tree_walk


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
    opts = SolveOptions(T_trunc=6.0, grad_tol=1e-9)
    return ts, p, opts


def gradient_at(eng, x):
    """The analytic gradient at x, from its own derivative pass."""
    return eng.analytic_gradient(eng.derivatives(x))


def band_at(eng, x):
    """The Hessian band at x, from its own derivative pass."""
    return eng.hessian_band(eng.derivatives(x))


def fd_gradient(eng, x):
    """Central differences of the truncated objective on the free
    coordinates: independent of the symbolic partials, the oracle of the
    analytic gradient.  Its error bottoms out near 5e-11, and it costs
    O(m^2 n) per gradient."""
    grad = np.empty(eng.last * eng.n)
    for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
        h = 1e-6 * (1.0 + abs(x[j, c]))
        xp = x.copy()
        xp[j, c] = x[j, c] + h
        fp = eng.objective(xp)
        xp[j, c] = x[j, c] - h
        fm = eng.objective(xp)
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def loop_gradient(eng, x):
    """The per-coordinate loop the vectorised analytic gradient replaced, on
    tree walks of the symbolic partials instead of the compiled kernel."""

    def walk(e):
        return np.broadcast_to(tree_walk(e, env), (eng.K,))

    env = {key: a[1:] for key, a in path_env(eng.p.ts, x, eng.K).items()}  # rows 1..K
    env["z"] = running_fsum(eng.w[1:] * walk(eng.p.z_integrand))
    d = eng.p.partials
    Lz = walk(d["Lz"])
    S = np.cumsum((eng.w[1:] * Lz)[::-1])[::-1]
    cols = {c: tuple(walk(d[key][c]) for key in ("Lx", "Lv", "gx", "gv")) for c in range(eng.n)}
    grad = np.empty(eng.last * eng.n)
    for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
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
    diag = np.empty(eng.last * eng.n)
    for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
        h = 1e-6 * (1.0 + abs(x[j, c]))
        xp = x.copy()
        xp[j, c] = x[j, c] + h
        gp = gradient_at(eng, xp)[i]
        xp[j, c] = x[j, c] - h
        gm = gradient_at(eng, xp)[i]
        diag[i] = abs(gp - gm) / (2.0 * h)
    return np.maximum(diag, 1e-30)


def fd_hessian(eng, x, h=0.1):
    """Hessian over the free coordinates by five-point central differences of
    the analytic gradient.  The objectives of ``coupled_case`` are quartic in
    the state, so the gradient is cubic along every coordinate and the stencil
    is exact up to rounding; the wide step keeps that rounding below 1e-9 of
    every entry."""
    H = np.empty((eng.last * eng.n, eng.last * eng.n))
    for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
        g = []
        for k in (2, 1, -1, -2):
            xp = x.copy()
            xp[j, c] = x[j, c] + k * h
            g.append(gradient_at(eng, xp))
        H[:, i] = (8.0 * (g[1] - g[2]) - (g[0] - g[3])) / (12.0 * h)
    return H


def assemble(diag, upper):
    """The dense symmetric matrix of a block-tridiagonal band."""
    F, n, _ = diag.shape
    M = np.zeros((F * n, F * n))
    for r in range(F):
        M[r * n : (r + 1) * n, r * n : (r + 1) * n] = diag[r]
    for r in range(F - 1):
        M[r * n : (r + 1) * n, (r + 1) * n : (r + 2) * n] = upper[r]
        M[(r + 1) * n : (r + 2) * n, r * n : (r + 1) * n] = upper[r].T
    return M


def band_diagonal(diag):
    return np.diagonal(diag, axis1=1, axis2=2).ravel()


def band_step(diag, upper, rhs):
    """The band's solution, swept through ``_band_factor``'s factors, or None
    where the factor rejects the band."""
    factors = _band_factor(diag, upper)
    return None if factors is None else _band_sweep(factors, rhs)


def einsum_band(eng, d):
    """The assembly ``_Engine.hessian_band`` replaced, as an oracle: term k's
    2n x 2n Hessian H_k, the (K, 2n, n) selectors D0 = [(1 - sc) I; I/w] and
    D1 = [sc I; -I/w], the sandwiches D^T H D as three-operand einsums and the
    z couplings a0, a1, c0, c1 as projections D^T a and D^T c."""
    w, n, K, S = eng.w[1:], eng.n, eng.K, d["S"]

    def matrix(rows):  # (K, 2n, 2n) from (2n)^2 row-major kernel rows
        return np.ascontiguousarray(rows.reshape(2 * n, 2 * n, K).transpose(2, 0, 1))

    def outer(p, q):
        return p[:, :, None] * q[:, None, :]

    def ahead(A, s=1):  # A[k + s] at row k, zero past the last term
        out = np.zeros_like(A)
        out[: len(A) - s] = A[s:]
        return out

    a = w[:, None] * np.ascontiguousarray(np.concatenate([d["gx"], d["gv"]]).T)
    b = w[:, None] * np.ascontiguousarray(d["Luz"].T)
    Q = np.cumsum((w * d["Lzz"][0])[::-1])[::-1]
    c = b + Q[:, None] * a
    H = matrix(d["Luu"]) + S[:, None, None] * matrix(d["guu"])
    H = w[:, None, None] * H + outer(a, b) + outer(b, a) + Q[:, None, None] * outer(a, a)
    eye = np.eye(n)
    D0 = np.concatenate([~eng.scattered[:, None, None] * eye, (1 / w)[:, None, None] * eye], 1)
    D1 = np.concatenate([eng.scattered[:, None, None] * eye, (-1 / w)[:, None, None] * eye], 1)

    def project(P, y):
        return np.einsum("kui,ku->ki", P, y)

    def sandwich(P, R):
        return np.einsum("kui,kuv,kvj->kij", P, H, R)

    a0, a1, c0, c1 = project(D0, a), project(D1, a), project(D0, c), project(D1, c)
    diag = sandwich(D0, D0) + ahead(sandwich(D1, D1))
    diag += outer(a0, ahead(c1)) + outer(ahead(c1), a0)
    upper = sandwich(D1, D0)[1:] + outer(a0[:-1], c0[1:])
    upper += outer(a0 + ahead(a1), ahead(c1, 2))[:-1]
    F = eng.last
    return diag[:F], upper[: max(F - 1, 0)]


def coupled_formula_band(eng, d):
    """The band of ``_Engine.hessian_band``'s coupled formula on every shape,
    every z coupling added: the bit-level oracle of the band, also where the
    couplings are exact zeros (``Problem.z_coupled_band`` false)."""
    w, n, K, S = eng.w[1:], eng.n, eng.K, d["S"]
    sc = eng.scattered.astype(float)
    ds, iw = 1.0 - sc, 1.0 / w
    a = w * np.concatenate([d["gx"], d["gv"]])
    b = w * d["Luz"]
    Q = np.cumsum((w * d["Lzz"][0])[::-1])[::-1]
    H = (w * (d["Luu"] + S * d["guu"])).reshape(2 * n, 2 * n, K)
    H = H + a[:, None] * b + b[:, None] * a + Q * (a[:, None] * a)
    xx, xv, vx, vv = H[:n, :n], H[:n, n:] * iw, H[n:, :n] * iw, H[n:, n:] * iw * iw
    ac = np.stack([a, b + Q * a])
    (a0, c0), (a1, c1) = ds * ac[:, :n] + iw * ac[:, n:], sc * ac[:, :n] - iw * ac[:, n:]
    c1n = np.zeros_like(c1)
    c1n[:, :-1] = c1[:, 1:]
    diag = ds * (xx + xv + vx) + vv
    diag[..., :-1] += (sc * (xx - xv - vx) + vv)[..., 1:]
    diag += a0[:, None] * c1n + c1n[:, None] * a0
    upper = (sc * xv - ds * vx - vv)[..., 1:] + a0[:, None, :-1] * c0[:, 1:]
    upper += (a0[:, :-1] + a1[:, 1:])[:, None] * c1n[:, 1:]
    F = eng.last
    return diag[..., :F].transpose(2, 0, 1), upper[..., : max(F - 1, 0)].transpose(2, 0, 1)


def coupled_case(seed, n, sense, coupling="full"):
    """A random mixed grid, a z-coupled L with nonzero L_zz, L_xz and L_vz, a g
    in x and v, a random horizon and terminal mode, and a random state.

    ``coupling="g0"`` sets g = 0 and ``"affine"`` keeps only the -c*z term of
    L: the two cases whose Hessian is block tridiagonal.
    """
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
        + "".join(f" + 0.5*x{i}*x{i + 1}" for i in range(1, n))
        + f") - {c(0.2, 0.3)}*z"
    )
    Lz = f" - {c(0.001, 0.005)}*z^2" + "".join(
        f" + {c(0.01, 0.03)}*x{i}*z - {c(0.01, 0.03)}*v{i}*z" for i in comps
    )
    g = " + ".join(f"x{i}^2 + {c(0.01, 0.05)}*x{i}*v{i} + {c(0.01, 0.05)}*v{i}^2" for i in comps)
    if coupling != "affine":
        L += Lz
    if coupling == "g0":
        g = "0"
    p = Problem.from_strings(ts, n, L, g, [0.25] * n, sense)
    K = int(rng.integers(2, m + 1))
    terminal = tuple(rng.uniform(-0.5, 0.5, n)) if rng.random() < 0.3 else None
    eng = _Engine(p, SolveOptions(T_trunc=ts.points[K], terminal=terminal))
    x = np.vstack([p.x_a_array, rng.uniform(-0.5, 0.5, (m, n))])
    return eng, x


coupled_cases = dict(
    seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 3]), sense=st.sampled_from(list(Sense))
)


def synthetic_band(seed, F, n, defect, zeroed):
    """A random symmetric block-tridiagonal band (diag, upper, rhs).

    Gershgorin-dominant, so positive definite with condition number below
    300, unless ``defect`` spoils a random row r: "indefinite" scales one
    diagonal entry of r by a factor in [-1, 0.2]; "singular" makes r's block
    exactly singular (n >= 2), or rows r and r + 1 exactly dependent (n = 1).
    ``zeroed`` other scalar rows are zero throughout, right-hand side too,
    like the rows of the solver whose terms have underflowed.  Returns the
    band, the right-hand side and the dense matrix with those rows' 0.0
    diagonal entries replaced by 1, as ``_band_factor`` factorises them.
    """
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (F, n, n))
    diag = A @ A.transpose(0, 2, 1) / n + 3.0 * n * np.eye(n)
    upper = rng.uniform(-1.0, 1.0, (F - 1, n, n))
    scale = 2.0 ** rng.uniform(-1.0, 1.0, (F, n))
    diag *= scale[:, :, None] * scale[:, None, :]
    upper *= scale[:-1, :, None] * scale[1:, None, :]
    rhs = rng.uniform(-1.0, 1.0, (F, n))
    r = int(rng.integers(0, F - 1)) if defect == "singular" and n == 1 else int(rng.integers(0, F))
    spoiled = {r}
    if defect == "indefinite":
        c = int(rng.integers(0, n))
        diag[r, c, c] *= rng.uniform(-1.0, 0.2)
    elif defect == "singular":
        a = 4.0 ** int(rng.integers(-2, 3))  # keeps the scaled entries exact
        if n == 1:
            diag[r] = diag[r + 1] = upper[r] = a
            spoiled.add(r + 1)
        else:
            diag[r] = a * np.eye(n)
            diag[r, 0, 1] = diag[r, 1, 0] = a
    rows = [(j, c) for j in range(F) for c in range(n) if j not in spoiled]
    for i in rng.permutation(len(rows))[:zeroed]:
        j, c = rows[i]
        diag[j, c, :] = diag[j, :, c] = rhs[j, c] = 0.0
        if j:
            upper[j - 1, :, c] = 0.0
        if j < F - 1:
            upper[j, c, :] = 0.0
    M = assemble(diag, upper)
    z = np.flatnonzero(np.diagonal(M) == 0.0)
    M[z, z] = 1.0
    return diag, upper, rhs, M


class TestDirectSolve:
    def test_phase_seconds_account_for_part_of_the_wall_time(self):
        p = Problem.from_strings(integers(0, 1600), 1, "exp(-t)*(-(v1^2)-x1^2)", "0", 1.0, Sense.MAX)
        start = time.perf_counter()
        _, info = direct_solve(p, SolveOptions(T_trunc=1600.0), with_info=True)
        wall = time.perf_counter() - start
        assert info.iterations == 2
        assert set(info.phase_seconds) == {
            "derivatives", "gradient", "band_assembly", "band_solve", "line_search"
        }
        assert all(v >= 0.0 for v in info.phase_seconds.values())
        assert sum(info.phase_seconds.values()) <= wall
        # left out of comparisons: equal outcomes compare equal
        assert info == replace(info, phase_seconds={})

    def test_pure_state_cost_goes_to_zero(self):
        p = make("-(x1^2)", x_a=0.0)
        x, info = direct_solve(p, SolveOptions(T_trunc=6.0), with_info=True)
        assert info.converged
        assert np.max(np.abs(x.values)) <= 1e-5

    def test_pinned_terminal_recovers_straight_line(self):
        ts = sampled_interval(0.0, 1.0, 8)
        p = make("-(v1^2)", ts=ts, x_a=0.0)
        opts = SolveOptions(T_trunc=1.0, terminal=(1.0,), grad_tol=1e-9)
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
        # f(x1) = -x1^2 from x1 = 1: the Newton step lands on the maximum with
        # no halving, and the band of a concave objective never falls back to
        # Jacobi scaling
        p = make("-(x1^2)", ts=sampled_interval(0.0, 1.0, 1), x_a=1.0)
        x, info = direct_solve(p, SolveOptions(T_trunc=1.0), with_info=True)
        assert x.values[1, 0] == 0.0
        assert (info.iterations, info.stop_reason, info.converged) == (2, "grad_tol", True)
        assert (info.backtracks, info.fallbacks, info.factorizations) == (0, 0, 1)

    @pytest.mark.parametrize(
        "opts, reason",
        [
            (SolveOptions(T_trunc=6.0), "grad_tol"),
            (SolveOptions(T_trunc=6.0, max_iters=1), "max_iters"),
            # the Newton step lands on the optimum; the next one changes nothing
            (SolveOptions(T_trunc=6.0, grad_tol=1e-300, max_iters=20000), "no_progress"),
            # past float resolution: 50 accepted steps leave the objective as it was
            (SolveOptions(T_trunc=200.0, grad_tol=1e-300, max_iters=20000), "flat"),
            # the same two stops with the terminal value pinned
            (
                SolveOptions(
                    T_trunc=200.0, terminal=(0.5,), grad_tol=1e-300, max_iters=20000
                ),
                "flat",
            ),
            (
                SolveOptions(
                    T_trunc=6.0, terminal=(0.5,), grad_tol=1e-300, max_iters=20000
                ),
                "no_progress",
            ),
        ],
    )
    def test_stop_reason(self, opts, reason):
        if reason == "flat":
            # L_zz != 0 with g in x: the band is not the whole Hessian, so the
            # band steps converge linearly and keep making tiny moves that the
            # correctly rounded objective cannot resolve
            p = make("exp(-0.1*t)*(-(v1^2)-x1^2) - 0.05*z^2", g="x1^2",
                     ts=integers(0, 200), x_a=1.0)
        else:
            p = make("-(v1^2)-x1^2", x_a=1.0)
        _, info = direct_solve(p, opts, with_info=True)
        assert info.stop_reason == reason
        assert info.converged == (reason == "grad_tol")
        assert info.iterations < opts.max_iters or reason == "max_iters"
        if reason != "flat":  # flat took 54 here; that count rides on rounding
            assert info.iterations == {"grad_tol": 2, "max_iters": 1, "no_progress": 3}[reason]
        assert info.fallbacks == 0

    def test_double_well_falls_back_to_jacobi(self, caplog):
        # L_xx = 4 - 12 x^2 > 0 near the start x = 0.1: the negated band is
        # not positive definite there, so those iterations take the Jacobi step
        p = make("-(v1^2)-(x1^2-1)^2", ts=integers(0, 8), x_a=0.1)
        opts = SolveOptions(T_trunc=8.0, grad_tol=1e-9)
        # the first iteration: the gradient over |band diagonal|, halved twice
        eng = _Engine(p, opts)
        x0 = eng.initial_values()
        jacobi = gradient_at(eng, x0) / np.abs(band_diagonal(band_at(eng, x0)[0]))
        caplog.set_level(logging.DEBUG, logger="nablats")
        x, info = direct_solve(p, replace(opts, max_iters=1), with_info=True)
        assert (info.fallbacks, info.backtracks) == (1, 2)
        # one record for the fallback (others may record the kernels' compiles)
        fallbacks = [r for r in caplog.records if r.funcName == "direct_solve"]
        assert [(r.name, r.levelno, r.getMessage()) for r in fallbacks] == [
            ("nablats", logging.DEBUG, "direct_solve: iteration 1 falls back to the Jacobi step")
        ]
        assert np.array_equal(x.values, eng.apply(x0, 0.25 * jacobi))
        x, info = direct_solve(p, opts, with_info=True)
        assert info.stop_reason == "grad_tol"
        assert info.fallbacks > 0
        assert info.iterations <= 10  # Jacobi scaling alone takes 87
        # L_xx reads x: a band per iteration, each factorization attempted
        assert not p.fixed_band and info.factorizations == info.iterations
        # the finite-difference oracle finds no ascent left
        assert np.max(np.abs(fd_gradient(eng, x.values))) <= 1e-9
        assert info.objective == pytest.approx(-1.63222489569911, rel=1e-12)

    def test_a_fixed_band_that_fails_falls_back_at_every_iteration(self):
        # x1^2 - v1^2 is linear-quadratic, so its band is fixed, and its
        # negated band is not positive definite: the one factorization fails
        # and every iteration takes the Jacobi step by that band's diagonal
        p = make("x1^2 - (v1^2)", ts=integers(0, 8), x_a=1.0)
        opts = SolveOptions(T_trunc=8.0, max_iters=5)
        eng = _Engine(p, opts)
        x = eng.initial_values()
        curv = np.maximum(np.abs(band_diagonal(band_at(eng, x)[0])), 1e-30)
        got, info = direct_solve(p, opts, with_info=True)
        assert p.fixed_band
        assert (info.iterations, info.fallbacks, info.factorizations, info.backtracks) == (5, 5, 1, 0)
        for _ in range(5):
            x = eng.apply(x, gradient_at(eng, x) / curv)
        assert np.array_equal(got.values, x)

    def test_a_z_coupled_band_with_g_zero_is_factored_once(self):
        # L_z = 0.05*x1 reads the state, but with g = 0 z is 0 and a = w*g_u
        # is an exact zero, so every z coupling of the band vanishes
        p = make("exp(-0.1*t)*(-(v1^2) - x1^2) + 0.05*x1*z", ts=integers(0, 40), x_a=1.0)
        assert p.fixed_band
        rows = horizon_study(p, [20.0, 40.0], SolveOptions(T_trunc=40.0, grad_tol=1e-9))
        assert [(r.info.stop_reason, r.info.iterations, r.info.factorizations) for r in rows] == [
            ("grad_tol", 2, 1)
        ] * 2

    @pytest.mark.parametrize("workload", ["scattered", "stiff"])
    def test_a_swept_iteration_evaluates_the_first_partials_only(self, monkeypatch, workload):
        # the band's second partials are read only where the band is
        # assembled: once for a fixed band (solve_scattered), at every
        # iteration otherwise (solve_stiff); the first partials, and so the
        # certificate handed back, are the same bits either way.  Each
        # iteration's pass is the start's or the previous iteration's first
        # probe's, which carries the groups the next iteration reads
        (L, g, sense, ts, cuts), (rho, *x_a), _ = DESIGN_POINTS[0 if workload == "scattered" else 8]
        p = Problem.from_strings(ts, len(x_a), L.format(rho=rho), g, x_a, sense)
        opts = SolveOptions(T_trunc=cuts[-1], grad_tol=1e-9)
        seen = []
        path = solver._path
        monkeypatch.setattr(solver, "_path",
                            lambda p, x, K, *groups: seen.append(groups) or path(p, x, K, *groups))
        x, info = direct_solve(p, opts, with_info=True)
        assert info.iterations > 1 and info.backtracks == 0 and len(seen) == info.iterations
        full, first = solver._DERIVATIVE_GROUPS, variational._EL_GROUPS
        assert seen == [("J",) + full] + [("J",) + (first if p.fixed_band else full)] * (info.iterations - 1)
        assert p.fixed_band == (workload == "scattered") and not p.z_coupled_band
        with patch.object(Problem, "fixed_band", False):
            y, every = direct_solve(p, opts, with_info=True)
        assert np.array_equal(x.values, y.values) and every.iterations == info.iterations
        assert info.final_pass.keys() == every.final_pass.keys() == set(first)
        for key in first:
            assert info.final_pass[key].tobytes() == every.final_pass[key].tobytes()

    @given(**coupled_cases, coupling=st.sampled_from(["g0", "affine"]),
           tail=st.sampled_from([1, 6, solver._TAIL]))
    @settings(max_examples=60, deadline=None)
    def test_refactoring_a_fixed_band_changes_no_bit(self, seed, n, sense, coupling, tail):
        # every step sweeps the gradient through the band's factors, so
        # fixed_band decides only how often the same band is factored, never
        # the arithmetic of a step; a small dense tail makes these short
        # bands run levels of cyclic reduction
        eng, _ = coupled_case(seed, n, sense, coupling)
        p, opts = eng.p, replace(eng.opts, grad_tol=1e-9, max_iters=40)
        assert p.fixed_band

        def solve():
            try:
                x, info = direct_solve(p, opts, with_info=True)
            except NonFiniteObjectiveError as exc:  # the mirror of a maximization may diverge
                return str(exc), None
            return (x.values.tobytes(), info.grad_norm, info.iterations, info.stop_reason), info

        with patch.object(solver, "_TAIL", tail):
            once, info = solve()
            with patch.object(Problem, "fixed_band", False):
                every, every_info = solve()
        assert every == once
        if info is not None:
            assert (info.factorizations, every_info.factorizations) == (1, info.iterations)

    def test_underflowed_rows_take_no_step(self):
        # exp(-t) underflows to 0 past t = 745: those rows have a zero band
        # and a zero gradient, and factorise as 1 instead of ending the search
        p = make("exp(-t)*(-(v1^2)-x1^2)", ts=integers(0, 1600), x_a=1.0)
        opts = SolveOptions(T_trunc=1600.0, grad_tol=1e-9)
        x, info = direct_solve(p, opts, with_info=True)
        assert (info.stop_reason, info.fallbacks) == ("grad_tol", 0)
        assert info.iterations <= 3
        assert np.all(x.values[746:] == 1.0)  # rows whose terms are all 0.0 stay put
        assert np.max(np.abs(x.values[100:746])) < 1e-15

    def test_values_beyond_truncation_are_frozen(self):
        p = make("-(v1^2)-x1^2", x_a=1.0)
        x = direct_solve(p, SolveOptions(T_trunc=3.0))
        assert np.all(x.values[4:] == 1.0)

    def test_non_finite_objective_diagnoses_time(self):
        ts = integers(0, 2)
        p = make("log(x1)", ts=ts, x_a=1.0)
        opts = SolveOptions(T_trunc=2.0, terminal=(-1.0,))
        with pytest.raises(NonFiniteObjectiveError) as exc:
            direct_solve(p, opts)
        assert "t=" in str(exc.value)

    def test_a_z_sum_nothing_reads_does_not_stop_the_search(self):
        # w*g overflows from t = 2 on; L never reads z, so neither does the search
        p = make("-(v1^2)-x1^2", g="1e308", x_a=1.0)
        x = direct_solve(p, SolveOptions(T_trunc=6.0))
        assert np.isfinite(x.values).all()
        assert math.isfinite(evaluate_functional_partial(p, x, 6.0))

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(T_trunc=5.0, max_iters=0)
        with pytest.raises(ValueError):
            SolveOptions(T_trunc=5.0, gradient="magic")
        # the one search there is: older callers still name it
        SolveOptions(T_trunc=5.0, gradient="analytic", precondition=True)
        with pytest.raises(ValueError, match="finite-difference search was removed"):
            SolveOptions(T_trunc=5.0, gradient="fd")
        with pytest.raises(ValueError, match="plain gradient ascent was removed"):
            SolveOptions(T_trunc=5.0, precondition=False)
        with pytest.raises(ValueError):
            SolveOptions(T_trunc=5.0, terminal=())

    def test_a_pinned_mode_needs_its_values(self):
        # without values there is no end to pin: None is the free end
        with pytest.raises(ValueError, match="pinned terminal needs at least one value"):
            SolveOptions(T_trunc=4.0, terminal=())
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="pinned terminal values must be finite"):
                SolveOptions(T_trunc=4.0, terminal=(0.0, bad))

    def test_the_objective_is_named_before_the_partials(self):
        # at x = 0 both log(x1) in J and dg/dx = x1/sqrt(x1^2) are non-finite;
        # the kernel checks the g stage first, so a joint call would name
        # dg/dx: the search redoes the objective alone, which names J
        p = make("-(v1^2) + log(x1)", g="sqrt(x1^2)", ts=integers(0, 4), x_a=0.0)
        message = "objective integrand '-v1^2.0 + log(x1)' is non-finite at t=1.0 during the search"
        for solve in (lambda o: direct_solve(p, o), lambda o: horizon_study(p, [2.0, 4.0], o)):
            with pytest.raises(NonFiniteObjectiveError) as exc:
                solve(SolveOptions(T_trunc=4.0))
            assert str(exc.value) == message

    def test_a_probe_at_a_singular_partial_is_only_a_probe(self):
        # from x_a = -2 the Newton step is v = 1 on both rows; the first probe,
        # at step 2, puts x(1) = 0, where dg/dx = x1/sqrt(x1^2) is NaN but J
        # is finite.  It fails the Armijo test, so the search backtracks to
        # the optimum and never needs the partials there
        p = make("-((v1 - 1)^2)", g="sqrt(x1^2)", ts=integers(0, 2), x_a=-2.0)
        x, info = direct_solve(p, SolveOptions(T_trunc=2.0, step_init=2.0), with_info=True)
        assert x.values[:, 0].tolist() == [-2.0, -1.0, 0.0]
        assert (info.stop_reason, info.iterations, info.backtracks) == ("grad_tol", 2, 1)
        assert info.objective_log == (-2.0, 0.0)

    def test_free_coordinates_respect_terminal_mode(self):
        p = make("-(x1^2)")
        assert free_coordinates(p, SolveOptions(T_trunc=6.0)) == [
            (j, 0) for j in range(1, 7)
        ]
        pinned = SolveOptions(T_trunc=6.0, terminal=(0.0,))
        assert free_coordinates(p, pinned) == [(j, 0) for j in range(1, 6)]


class TestGradients:
    def test_fd_and_analytic_agree_on_coupled_problem(self):
        ts = from_points(
            [0.0, 1.0, 1.25, 1.5, 2.5, 3.0, 4.0],
            ["s", "d", "d", "s", "s", "s"],
        )
        p = Problem.from_strings(ts, 1, "-(v1^2) - z - x1^2/4", "x1^2 + x1*v1/2", 0.5)
        eng = _Engine(p, SolveOptions(T_trunc=4.0))
        rng = np.random.default_rng(21)
        vals = np.concatenate([[0.5], rng.uniform(-1, 1, len(ts) - 1)])[:, None]
        assert np.allclose(fd_gradient(eng, vals), gradient_at(eng, vals), rtol=1e-5, atol=1e-7)

    def test_analytic_gradient_solver_reaches_same_optimum(self):
        # the finite-difference oracle's gradient vanishes at the Newton
        # optimum and matches the analytic one nearby
        p = make("-(v1^2)-x1^2-z", g="x1^2", x_a=1.0)
        opts = SolveOptions(T_trunc=6.0, grad_tol=1e-7)
        eng = _Engine(p, opts)
        x = direct_solve(p, opts).values
        assert np.max(np.abs(fd_gradient(eng, x))) <= 1e-7
        nearby = eng.apply(x, np.full(eng.last * eng.n, 1e-3))
        assert np.allclose(fd_gradient(eng, nearby), gradient_at(eng, nearby), rtol=1e-5, atol=1e-9)

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_curvature_is_the_hessian_diagonal(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        curvature = np.maximum(np.abs(band_diagonal(band_at(eng, x)[0])), 1e-30)
        np.testing.assert_allclose(curvature, fd_curvature(eng, x), rtol=1e-6, atol=0)

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_band_is_the_hessian_band(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        diag, upper = band_at(eng, x)
        assert diag.shape == (eng.last, n, n) and upper.shape == (eng.last - 1, n, n)
        rows = np.array([j for j, _ in free_coordinates(eng.p, eng.opts)])
        band = np.abs(rows[:, None] - rows[None, :]) <= 1
        np.testing.assert_allclose(assemble(diag, upper)[band], fd_hessian(eng, x)[band],
                                   rtol=1e-6, atol=0)

    @given(**coupled_cases, coupling=st.sampled_from(["g0", "affine"]))
    @settings(max_examples=40, deadline=None)
    def test_band_is_the_whole_hessian_without_z_feedback(self, seed, n, sense, coupling):
        # z couples every pair of rows by a_i c_k^T; with g = 0 (a = 0), or L
        # affine in z with an x-free coefficient (c = 0), nothing is left off the band
        eng, x = coupled_case(seed, n, sense, coupling)
        H = fd_hessian(eng, x)
        np.testing.assert_allclose(assemble(*band_at(eng, x)), H,
                                   rtol=1e-6, atol=1e-12 * np.max(np.abs(H)))

    @given(**coupled_cases, coupling=st.sampled_from(["full", "g0", "affine"]))
    @settings(max_examples=100, deadline=None)
    def test_band_matches_the_einsum_oracle(self, seed, n, sense, coupling):
        # the per-row block weights give the selector sandwiches' numbers, and
        # an entry the oracle leaves exactly 0.0 stays 0.0: _band_factor
        # factorises a 0.0 diagonal entry as 1
        eng, x = coupled_case(seed, n, sense, coupling)
        d = eng.derivatives(x)
        for got, expected in zip(eng.hessian_band(d), einsum_band(eng, d)):
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)
            assert np.array_equal(got == 0.0, expected == 0.0)

    @given(**coupled_cases, coupling=st.sampled_from(["full", "g0", "affine"]))
    @example(seed=8, n=2, sense=Sense.MIN, coupling="g0")
    @settings(max_examples=60, deadline=None)
    def test_a_fixed_band_is_the_same_at_every_point(self, seed, n, sense, coupling):
        # the linear-quadratic "affine" case (L quadratic in (x, v) with -c*z,
        # g quadratic) has L_uu, g_uu and L_z reading t alone, so its L_uz and
        # L_zz are literal zeros; the "g0" case has g = 0, so z is 0 and
        # a = w*g_u is an exact zero.  Either band is bit for bit the same at
        # any two points
        eng, x = coupled_case(seed, n, sense, coupling)
        p = eng.p
        assert p.fixed_band == (coupling in ("affine", "g0"))
        if coupling == "affine":
            rows = p._binding.shape.derived["rows"]
            assert all(substitute(e, p._binding.values) == Num(0.0) for group in ("Luz", "Lzz") for _, e in rows[group])
        if p.fixed_band:
            other = np.vstack([p.x_a_array, np.random.default_rng(seed + 1).uniform(-5, 5, x[1:].shape)])
            for a, b in zip(band_at(eng, x), band_at(eng, other)):
                assert a.tobytes() == b.tobytes()

    @given(**coupled_cases, coupling=st.sampled_from(["full", "g0", "affine"]),
           zero_rows=st.lists(st.tuples(st.integers(1, 13), st.sampled_from([0.0, -0.0])), max_size=4),
           scale=st.sampled_from([1.0, 10.0]))
    @example(seed=12, n=2, sense=Sense.MIN, coupling="g0", zero_rows=[], scale=10.0)
    @settings(max_examples=150, deadline=None)
    def test_the_band_is_the_coupled_formula_bit_for_bit(self, seed, n, sense, coupling, zero_rows,
                                                         scale):
        # an uncoupled shape's band leaves out couplings that are exact zeros:
        # no entry moves but a zero's sign, and its + 0.0 makes every zero
        # +0.0, the one difference (the next test).  Rows of signed zeros make
        # zero entries; a wider state makes S < 0 on g = 0 (the example),
        # where S*g_uu makes zeros -0.0 before the + 0.0
        eng, x = coupled_case(seed, n, sense, coupling)
        x[1:] *= scale
        for j, value in zero_rows:
            x[j % len(x)] = value
        p, d = eng.p, eng.derivatives(x)
        assert p.z_coupled_band == (coupling == "full")
        for got, expected in zip(eng.hessian_band(d), coupled_formula_band(eng, d)):
            assert got.tobytes() == (expected if p.z_coupled_band else expected + 0.0).tobytes()

    def test_an_uncoupled_band_reads_plus_zero_where_the_coupled_formula_reads_minus_zero(self):
        # g = 0: between rows 1 and 2 (t = 1.0 and 1.5), x1 with x2, every
        # coupling is a -0.0 product and so is the rest of the entry; the
        # coupled formula keeps -0.0
        ts = from_points([0.0, 1.0, 1.5, 2.0], ["d", "s", "s"])
        p = Problem.from_strings(ts, 2, "-x1*x2 + x1*z + x2*z - v1*z", "0", [1.0, -0.0], Sense.MIN)
        eng = _Engine(p, SolveOptions(T_trunc=2.0))
        d = eng.derivatives(np.array([[1.0, -0.0], [0.0, 1.0], [-1.0, 1.0], [0.0, -0.0]]))
        (diag, upper), (coupled_diag, coupled_upper) = eng.hessian_band(d), coupled_formula_band(eng, d)
        assert not p.z_coupled_band and coupled_upper[0, 0, 1] == 0.0
        assert np.signbit(coupled_upper[0, 0, 1]) and not np.signbit(upper[0, 0, 1])
        assert upper.tobytes() == (coupled_upper + 0.0).tobytes() != coupled_upper.tobytes()
        assert diag.tobytes() == coupled_diag.tobytes()

    def test_an_uncoupled_band_is_finite_where_the_coupled_formula_overflows(self):
        # g = 0, so z is 0 and the z^2 term adds nothing, but the tail sums Q
        # of w*L_zz = -1e308 overflow, and the coupled formula's Q*a*a is
        # -inf * 0 = NaN, a band whose step is non-finite.  The band and the
        # solve are those of L without the z term
        p = make("-(v1^2) - x1^2 - 5e307*z^2", ts=integers(0, 6), x_a=1.0)
        plain = make("-(v1^2) - x1^2", ts=integers(0, 6), x_a=1.0)
        opts = SolveOptions(T_trunc=6.0, grad_tol=1e-9)
        eng = _Engine(p, opts)
        d = eng.derivatives(eng.initial_values())
        with np.errstate(all="ignore"):
            assert np.isnan(coupled_formula_band(eng, d)[0]).any()
        for got, expected in zip(eng.hessian_band(d), band_at(_Engine(plain, opts), eng.initial_values())):
            assert got.tobytes() == expected.tobytes()
        x, info = direct_solve(p, opts, with_info=True)
        y, plain_info = direct_solve(plain, opts, with_info=True)
        assert info.converged and x.values.tobytes() == y.values.tobytes()
        assert info.objective_log == plain_info.objective_log

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_band_solve_matches_the_dense_solve(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        diag, upper = band_at(eng, x)
        M = -assemble(diag, upper)
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, (eng.last, n))
        d = band_step(-diag, -upper, rhs)
        if np.linalg.eigvalsh(M)[0] > 0:
            expected = np.linalg.solve(M, rhs.ravel())
            np.testing.assert_allclose(d.ravel(), expected, rtol=1e-10,
                                       atol=1e-12 * np.max(np.abs(expected)))
        else:  # -band is not positive definite (here: the minimization mirror)
            assert d is None

    @given(**coupled_cases)
    @settings(max_examples=40, deadline=None)
    def test_vectorised_gradient_and_apply_match_the_loops(self, seed, n, sense):
        eng, x = coupled_case(seed, n, sense)
        assert np.array_equal(gradient_at(eng, x), loop_gradient(eng, x))
        delta = np.random.default_rng(seed).uniform(-1, 1, eng.last * eng.n)
        expected = x.copy()
        for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
            expected[j, c] = x[j, c] + delta[i]
        assert np.array_equal(eng.apply(x, delta), expected)

    def test_curvature_never_calls_the_gradient(self, monkeypatch):
        # the band reads the second partials of the derivative pass; the
        # gradient is taken once per iteration beside it, never inside it.
        # The z-coupled linear-quadratic problem of solve_scattered has a
        # fixed band, assembled and factored once per cut; the quartic of
        # solve_stiff has L_uu reading x1, so its band is assembled and
        # factored at every iteration
        inside_band = []
        calls_in_band = []
        gradient = _Engine.analytic_gradient
        band = _Engine.hessian_band
        band_factor = solver._band_factor

        def counting(self, *args):
            if inside_band:
                calls_in_band.append(1)
            return gradient(self, *args)

        bands, factored = [], []

        def counting_band(self, *args):
            bands.append(self.K)
            inside_band.append(1)
            try:
                return band(self, *args)
            finally:
                inside_band.pop()

        def counting_factor(*args):
            factored.append(bands[-1])
            return band_factor(*args)

        monkeypatch.setattr(_Engine, "analytic_gradient", counting)
        monkeypatch.setattr(_Engine, "hessian_band", counting_band)
        monkeypatch.setattr(solver, "_band_factor", counting_factor)
        for (L, g, sense, ts, cuts), (rho, *x_a), _ in (DESIGN_POINTS[0], DESIGN_POINTS[8]):
            bands.clear()
            factored.clear()
            p = Problem.from_strings(ts, len(x_a), L.format(rho=rho), g, x_a, sense)
            rows = horizon_study(p, cuts, SolveOptions(T_trunc=cuts[-1], grad_tol=1e-9))
            per_cut = [(bands.count(K), factored.count(K), r.info.factorizations)
                       for K, r in zip(map(ts.index_of, cuts), rows)]
            assert all(r.info.iterations > 1 for r in rows)
            if L is SCATTERED[0]:
                assert p.fixed_band and per_cut == [(1, 1, 1)] * len(cuts)
            else:
                assert not p.fixed_band
                assert per_cut == [(r.info.iterations,) * 3 for r in rows]
        assert calls_in_band == []

    def test_one_derivative_pass_per_iteration(self, monkeypatch):
        # every evaluation goes through evaluate_many on a compiled kernel: one
        # derivative pass per iteration (gradient and band together) plus the
        # line-search probes, where the tree walks made 21 calls per iteration
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate_many(*args, **kwargs)

        bands = []
        band = _Engine.hessian_band

        def counting_band(self, *args):
            bands.append(1)
            return band(self, *args)

        monkeypatch.setattr(variational, "evaluate_many", counting)
        monkeypatch.setattr(_Engine, "hessian_band", counting_band)
        _, p, opts = dense_start_case()
        _, info = direct_solve(p, opts, with_info=True)
        assert info.stop_reason == "grad_tol"
        assert len(bands) == 1 < info.iterations  # a fixed band, assembled once
        assert 0 < len(calls) / info.iterations <= 1
        # exactly: the start's objective and pass in one call, then in every
        # iteration but the last one probe, which carries the next pass
        assert (info.iterations, info.backtracks) == (2, 0)
        assert len(calls) == 1 + (info.iterations - 1) == 2

    @pytest.mark.parametrize("step_init, backtracks, expected", [
        # the full Newton step lands on the optimum: the probe's pass is the
        # next iteration's
        (1.0, 0, [("J", "full"), ("J", "first")]),
        # a quadratic's probes at 4 and 2 fail the Armijo test: the
        # backtracked probes evaluate the objective alone, and the step
        # accepted at 1 takes a derivative pass of its own
        (4.0, 2, [("J", "full"), ("J", "first"), ("J",), ("J",), ("first",)]),
    ])
    def test_each_iterate_is_evaluated_once(self, monkeypatch, step_init, backtracks, expected):
        seen = []
        path = solver._path
        monkeypatch.setattr(solver, "_path",
                            lambda p, x, K, *groups: seen.append(groups) or path(p, x, K, *groups))
        _, p, opts = dense_start_case()
        x, info = direct_solve(p, replace(opts, step_init=step_init), with_info=True)
        names = {(): (), solver._DERIVATIVE_GROUPS: ("full",), variational._EL_GROUPS: ("first",)}
        assert [g[:1] + names[g[1:]] if g[0] == "J" else names[g] for g in seen] == expected
        assert (info.stop_reason, info.iterations, info.backtracks) == ("grad_tol", 2, backtracks)
        # the last pass is the certificate: the accepted step's own or the probe's
        assert info.final_pass is not None


#: the benchmark's two solve workloads: L with its discount rate, g, sense, grid, cuts
SCATTERED = ("exp(-{rho}*t)*(-(v1^2)-x1^2-(v2^2)-x2^2+0.5*x1*x2) - 0.01*z", "x1^2", Sense.MAX,
             integers(0, 120), (40.0, 80.0, 120.0))
STIFF = ("exp(-{rho}*t)*((v1^2)+x1^2+0.1*x1^4)", "0", Sense.MIN,
         from_points([k / 10 for k in range(21)] + list(range(3, 41)), ["d"] * 20 + ["s"] * 38),
         (40.0,))
NEWTON_2 = (2, "grad_tol", 0, 0)
#: each design point's (rho, x_a) and each cut's (iterations, stop_reason,
#: fallbacks, backtracks), as the einsum band assembly solved them
DESIGN_POINTS = [
    (SCATTERED, (0.063378278, 0.710198683, -0.869817347), [NEWTON_2] * 3),
    (SCATTERED, (0.073998559, 0.557667951, 0.316039959), [NEWTON_2] * 3),
    (SCATTERED, (0.085684808, 1.29811167, -0.18237831), [NEWTON_2] * 3),
    (SCATTERED, (0.095533179, 1.451843535, -0.619546876), [NEWTON_2] * 3),
    (SCATTERED, (0.102582638, 0.83207939, -0.323405553), [NEWTON_2] * 3),
    (SCATTERED, (0.116787021, 1.158349098, 0.653706931), [NEWTON_2] * 3),
    (SCATTERED, (0.127175362, 1.082240847, 0.812842313), [NEWTON_2] * 3),
    (SCATTERED, (0.133121416, 0.948164026, 0.143398689), [NEWTON_2] * 3),
    (STIFF, (0.058224085, 0.812842313), [(5, "grad_tol", 0, 0)]),
    (STIFF, (0.070983777, 0.566698197), [(4, "grad_tol", 0, 0)]),
    (STIFF, (0.082106011, 2.096223339), [(6, "grad_tol", 0, 0)]),
    (STIFF, (0.095707939, 2.426594447), [(6, "grad_tol", 0, 0)]),
    (STIFF, (0.103381085, 1.064565954), [(5, "grad_tol", 0, 0)]),
    (STIFF, (0.119022656, 1.929384053), [(6, "grad_tol", 0, 0)]),
    (STIFF, (0.131916474, 1.65368707), [(6, "grad_tol", 0, 0)]),
    (STIFF, (0.145185347, 1.334456953), [(5, "grad_tol", 0, 0)]),
]


@pytest.mark.parametrize(
    "workload, point, counts", DESIGN_POINTS,
    ids=[f"{'scattered' if w is SCATTERED else 'stiff'}-{pt[0]}" for w, pt, _ in DESIGN_POINTS],
)
def test_design_point_counts(workload, point, counts):
    # the solve workloads' 16 design points (horizon table and all) take the
    # same Newton iterations with the same stop, fallbacks and backtracks
    L, g, sense, ts, cuts = workload
    rho, *x_a = point
    p = Problem.from_strings(ts, len(x_a), L.format(rho=rho), g, x_a, sense)
    rows = horizon_study(p, cuts, SolveOptions(T_trunc=cuts[-1], grad_tol=1e-9))
    assert [(r.info.iterations, r.info.stop_reason, r.info.fallbacks, r.info.backtracks)
            for r in rows] == counts


@pytest.mark.parametrize(
    "workload, point", [(w, pt) for w, pt, _ in DESIGN_POINTS],
    ids=[f"{'scattered' if w is SCATTERED else 'stiff'}-{pt[0]}" for w, pt, _ in DESIGN_POINTS],
)
def test_design_point_passes_its_own_check(workload, point):
    # check-el's pointwise rows are the solver's own stationarity, so every
    # converged cut passes at the run files' tolerance, the dense start of
    # the stiff grid included
    L, g, sense, ts, cuts = workload
    rho, *x_a = point
    p = Problem.from_strings(ts, len(x_a), L.format(rho=rho), g, x_a, sense)
    for row in horizon_study(p, cuts, SolveOptions(T_trunc=cuts[-1], grad_tol=1e-9)):
        assert row.info.converged
        report = residual_report(p, row.solution, row.T_trunc)
        assert report.max_pointwise == row.max_el_residual <= 1e-6


@st.composite
def mirror_cases(draw):
    """A convex z-coupled cost C on a grid of scattered and dense runs
    (possibly starting dense, dense steps non-uniform), n in {1, 2}, and
    solve options: MIN of C and MAX of -(C) are mirrors."""
    runs = draw(st.lists(st.tuples(st.sampled_from("sd"), st.integers(1, 5)), min_size=1, max_size=5))
    kinds = "".join(kind * count for kind, count in runs)
    if len(kinds) < 3:
        kinds += "s" * (3 - len(kinds))
    steps = [
        draw(st.sampled_from([1.0, 0.5, 2.0])) if kind == "s" else draw(st.floats(0.05, 0.4))
        for kind in kinds
    ]
    ts = from_points(np.cumsum([0.0] + steps).tolist(), kinds)
    n = draw(st.sampled_from([1, 2]))
    rho, c = draw(st.sampled_from([0.05, 0.1, 0.3])), draw(st.sampled_from([0.0, 0.05, 0.2]))
    if n == 1:
        cost, g, x_a = f"exp(-{rho}*t)*(v1^2 + x1^2) + {c}*z", "x1^2 + 0.5*v1^2", (1.0,)
    else:
        cost = f"exp(-{rho}*t)*(v1^2 + x1^2 + v2^2 + x2^2 - 0.5*x1*x2) + {c}*z"
        g, x_a = "x1^2 + 0.5*v2^2", (1.0, -0.5)
    T = draw(st.sampled_from([ts.points[len(ts) // 2], ts.points[-1]]))
    terminal = draw(st.sampled_from([None, (0.25,) * n]))
    opts = SolveOptions(T_trunc=T, terminal=terminal, grad_tol=1e-9)
    return ts, n, cost, g, x_a, opts


class TestSelfCheck:
    @given(mirror_cases())
    @settings(max_examples=80, deadline=None)
    def test_a_converged_solve_passes_its_own_check(self, case):
        ts, n, cost, g, x_a, opts = case
        p_min = Problem.from_strings(ts, n, cost, g, x_a, Sense.MIN)
        p_max = Problem.from_strings(ts, n, f"-({cost})", g, x_a, Sense.MAX)
        reports = []
        for p in (p_min, p_max):
            x, info = direct_solve(p, opts, with_info=True)
            assert info.converged
            report = residual_report(p, x, opts.T_trunc)
            assert report.max_pointwise <= 1e-6  # the run files' default tolerance
            reports.append((x, report))
        (x_min, r_min), (x_max, r_max) = reports
        assert np.array_equal(x_min.values, x_max.values)
        for name in ("pointwise_rows", "el_pointwise", "el_integral", "trans_T1", "trans_T2"):
            assert np.array_equal(getattr(r_min, name), getattr(r_max, name))

    def test_alternating_steps_optimum_reads_stationary(self):
        # steps alternating h and 3h over [0, 1], pinned -(v1^2) - x1^2: the
        # discrete optimum's O(h^2) error alternates, so no second-difference
        # stencil certifies it; the rows read its stationarity, and the
        # integral form's spread falls at O(h)
        spreads = []
        for pairs in (20, 40, 80, 160):
            pts = np.concatenate([[0.0], np.cumsum([1.0, 3.0] * pairs)]) / (4.0 * pairs)
            pts[-1] = 1.0
            ts = from_points(pts.tolist(), "d" * (2 * pairs))
            p = make("-(v1^2)-x1^2", ts=ts)
            opts = SolveOptions(T_trunc=1.0, terminal=(1.0,), grad_tol=1e-9)
            x, info = direct_solve(p, opts, with_info=True)
            assert info.converged
            report = residual_report(p, x)
            assert report.pointwise_rows.tolist() == list(range(2, 2 * pairs + 1))
            assert report.max_pointwise <= 1e-8
            spreads.append(report.max_spread)
        assert all(fine <= coarse / 1.9 for coarse, fine in zip(spreads, spreads[1:]))


def tail_rows(F, n):
    """The rows ``_band_factor`` leaves to its dense tail, and the levels of
    cyclic reduction above it."""
    levels = 0
    while F > 1 and F * n > solver._TAIL:
        F, levels = F - F // 2, levels + 1
    return F, levels


class RecordingCholesky:
    """Stands in for ``np.linalg.cholesky``: records each matrix it is given
    and the number of dimensions of each one it rejects."""

    def __init__(self, monkeypatch):
        self.seen, self.rejected = [], []
        self.cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", self)

    def __call__(self, a):
        self.seen.append(a)
        try:
            return self.cholesky(a)
        except np.linalg.LinAlgError:
            self.rejected.append(a.ndim)
            raise


class TestBandSolve:
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([1, 2, 3]),
        # (k, e): F = (_TAIL // n) 2^k + e rows, just below, at and just above
        # the largest band that runs no level (k = 0), or 1 to 3 levels (k = 1, 2)
        size=st.one_of(st.tuples(st.integers(0, 2), st.sampled_from([-1, 0, 1])), st.integers(1, 70)),
        defect=st.sampled_from(["none", "indefinite", "singular"]),
        zeroed=st.integers(0, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dense_solve_or_rejects(self, seed, n, size, defect, zeroed):
        F = size if isinstance(size, int) else max(1, solver._TAIL // n * 2 ** size[0] + size[1])
        assume(not (defect == "singular" and n == 1 and F == 1))
        diag, upper, rhs, M = synthetic_band(seed, F, n, defect, zeroed)
        d = band_step(diag, upper, rhs)
        eig = np.linalg.eigvalsh(M)
        if defect == "singular" or eig[0] <= -1e-3 * eig[-1]:
            assert d is None
        elif eig[0] >= 1e-3 * eig[-1]:
            expected = np.linalg.solve(M, rhs.ravel())
            np.testing.assert_allclose(d.ravel(), expected, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("row, rejected_by", [(1, "pivots"), (0, "tail")])
    def test_a_defect_is_caught_by_the_pivots_or_the_tail(self, monkeypatch, n, row, rejected_by):
        # three levels above the tail: row 1 is a first-level pivot, row 0
        # stays even at every level and ends in the dense tail
        F = 4 * solver._TAIL // n + 1
        assert tail_rows(F, n)[1] == 3
        diag, upper, _, _ = synthetic_band(5, F, n, "none", 0)
        diag[row, 0, 0] *= -1.0  # a negative diagonal entry: M is indefinite
        chol = RecordingCholesky(monkeypatch)
        assert _band_factor(diag, upper) is None
        # the levels' pivots go through one batched (3-d) call, the tail a 2-d one
        assert chol.rejected == [3 if rejected_by == "pivots" else 2]

    def test_levels_not_rows(self, monkeypatch):
        # the factor makes one batched pivot solve per reduction level above
        # the dense tail, and the sweep one per level and one for the tail: a
        # per-row elimination would make 1600
        F = 1600
        diag, upper, rhs, M = synthetic_band(7, F, 1, "none", 0)
        calls = []
        solve = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counting)
        levels = tail_rows(F, 1)[1]
        factors = _band_factor(diag, upper)
        assert len(calls) == levels
        d = _band_sweep(factors, rhs)
        assert len(calls) == levels + levels + 1
        np.testing.assert_allclose(M @ d.ravel(), rhs.ravel(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_a_sweep_solves_a_fresh_right_hand_side(self, monkeypatch, n, levels):
        # the factors of a band take any right-hand side through one batched
        # pivot solve per level and one tail solve, with no Cholesky
        F = solver._TAIL // n * 2 ** (levels - 1) + 1 if levels else solver._TAIL // n
        assert tail_rows(F, n)[1] == levels
        for seed, zeroed in ((levels, 0), (10 + levels, 2)):
            diag, upper, _, M = synthetic_band(seed, F, n, "none", zeroed)
            factors = _band_factor(diag, upper)
            fresh = np.random.default_rng(seed).uniform(-1.0, 1.0, (F, n))
            calls, solve = [], np.linalg.solve
            monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
            chol = RecordingCholesky(monkeypatch)
            d = _band_sweep(factors, fresh)
            monkeypatch.undo()
            assert (len(calls), chol.seen) == (levels + 1, [])
            expected = np.linalg.solve(M, fresh.ravel())
            np.testing.assert_allclose(d.ravel(), expected, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_dense_tail_above_the_threshold(self, monkeypatch, n):
        # the dense tail is the one 2-d Cholesky; the batched pivots are n x n
        F = 1600
        diag, upper, _, _ = synthetic_band(11, F, n, "none", 0)
        chol = RecordingCholesky(monkeypatch)
        assert _band_factor(diag, upper) is not None
        tails = [a.shape for a in chol.seen if a.ndim == 2]
        assert len(tails) == 1 and tails[0][0] <= solver._TAIL
        assert all(a.shape[-2:] == (n, n) for a in chol.seen if a.ndim == 3)


def flat_objectives(p, opts, value_grid):
    """The flat evaluation ``brute_force`` replaced, as an oracle: full
    trajectories of every assignment in batches of 4096, the J kernel on all
    K rows (2 K G^F elements), the objective as one product with the
    weights.  Returns the sorted grid and the objective of each assignment
    by lexicographic id, -inf where it is not finite."""
    eng = _Engine(p, opts)
    grid = np.array(sorted(set(float(v) for v in value_grid)))
    G, F, K, w = grid.size, eng.last * eng.n, eng.K, eng.w
    weights = G ** np.arange(F - 1, -1, -1, dtype=np.int64)
    base = eng.initial_values()
    vals = np.empty(G**F)
    with np.errstate(all="ignore"):
        for start in range(0, G**F, 4096):
            ids = np.arange(start, min(start + 4096, G**F), dtype=np.int64)
            xb = np.tile(base[: K + 1], (ids.size, 1, 1))
            for i, (j, c) in enumerate(free_coordinates(eng.p, eng.opts)):
                xb[:, j, c] = grid[(ids // weights[i]) % G]
            env = {key: a[..., 1:] for key, a in path_env(p.ts, xb, K).items()}  # rows 1..K
            out = evaluate_many(p.kernel("J", check=False), env, lambda g: np.cumsum(w[1:] * g, axis=-1))
            vals[ids] = out[1] @ w[1:]
    return grid, np.where(np.isfinite(vals), vals, -np.inf)


def prefix_walk(eng, grid):
    """The prefix-shared walk ``brute_force`` replaced, as an oracle: each
    prefix carries its row j - 1 values, z, partial objective and
    lexicographic id, and the J kernel runs in full on every (prefix, value)
    row, in chunks of at most max(_BATCH, G^n).  Returns the best finite
    objective and its first maximizer's id; (-inf, -1) if none is finite."""
    p, G = eng.p, grid.size
    ts, n, K, w = p.ts, eng.n, eng.K, eng.w
    base, kernel, per = eng.initial_values(), p.kernel("J", check=False), G**n
    row_values = np.tile(grid[np.indices((G,) * n).reshape(n, -1).T], (max(1, solver._BATCH // per), 1))
    best_val, best_id = -math.inf, -1
    stack = [(1, base[:1], np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.int64))]
    with np.errstate(all="ignore"):
        while stack:
            j, prev, z, J, ids = stack.pop()
            if j <= eng.last:
                cur = row_values[: len(ids) * per]
                ids = (ids[:, None] * per + np.arange(per)).ravel()
                prev, z, J = prev.repeat(per, 0), z.repeat(per), J.repeat(per)
            else:
                cur = np.broadcast_to(base[j], prev.shape)
            head = np.stack([prev, cur], axis=1)  # rows j - 1 and j, as path_env reads them
            v = nabla_quotients(head, ts.local_steps[j - 1 : j + 1])[:, 1]
            xr = head[:, ts.rho_indices[j] - j + 1]
            env = {"t": ts.points_array[j : j + 1]}
            for i in range(n):
                env[f"x{i + 1}"], env[f"v{i + 1}"] = xr[:, i], v[:, i]
            out = evaluate_many(kernel, env, lambda g: w[j] * g if j == 1 else z + w[j] * g)
            z, J = env["z"], J + w[j] * out[1]
            if j == K:
                vals = np.where(np.isfinite(J), J, -math.inf)
                k = int(np.argmax(vals))
                if vals[k] > best_val:
                    best_val, best_id = float(vals[k]), int(ids[k])
                continue
            step = max(1, solver._BATCH // per) if j < eng.last else solver._BATCH
            for s in reversed(range(0, len(ids), step)):
                stack.append((j + 1, *(a[s : s + step] for a in (cur, z, J, ids))))
    return best_val, best_id


def assignment_id(p, opts, grid, x):
    """The lexicographic id of x's free coordinates over the sorted grid."""
    digits = [int(np.searchsorted(grid, x.values[j, c])) for j, c in free_coordinates(p, opts)]
    return sum(d * len(grid) ** i for i, d in enumerate(reversed(digits)))


def enumeration_case(seed, n, sense):
    """A small brute-force instance: a mixed grid with a dense row inside
    the horizon, a z-coupled L, a g in x and v, a random horizon, terminal
    mode and value grid."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6 if n == 1 else 4))
    K = int(rng.integers(1, m + 1))
    kinds = [str(k) for k in rng.choice(["s", "d"], m)]
    kinds[int(rng.integers(K))] = "d"
    ts = from_points(np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, m))]).tolist(), kinds)

    def c(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    comps = range(1, n + 1)
    L = (
        f"exp(-{c(0.0, 0.3)}*t)*("
        + " ".join(f"-(v{i}^2) - x{i}^2 + {c(-0.3, 0.3)}*x{i}*v{i}" for i in comps)
        + f") - {c(0.0, 0.3)}*z + {c(-0.05, 0.05)}*x1*z - {c(0.0, 0.01)}*z^2"
    )
    g = " + ".join(f"x{i}^2 + {c(0.0, 0.1)}*x{i}*v{i} + {c(0.0, 0.1)}*v{i}^2" for i in comps)
    p = Problem.from_strings(ts, n, L, g, rng.uniform(-1, 1, n).tolist(), sense)
    terminal = tuple(rng.uniform(-1, 1, n)) if rng.random() < 0.4 else None
    values = rng.uniform(-1.5, 1.5, int(rng.integers(2, 5 if n == 1 else 4))).tolist()
    return p, SolveOptions(T_trunc=ts.points[K], terminal=terminal), values


class TestOnePath:
    @settings(max_examples=80, deadline=None)
    @given(**coupled_cases, coupling=st.sampled_from(["full", "g0", "affine"]))
    def test_the_search_reads_the_path_the_residuals_read(self, seed, n, sense, coupling):
        # at an arbitrary x, not only at a solution: the objective is the
        # literal truncated objective (its max mirror for min), and the
        # derivative pass's first partials are the residual core's, bit for bit
        eng, x = coupled_case(seed, n, sense, coupling)
        assume(not eng.scattered.all())  # a dense row inside the horizon
        p, traj, T = eng.p, Trajectory.from_values(eng.p, x), eng.opts.T_trunc
        f, literal = eng.objective(x), evaluate_functional_partial(p, traj, T)
        assert repr(f if sense is Sense.MAX else 0.0 - f) == repr(literal)
        d, core = eng.derivatives(x), _ELCore.along(p, traj, T)
        assert core.k == eng.K
        assert d["Lz"][0].tobytes() == core.Lz[1:].tobytes()
        for key in ("Lx", "Lv", "gx", "gv"):
            assert d[key].T.tobytes() == getattr(core, key)[1:].tobytes(), key


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
        opts = SolveOptions(T_trunc=5.0, terminal=(0.0,), grad_tol=1e-9)
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
        # a NaN has no place in the sorted order: it raises, in any position
        p = make("-(v1^2)-x1^2", ts=integers(0, 3), x_a=1.0)
        for nan_grid in ([1.0, 0.5, 0.0, math.nan], [math.nan, 0.0, 1.0, 0.5]):
            with pytest.raises(ValueError, match="NaN"):
                brute_force(p, SolveOptions(T_trunc=3.0), nan_grid)
        # -0.0 and 0.0 are one value, +0.0, whichever comes first: 1/x1 is
        # +inf there, so the pick leaves zero
        p = make("-(v1^2) - exp(1/x1)", ts=integers(0, 2), x_a=1.0)
        for zero_grid in ([0.0, -0.0, 2.0], [-0.0, 0.0, 2.0], [-0.0, 2.0]):
            x = brute_force(p, SolveOptions(T_trunc=2.0), zero_grid)
            assert x.values[:, 0].tolist() == [1.0, 2.0, 2.0]

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

    def test_z_is_a_plain_float_sum_not_the_exact_running_sum(self):
        # each row adds its term to z with one float addition: 1 + 1e16 and
        # then 1e16 + 1 round back to 1e16, where the exact running sum
        # carries both ones, so the pick scores the plain-sum objective,
        # which differs from evaluate_functional_partial's in the last bit
        p = make("z - 1e20*(x1-1)^2*(t-2)^2", g="x1^2", ts=integers(0, 5), x_a=1.0)
        opts = SolveOptions(T_trunc=5.0)
        x = brute_force(p, opts, [1.0, 1e8])
        assert x.values[:, 0].tolist() == [1.0, 1e8, 1.0, 1.0, 1.0, 1.0]
        score = solver._best_assignment(_Engine(p, opts), np.array([1.0, 1e8]))[0]
        z = plain = 0.0
        for j in range(1, 6):  # w = 1, and x1 reads x(rho(t_j)) = x(t_{j-1})
            x1 = float(x.values[j - 1, 0])
            z += x1**2
            plain += z - 1e20 * (x1 - 1) ** 2 * (j - 2) ** 2
        assert score == plain == 4e16
        assert evaluate_functional_partial(p, x, 5.0) == 4.000000000000001e16
        assert variational.compute_z(p, x).values[3, 0] == 1.0000000000000002e16

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_ties_break_lexicographically_across_chunks(self, monkeypatch, batch):
        # every assignment ties; chunks of `batch` prefixes must be visited in
        # lexicographic order and a later chunk's equal value must not win
        monkeypatch.setattr(solver, "_BATCH", batch)
        p = Problem.from_strings(integers(0, 3), 2, "exp(-t)", "x1^2", [0.0, 0.0])
        x = brute_force(p, SolveOptions(T_trunc=3.0), [0.5, -0.5, 0.0])
        assert np.all(x.values[1:] == -0.5)

    @settings(max_examples=60, deadline=None)
    @given(**coupled_cases, batch=st.sampled_from([1, 5, solver._BATCH]))
    def test_pick_is_the_flat_oracle_argmax(self, seed, n, sense, batch):
        p, opts, values = enumeration_case(seed, n, sense)
        with patch.object(solver, "_BATCH", batch):
            x = brute_force(p, opts, values)
        grid, vals = flat_objectives(p, opts, values)
        best, pick = int(np.argmax(vals)), assignment_id(p, opts, grid, x)
        assert pick == best or abs(vals[pick] - vals[best]) <= 1e-12 * max(1.0, abs(vals[best]))
        # everything but the free coordinates is the start, pinned or frozen value
        frozen = _Engine(p, opts).initial_values()
        for j, c in free_coordinates(p, opts):
            frozen[j, c] = x.values[j, c]
        assert np.array_equal(x.values, frozen)

    @settings(max_examples=60, deadline=None)
    @given(**coupled_cases, batch=st.sampled_from([1, 5, solver._BATCH]),
           lagrangian=st.sampled_from([None, "z-free", "t-only", "z inside exp"]))
    def test_is_the_prefix_walk_bit_for_bit(self, seed, n, sense, batch, lagrangian):
        # the pair tables and the gathered z ops give every assignment the
        # prefix walk's objective bits, so the pick and its objective agree
        p, opts, values = enumeration_case(seed, n, sense)
        comps = range(1, n + 1)
        state = " ".join(f"-(v{i}^2) - x{i}^2 + 0.2*x{i}*v{i}" for i in comps)
        L = {
            "z-free": f"exp(-0.1*t)*({state})",
            "t-only": "exp(-0.3*t)*sin(t)",  # every assignment ties: the first wins
            "z inside exp": f"exp(-0.1*t)*({state}) - exp(0.5*z)*x1 + sin(z*v1)",
        }.get(lagrangian)
        if L is not None:
            p = Problem(p.ts, n, parse(L), p.z_integrand, p.x_a, sense)
        grid = np.array(sorted(set(values)))
        eng = _Engine(p, opts)
        with patch.object(solver, "_BATCH", batch):
            best, walked = solver._best_assignment(eng, grid), prefix_walk(eng, grid)
            x = brute_force(p, opts, values)
        assert best[1] == walked[1] >= 0
        assert np.float64(best[0]).tobytes() == np.float64(walked[0]).tobytes()
        assert assignment_id(p, opts, grid, x) == walked[1]

    @pytest.mark.parametrize(
        "n, G, terminal",
        [(1, 9, None), (2, 5, (0.0, 0.0)), (1, 3, (0.5,)), (2, 70, (0.0, 0.0)), (1, 100, None)],
    )
    def test_evaluates_each_row_once_per_prefix(self, monkeypatch, n, G, terminal):
        # the ops that read z run once per (prefix, value) pair: sum_j
        # G^(n min(j, last)) rows, 597,870 for n = 1, G = 9, where the flat
        # evaluation ran the whole kernel on K G^F = 3,188,646 rows; the
        # z-free ops run once per level on its pairs of row j - 1 and row j
        # values, in blocks when G^(2n) exceeds _BATCH (G = 100)
        K = {70: 2, 100: 3}.get(G, 6)
        ts = integers(0, K)
        p = Problem.from_strings(ts, n, "-(v1^2) - x1^2 - 0.01*z", "x1^2", [1.0] * n)
        opts = SolveOptions(T_trunc=float(K), terminal=terminal)
        tables, gathers = [], []
        table, gather = Kernel.table, Kernel.gather

        def counting_table(self, envs):
            envs = list(envs)
            for env in envs:
                shape = np.broadcast_shapes(*map(np.shape, env.values()))
                tables.append((ts.index_of(float(env["t"][0])), math.prod(shape)))
            return table(self, envs)

        def counting_gather(self, kept, idx, z):
            gathers.append(z.size)
            return gather(self, kept, idx, z)

        monkeypatch.setattr(Kernel, "table", counting_table)
        monkeypatch.setattr(Kernel, "gather", counting_gather)
        monkeypatch.setattr(variational, "evaluate_many", None)  # no full kernel call
        brute_force(p, opts, np.linspace(0.0, 1.0, G))
        last = K - (terminal is not None)
        rows = sum(G ** (n * min(j, last)) for j in range(1, K + 1))
        assert sum(gathers) == rows
        # distinct values of row j - 1 times those of row j
        pairs = [(G**n if j > 1 else 1) * (G**n if j <= last else 1) for j in range(1, K + 1)]
        per_level = [sum(size for level, size in tables if level == j) for j in range(1, K + 1)]
        assert all(0 < done <= bound for done, bound in zip(per_level, pairs))
        assert max(size for _, size in tables + [(0, g) for g in gathers]) <= max(solver._BATCH, G**n)

    @pytest.mark.parametrize("n, G, K", [(1, 9, 6), (1, 97, 3), (1, 100, 3), (2, 5, 4)])
    @pytest.mark.parametrize("terminal", ["free", "pinned"])
    def test_reads_each_block_of_a_table_as_a_slice(self, monkeypatch, n, G, K, terminal):
        # from level 3 on, a block of prefixes holds whole cycles of row
        # j - 1's values or lies within one cycle, so every gather reads one
        # slice of the level's table, and no block exceeds max(_BATCH, G^n)
        # rows: G = 97 and 100 cut each cycle, G = 9 and n = 2, G = 5 hold
        # whole ones
        ts = integers(0, K)
        p = Problem.from_strings(ts, n, "-(v1^2) - x1^2 - 0.01*z", "x1^2", [1.0] * n)
        mode = (0.0,) * n if terminal == "pinned" else None
        levels, gathers = {}, []
        table, gather = Kernel.table, Kernel.gather

        def leveled_table(self, envs):
            envs = list(envs)
            g, kept = table(self, envs)
            levels[id(kept)] = ts.index_of(float(envs[0]["t"][0]))
            return g, kept

        def recording_gather(self, kept, idx, z):
            gathers.append((levels[id(kept)], idx, z.shape, kept))
            return gather(self, kept, idx, z)

        monkeypatch.setattr(Kernel, "table", leveled_table)
        monkeypatch.setattr(Kernel, "gather", recording_gather)
        brute_force(p, SolveOptions(T_trunc=float(K), terminal=mode), np.linspace(0.0, 1.0, G))
        deep = [(idx, shape, kept) for level, idx, shape, kept in gathers if level >= 3]
        assert deep and all(isinstance(idx, slice) for idx, _, _ in deep)
        assert max(math.prod(shape) for _, shape, _ in deep) <= max(solver._BATCH, G**n)
        for idx, shape, kept in deep:
            rows = range(len(next(a for a in kept.values() if np.ndim(a) == 2)))[idx]
            assert len(rows) == shape[-2] and shape[-1] in (1, G**n)
        # every (prefix, value) row of every level is evaluated once
        last = K - (terminal == "pinned")
        assert sum(math.prod(shape) for _, _, shape, _ in gathers) == sum(
            G ** (n * min(j, last)) for j in range(1, K + 1))

    @pytest.mark.parametrize("L", ["-(v1^2) + 1/x1", "x1/x1 - v1^2"])
    @pytest.mark.parametrize("batch", [1, 5, solver._BATCH])
    def test_a_non_finite_winner_ranks_as_in_the_prefix_walk(self, L, batch):
        # at x1 = 0 the first L is +inf and the second NaN, the raw argmax of
        # the last level; the pick and its bits are still the prefix walk's
        p = make(L, ts=integers(0, 3), x_a=1.0)
        eng, grid = _Engine(p, SolveOptions(T_trunc=3.0)), np.array([-1.0, 0.0, 0.5, 1.0])
        with patch.object(solver, "_BATCH", batch), warnings.catch_warnings():
            warnings.simplefilter("error")
            best, walked = solver._best_assignment(eng, grid), prefix_walk(eng, grid)
        assert best[1] == walked[1] >= 0
        assert np.float64(best[0]).tobytes() == np.float64(walked[0]).tobytes()

    def test_overflowing_assignments_score_minus_inf_without_a_warning(self):
        p = make("-(v1^2)-x1^2", "x1^2", ts=integers(0, 3), x_a=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = brute_force(p, SolveOptions(T_trunc=3.0), [-1e308, 0.0, 1e308])
        assert np.array_equal(x.values[:, 0], [1.0, 0.0, 0.0, 0.0])

    def test_no_finite_assignment_raises(self):
        p = make("log(x1)", ts=integers(0, 2), x_a=1.0)
        with pytest.raises(NonFiniteObjectiveError, match="every enumerated assignment"):
            brute_force(p, SolveOptions(T_trunc=2.0), [-1.0, -2.0])


@st.composite
def certificate_cases(draw):
    """A horizon study: a ``coupled_case`` problem, or the z-nonlinear L =
    exp(-0.1*t)*(-(v1^2)-x1^2) - 0.05*z^2 with g = x1^2, on the case's mixed
    grid with its terminal mode; for ``min`` the mirror -L, so that both
    senses are well posed.  Two cuts, and ``max_iters`` 1 (the last step
    moves x after the last derivative pass) or enough to converge."""
    eng, _ = coupled_case(draw(st.integers(0, 10_000)), draw(st.sampled_from([1, 2, 3])), Sense.MAX)
    p, terminal = eng.p, eng.opts.terminal
    if draw(st.booleans()):
        p = make("exp(-0.1*t)*(-(v1^2)-x1^2) - 0.05*z^2", g="x1^2", ts=p.ts, x_a=1.0)
        terminal = None if terminal is None else terminal[:1]
    if draw(st.sampled_from(list(Sense))) is Sense.MIN:
        p = Problem(p.ts, p.n, Neg(p.lagrangian), p.z_integrand, p.x_a, Sense.MIN)
    cuts = [p.ts.points[max(1, eng.K // 2)], p.ts.points[eng.K]]
    opts = SolveOptions(T_trunc=cuts[-1], terminal=terminal, grad_tol=1e-9,
                        max_iters=draw(st.sampled_from([1, 100])))
    return p, cuts, opts


class TestHorizonStudy:
    @given(certificate_cases())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_certificate_of_the_solution(self, case):
        # each row's residuals are those residual_report finds for its
        # solution, and its objective the literal truncated objective, bit for bit
        p, cuts, opts = case
        for row in horizon_study(p, cuts, opts):
            report = residual_report(p, row.solution, row.T_trunc)
            got = (row.max_el_residual, row.trans_T1, row.trans_T2, row.info.objective)
            expected = (report.max_pointwise, abs(report.trans_T1[-1]), abs(report.trans_T2[-1]),
                        evaluate_functional_partial(p, row.solution, row.T_trunc))
            assert [repr(float(v)) for v in got] == [repr(float(v)) for v in expected]

    @pytest.mark.parametrize("max_iters, step_init, per_cut", [
        # each cut reads its start from the shared pass and steps once; the
        # accepted probe's pass is the certificate, whether the search
        # converges after it or stops at max_iters
        (2000, 1.0, [("J", "first")]),
        (1, 1.0, [("J", "first")]),
        # the step accepted after two backtracks moved x after the last pass,
        # so the row takes one more, with the groups of a fresh search
        (1, 4.0, [("J", "first"), ("J",), ("J",), ("full",)]),
    ])
    def test_rows_read_the_last_derivative_pass(self, monkeypatch, max_iters, step_init, per_cut):
        # no kernel call along the path beyond the search's: the shared
        # start, the probes and the passes, and no objective evaluation
        calls = []
        for name in ("evaluate_many", "evaluate_functional_partial"):
            original = getattr(variational, name)
            monkeypatch.setattr(variational, name,
                                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
        seen = []
        path = solver._path
        monkeypatch.setattr(solver, "_path",
                            lambda p, x, K, *groups: seen.append((K, groups)) or path(p, x, K, *groups))
        ts, p, opts = dense_start_case()
        rows = horizon_study(p, [4.0, 6.0], replace(opts, max_iters=max_iters, step_init=step_init))
        assert calls == ["evaluate_many"] * len(seen)
        assert [r.info.stop_reason for r in rows] == ["max_iters" if max_iters == 1 else "grad_tol"] * 2
        names = {(): (), solver._DERIVATIVE_GROUPS: ("full",), variational._EL_GROUPS: ("first",)}
        K4, K6 = ts.index_of(4.0), ts.index_of(6.0)
        assert [(K, g[:1] + names[g[1:]] if g[0] == "J" else names[g]) for K, g in seen] == (
            [(K6, ("J", "full"))] + [(K4, c) for c in per_cut] + [(K6, c) for c in per_cut]
        )

    @given(**coupled_cases, picks=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_the_solve_of_its_cut(self, seed, n, sense, picks):
        # a free end's cuts share their start pass, a pinned end's do not;
        # either way every row, and its SolveInfo, is a standalone solve of
        # its cut, bit for bit, phase_seconds aside, and an error is the one
        # the first failing cut raises on its own.  No cut has a multiple of
        # 8 rows, so numpy can split a cut's rows between its vector body and
        # its remainder loop one way in the cut's own pass, another in the
        # shared one
        eng, _ = coupled_case(seed, n, sense)
        p, terminal = eng.p, eng.opts.terminal
        if sense is Sense.MIN:  # the mirror, so that both senses are well posed
            p = Problem(p.ts, p.n, Neg(p.lagrangian), p.z_integrand, p.x_a, Sense.MIN)
        ks = sorted(K for K in picks if K <= eng.K and K % 8)
        assume(ks)
        cuts = [p.ts.points[K] for K in ks]
        opts = SolveOptions(T_trunc=cuts[-1], terminal=terminal, grad_tol=1e-9, max_iters=30)

        def outcome(solve):
            try:
                return solve()
            except NonFiniteObjectiveError as exc:
                return str(exc)

        rows = outcome(lambda: horizon_study(p, cuts, opts))
        solos = []
        for T in cuts:
            solos.append(outcome(lambda: direct_solve(p, replace(opts, T_trunc=T), with_info=True)))
            if isinstance(solos[-1], str):
                assert rows == solos[-1]
                return
        for row, (x, info) in zip(rows, solos):
            assert row.solution.values.tobytes() == x.values.tobytes()
            assert row.info == info  # every field but phase_seconds and final_pass
            assert repr(row.info) == repr(replace(info, phase_seconds=row.info.phase_seconds))
            assert (row.info.final_pass is None) == (info.final_pass is None)
            for key in info.final_pass or ():
                assert row.info.final_pass[key].tobytes() == info.final_pass[key].tobytes()

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
        opts = SolveOptions(T_trunc=12.0, grad_tol=1e-9)
        rows = horizon_study(p, [4.0, 8.0, 12.0], opts)
        t1 = [r.trans_T1 for r in rows]
        t2 = [r.trans_T2 for r in rows]
        # T1 is x times the free end's gradient entry: at the Newton optimum
        # of each cut the discrete free-end condition holds to rounding
        assert all(a <= 1e-12 * b for a, b in zip(t1, t2))
        assert t2[0] > t2[1] > t2[2]

    def test_pinned_rows_flagged(self):
        p = make("-(v1^2)", ts=integers(0, 4), x_a=0.0)
        opts = SolveOptions(T_trunc=4.0, terminal=(2.0,))
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

    @given(
        st.lists(
            st.tuples(st.floats(), st.floats(), st.floats(), st.floats(), st.floats(), st.booleans()),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_the_per_row_writer(self, tmp_path_factory, fields):
        rows = [
            HorizonRow(*f[:4], f[5], solution=None, info=SimpleNamespace(objective=f[4]))
            for f in fields
        ]
        d = tmp_path_factory.mktemp("horizon")
        horizon_table_to_csv(rows, d / "new.csv")
        with open(d / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["T_trunc", "max_el_residual", "trans_T1", "trans_T2", "objective", "trans_applicable"]
            )
            for r in rows:
                writer.writerow(
                    [
                        repr(r.T_trunc),
                        repr(r.max_el_residual),
                        repr(r.trans_T1),
                        repr(r.trans_T2),
                        repr(r.objective),
                        "true" if r.trans_applicable else "false",
                    ]
                )
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    def test_a_nan_residual_row_makes_the_maximum_nan(self, monkeypatch):
        # a NaN in a reported row past the first is not skipped, as the
        # maximum over a list starting at 0.0 did
        original = _ELCore.stationarity

        def with_nan(self):
            R = original(self).copy()
            R[1] = np.nan
            return R

        p = make("-(v1^2)", ts=integers(0, 6))
        (clean,) = horizon_study(p, [6.0], SolveOptions(T_trunc=6.0))
        monkeypatch.setattr(_ELCore, "stationarity", with_nan)
        (row,) = horizon_study(p, [6.0], SolveOptions(T_trunc=6.0))
        assert math.isfinite(clean.max_el_residual)
        assert math.isnan(row.max_el_residual)

    def test_overflowing_pairing_reads_inf_without_a_warning(self):
        # a pinned end at 1e300 against L_v = 1e10*cos(v1): T1 overflows at the
        # cut, which the table reads as inf, as residual_report does
        p = make("1e10*sin(v1)", ts=integers(0, 5))
        opts = SolveOptions(T_trunc=5.0, terminal=(1e300,), max_iters=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (row,) = horizon_study(p, [5.0], opts)
        assert caught == []
        assert (row.trans_T1, row.trans_T2) == (math.inf, 0.0)

    @pytest.mark.parametrize("case", ["mixed_optimum", "partial_solve"])
    def test_rows_match_per_point_residuals(self, case):
        # the oracle rebuilds the residual at every point of every cut
        if case == "mixed_optimum":
            ts, p, opts = dense_start_case()
            cuts = [1.0, 4.0, 6.0]
        else:  # a quarter Newton step from the start: the largest residual sits at the cut
            ts = integers(0, 8)
            p = make("-(v1^2) + t*x1", ts=ts)
            opts = SolveOptions(T_trunc=8.0, max_iters=1, step_init=0.25)
            cuts = [3.0, 6.0, 8.0]
        rows = horizon_study(p, cuts, opts)
        for T, row in zip(cuts, rows):
            x, info = direct_solve(p, replace(opts, T_trunc=T), with_info=True)
            assert np.array_equal(row.solution.values, x.values)
            assert row.info == info
            K = ts.index_of(T)
            max_res = 0.0
            for j in el_report_indices(ts, K):
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
        # row j reads x(t_{j-1}): the row at 0.5 is the stationarity in
        # x(0.25), and no row reads the pinned start or a derivative at the
        # minimum; x(1.0), before the first scattered gap, has one row, at 2.0
        t = ts.points_array[report.pointwise_rows]
        assert t.tolist() == list(ts.points[2:])
        # every row is the solver's own first-order condition, dense and
        # junction rows included, so the optimum meets all of them
        assert np.max(np.abs(report.el_pointwise[t >= 3.0, 0])) < 1e-8
        assert report.max_pointwise < 1e-8

    def test_truncations_must_increase(self):
        p = make("1", ts=integers(0, 4))
        with pytest.raises(Exception):
            horizon_study(p, [4.0, 2.0], SolveOptions(T_trunc=4.0))
