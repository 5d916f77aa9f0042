"""Acceptance gate: nine end-to-end checks at fixed tolerances.

Each test prints exactly one summary line

    [criterion k] <name>: PASS/FAIL (<measurements>)

and asserts both the numerical conditions and its runtime budget.  Run with
``pytest -v tests/test_acceptance.py`` for the per-criterion verdict lines
(printed detail is shown with ``-rA`` or on failure).
"""

import math
import random
import time

import numpy as np

from nablats import (
    FREE,
    PINNED,
    CaseTag,
    GridFunction,
    Problem,
    SolveOptions,
    Trajectory,
    brute_force,
    construct_violating_variation,
    differentiate,
    direct_solve,
    el_report_indices,
    el_residual_pointwise,
    evaluate,
    evaluate_functional_partial,
    finite_horizon_el_residual,
    from_points,
    horizon_study,
    integers,
    integration_by_parts_residual,
    nabla_derivative_fn,
    nabla_integral,
    residual_report,
    sampled_interval,
    trajectory_to_csv,
    weak_max_compare,
    witness_value,
)
from nablats.cli import main as cli_main
from nablats.expressions import BinOp, Call, Num, Var, variables


def _report(k: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {k}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


# -- 1: calculus identities are exact on scattered grids ------------------------


def test_criterion_1_calculus_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        pts = np.unique(rng.uniform(0.0, 5.0, int(rng.integers(3, 65))))
        while len(pts) < 3:
            pts = np.unique(rng.uniform(0.0, 5.0, 8))
        ts = from_points(pts, ["s"] * (len(pts) - 1))
        tarr = np.asarray(ts.points)
        cf = rng.uniform(-2.0, 2.0, 4)
        fv = cf[0] + cf[1] * tarr + cf[2] * tarr**2 + cf[3] * tarr**3
        gv = rng.uniform(0.5, 2.0) * np.exp(rng.uniform(-0.3, 0.3) * tarr)
        f = GridFunction.scalar(ts, fv)
        g = GridFunction.scalar(ts, gv)
        df = nabla_derivative_fn(f).values[:, 0]
        dg = nabla_derivative_fn(g).values[:, 0]
        frho = f.rho_values()[:, 0]
        grho = g.rho_values()[:, 0]
        sl = slice(1, None)  # index 0 is outside the derivative domain

        worst = max(worst, _rel(nabla_derivative_fn(f + g).values[sl, 0], (df + dg)[sl]))
        c = float(rng.uniform(-3.0, 3.0))
        worst = max(worst, _rel(nabla_derivative_fn(c * f).values[sl, 0], (c * df)[sl]))
        dprod = nabla_derivative_fn(f * g).values[:, 0]
        worst = max(worst, _rel(dprod[sl], (df * gv + frho * dg)[sl]))
        worst = max(worst, _rel(dprod[sl], (fv * dg + df * grho)[sl]))
        dquot = nabla_derivative_fn(f / g).values[:, 0]
        worst = max(worst, _rel(dquot[sl], ((df * gv - fv * dg) / (gv * grho))[sl]))
        a, b = ts.points[0], ts.points[-1]
        ft = float(nabla_integral(nabla_derivative_fn(f), a, b)[0])
        worst = max(worst, _rel(ft, fv[-1] - fv[0]))
        nu = np.array([ts.nu(t) for t in ts.points])
        worst = max(worst, _rel(frho[sl], (fv - nu * df)[sl]))
        ibp = abs(integration_by_parts_residual(f, g, a, b))
        scale = max(1.0, abs(fv[-1] * gv[-1]), abs(fv[0] * gv[0]))
        worst = max(worst, ibp / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, "calculus exactness on scattered grids", ok,
            f"worst rel err {worst:.2e} <= 1e-10; {elapsed:.2f}s < 5s")


# -- 2: classical-limit residual under sample refinement ------------------------


def test_criterion_2_classical_limit():
    start = time.perf_counter()
    res = {}
    for n in (64, 128):
        ts = sampled_interval(0.0, 1.0, n)
        p = Problem.from_strings(ts, 1, "-(v1^2)", "0", [0.0])
        opts = SolveOptions(
            T_trunc=1.0, terminal_mode=PINNED(1.0), grad_tol=1e-9, max_iters=100,
        )
        traj, info = direct_solve(p, opts, with_info=True)
        assert info.stop_reason == "grad_tol"
        res[n] = max(
            float(np.max(np.abs(el_residual_pointwise(p, traj, ts.points[j], 1.0))))
            for j in el_report_indices(ts)
        )
    # the curved extremal sinh(t) of -(v1^2) - x1^2, sampled: a row reads the
    # first-order condition of the sampled problem, which the sampled
    # extremal meets to O(h^2) on a uniform dense grid
    curved = []
    for n in (16, 32, 64, 128, 256):
        ts = sampled_interval(0.0, 1.0, n)
        p = Problem.from_strings(ts, 1, "-(v1^2) - x1^2", "0", [0.0])
        x = Trajectory.from_values(p, np.sinh(ts.points_array)[:, None])
        curved.append(residual_report(p, x).max_pointwise)
    rates = [a / b for a, b in zip(curved, curved[1:])]
    elapsed = time.perf_counter() - start
    # the straight-line extremal is exact at every resolution, so both
    # residuals sit at solver noise; the absolute floor keeps the ratio
    # check meaningful in that regime
    ok_rate = res[128] <= max(res[64] / 1.8, 1e-12)
    ok = ok_rate and min(rates) >= 3.5 and elapsed < 30.0
    _report(2, "pinned-endpoint residual halves with the step", ok,
            f"res(1/64)={res[64]:.2e}, res(1/128)={res[128]:.2e}, "
            f"floor 1e-12; sinh residual {curved[0]:.2e} -> {curved[-1]:.2e}, "
            f"min rate per halving {min(rates):.2f} >= 3.5; {elapsed:.2f}s < 30s")


# -- 3: brute force and direct search agree on z-free instances -----------------


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ts = integers(0, 5)
    grid = np.linspace(-2.5, 2.5, 11)
    resolution = grid[1] - grid[0]
    worst_gap = 0.0
    worst_res = 0.0
    for _ in range(10):
        c = rng.uniform(0.2, 2.0, size=3)
        L = f"-(({c[0]:.6f} + {c[1]:.6f}*t + {c[2]:.6f}*t^2)*(v1-0.5)^2)"
        p = Problem.from_strings(ts, 1, L, "0", [0.0])
        opts = SolveOptions(T_trunc=5.0, terminal_mode=PINNED(2.5), grad_tol=1e-9)
        xb = brute_force(p, opts, grid)
        xd = direct_solve(p, opts)
        gap = abs(
            evaluate_functional_partial(p, xb, 5.0)
            - evaluate_functional_partial(p, xd, 5.0)
        )
        res = max(
            float(np.max(np.abs(finite_horizon_el_residual(p, xb, 5.0, ts.points[j]))))
            for j in el_report_indices(ts)
        )
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= resolution and worst_res <= 1e-4 and elapsed < 60.0
    _report(3, "brute force matches direct search", ok,
            f"worst objective gap {worst_gap:.2e} <= {resolution}, "
            f"worst residual {worst_res:.2e} <= 1e-4; {elapsed:.2f}s < 60s")


# -- 4: accumulator-coupled first-order conditions -------------------------------


def test_criterion_4_accumulator_coupled_residuals():
    start = time.perf_counter()
    ts = integers(0, 8)
    p = Problem.from_strings(ts, 1, "-(v1^2)-z", "x1^2", [1.0])
    traj = direct_solve(p, SolveOptions(T_trunc=8.0, terminal_mode=FREE))
    T_prime = 8.0
    idx = list(el_report_indices(ts))
    res_pw = max(
        float(np.max(np.abs(el_residual_pointwise(p, traj, ts.points[j], T_prime))))
        for j in idx
    )
    report = residual_report(p, traj, T_prime)
    spread = float(np.max(report.el_integral_constant_spread))
    # the integral form on kappa rows 1..8; its nabla derivative at row j >= 2
    F = dict(zip(report.integral_rows.tolist(), report.el_integral))
    equiv = 0.0
    for j in idx:
        dF = (F[j] - F[j - 1]) / ts.local_steps[j]
        R = el_residual_pointwise(p, traj, ts.points[j], T_prime)
        equiv = max(equiv, float(np.max(np.abs(dF + R)) / max(1.0, np.max(np.abs(R)))))
    elapsed = time.perf_counter() - start
    ok = res_pw <= 1e-4 and spread <= 1e-4 and equiv <= 1e-8 and elapsed < 60.0
    _report(4, "coupled residuals at the searched optimum", ok,
            f"max pointwise {res_pw:.2e} <= 1e-4, spread {spread:.2e} <= 1e-4, "
            f"form equivalence {equiv:.2e} <= 1e-8; {elapsed:.2f}s < 60s")


# -- 5: terminal pairings shrink as the horizon recedes --------------------------


def test_criterion_5_transversality_trend():
    start = time.perf_counter()
    ts = integers(0, 30)
    p = Problem.from_strings(ts, 1, "exp(-t)*(-(v1^2)-x1^2)", "0", [1.0])
    opts = SolveOptions(T_trunc=30.0, grad_tol=1e-9, max_iters=2000)
    rows = horizon_study(p, [10.0, 20.0, 30.0], opts)
    t1 = [row.trans_T1 for row in rows]
    t2 = [row.trans_T2 for row in rows]
    elapsed = time.perf_counter() - start
    # T1 is x times the free end's own gradient entry, so at the optimum of each
    # truncated problem the discrete free-end condition holds and T1 vanishes to
    # rounding; T2 carries the accumulated L_x and decays with the horizon
    vanish1 = all(a <= 1e-12 * b for a, b in zip(t1, t2))
    dec2 = all(a > b for a, b in zip(t2, t2[1:]))
    ok = vanish1 and dec2 and t1[-1] <= 1e-3 and t2[-1] <= 1e-3 and elapsed < 120.0
    _report(5, "transversality magnitudes decay with the horizon", ok,
            f"|T1|={['%.2e' % v for v in t1]} <= 1e-12 |T2|, "
            f"|T2|={['%.2e' % v for v in t2]} decreasing, finals <= 1e-3; {elapsed:.2f}s < 120s")


# -- 6: violating variations exist for detectable nonzero functions --------------


def _random_scattered_case(rng):
    m = int(rng.integers(5, 20))
    pts = np.unique(rng.uniform(0.0, 8.0, m))
    while len(pts) < 5:
        pts = np.unique(rng.uniform(0.0, 8.0, m))
    ts = from_points(pts, ["s"] * (len(pts) - 1))
    vals = rng.normal(0.0, 0.4, len(pts))
    j0 = int(rng.integers(2, len(pts)))
    vals[j0] = float(np.sign(rng.standard_normal()) or 1.0) * (1.0 + abs(rng.standard_normal()))
    return ts, vals


def _random_dense_case(rng):
    n = int(rng.integers(4, 30))
    ts = sampled_interval(0.0, float(rng.uniform(0.5, 3.0)), n)
    tarr = np.asarray(ts.points)
    c = rng.uniform(-1.0, 1.0, 3)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    vals = sign * (0.1 + np.abs(c[0] + c[1] * tarr + c[2] * tarr**2))
    return ts, vals


def _random_mixed_case(rng):
    m = int(rng.integers(6, 24))
    pts = np.unique(rng.uniform(0.0, 8.0, m))
    while len(pts) < 6:
        pts = np.unique(rng.uniform(0.0, 8.0, m))
    kinds = ["s" if rng.uniform() < 0.5 else "d" for _ in range(len(pts) - 1)]
    j0 = int(rng.integers(2, len(pts)))
    kinds[j0 - 1] = "s"
    kinds[j0 - 2] = "s"
    ts = from_points(pts, kinds)
    vals = rng.normal(0.0, 0.3, len(pts))
    vals[j0] = float(np.sign(rng.standard_normal()) or 1.0) * (1.0 + abs(rng.standard_normal()))
    return ts, vals


def test_criterion_6_fundamental_lemma_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    cases = (
        [(_random_scattered_case, i) for i in range(70)]
        + [(_random_dense_case, i) for i in range(60)]
        + [(_random_mixed_case, i) for i in range(70)]
    )
    spikes = 0
    spike_exact = True
    for maker, _ in cases:
        ts, vals = maker(rng)
        g = GridFunction.scalar(ts, vals)
        variation = construct_violating_variation(g, ts)
        assert variation is not None, f"no variation on {ts.points}"
        w = float(witness_value(g, variation.eta, ts))
        assert w > 0.0
        if variation.case_tag is CaseTag.SCATTERED_SPIKE:
            spikes += 1
            g0 = float(g.value_at(variation.t0)[0])
            if w != ts.nu(variation.t0) * (g0 * g0):
                spike_exact = False
    elapsed = time.perf_counter() - start
    ok = spike_exact and spikes > 0 and elapsed < 10.0
    _report(6, "violating variation found for every detectable function", ok,
            f"200/200 witnesses > 0, {spikes} spikes all bit-exact "
            f"g(t0)^2*nu(t0); {elapsed:.2f}s < 10s")


# -- 7: brute-force optimum survives random challenges ----------------------------


def test_criterion_7_weak_maximizer_margins(tmp_path):
    start = time.perf_counter()
    ts = integers(0, 10)
    p = Problem.from_strings(ts, 1, "-(x1^2)", "0", [0.0])
    opts = SolveOptions(T_trunc=10.0)
    xstar = brute_force(p, opts, [-1.0, -0.5, 0.0, 0.5, 1.0])
    rng = np.random.default_rng(707)
    worst = -math.inf
    for _ in range(100):
        vals = xstar.values.copy()
        vals[1:, 0] += rng.uniform(-0.5, 0.5, size=len(ts) - 1)
        margin = weak_max_compare(p, Trajectory.from_values(p, vals), xstar)
        worst = max(worst, margin)

    # a deliberately improved candidate must flip the compare command to exit 1
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[timescale]\nfamily = integers\na = 0\nb = 10\n\n"
        "[problem]\nn = 1\nL = \"-(x1^2)\"\ng = \"0\"\nx_a = 0.0\n\n"
        "[report]\ntolerance = 1e-9\n"
    )
    weak_star = np.full((len(ts), 1), 0.5)
    weak_star[0, 0] = 0.0
    trajectory_to_csv(Trajectory.from_values(p, weak_star), tmp_path / "star.csv")
    trajectory_to_csv(Trajectory.from_values(p, np.zeros((len(ts), 1))), tmp_path / "cand.csv")
    code = cli_main([
        "compare", str(cfg),
        "--candidate", str(tmp_path / "cand.csv"),
        "--star", str(tmp_path / "star.csv"),
    ])
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and code == 1 and elapsed < 30.0
    _report(7, "optimum beats random challengers, improvement detected", ok,
            f"max margin {worst:.2e} <= 1e-9, improved-candidate exit {code} == 1; "
            f"{elapsed:.2f}s < 30s")


# -- 8: symbolic derivatives match central differences ----------------------------


_VARS = ("t", "x1", "v1", "z")


def _random_expr(r: random.Random, depth: int):
    if depth <= 0 or r.random() < 0.3:
        if r.random() < 0.5:
            return Num(round(r.uniform(-3.0, 3.0), 3))
        return Var(r.choice(_VARS))
    pick = r.random()
    if pick < 0.55:
        op = r.choice("+-*/")
        return BinOp(op, _random_expr(r, depth - 1), _random_expr(r, depth - 1))
    if pick < 0.70:
        return BinOp("^", _random_expr(r, depth - 1), Num(float(r.choice((2, 3)))))
    fn = r.choice(("exp", "log", "sin", "cos", "sqrt"))
    return Call(fn, _random_expr(r, depth - 1))


def test_criterion_8_symbolic_derivative_oracle():
    start = time.perf_counter()
    r = random.Random(808)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        expr = _random_expr(r, 4)
        names = sorted(variables(expr))
        if not names:
            continue
        env = {name: r.uniform(0.3, 2.5) for name in names}
        try:
            base = evaluate(expr, env)
        except ValueError:
            continue
        if not math.isfinite(base) or abs(base) > 1e6:
            continue
        ok_case = True
        for name in names:
            sym_expr = differentiate(expr, name)
            try:
                sym = evaluate(sym_expr, env)
            except ValueError:
                ok_case = False
                break
            h = 1e-6 * (1.0 + abs(env[name]))
            hi = dict(env, **{name: env[name] + h})
            lo = dict(env, **{name: env[name] - h})
            try:
                num = (evaluate(expr, hi) - evaluate(expr, lo)) / (2.0 * h)
            except ValueError:
                ok_case = False
                break
            if not (math.isfinite(sym) and math.isfinite(num)) or abs(sym) > 1e6:
                ok_case = False
                break
            worst = max(worst, abs(num - sym) / max(1.0, abs(sym)))
        if ok_case:
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and worst <= 1e-5 and elapsed < 5.0
    _report(8, "symbolic partials match central differences", ok,
            f"{checked}/200 expressions, worst rel err {worst:.2e} <= 1e-5; "
            f"{elapsed:.2f}s < 5s")


# -- 9: truncated maximizers approach the closed-form infinite-horizon one ---------


def _per_step(values, cuts):
    """The factor by which |values| falls per unit of T' between consecutive cuts."""
    return [abs(b / a) ** (1.0 / (t1 - t0))
            for a, b, t0, t1 in zip(values, values[1:], cuts, cuts[1:])]


def test_criterion_9_closed_form_infinite_horizon():
    # on the integers, L = exp(-rho*t)*(-v1^2 - x1^2 + c*z) with g = x1^2 (g = 0
    # for c = 0) is maximized over the infinite horizon by x_k = lambda^k: with
    # beta = exp(-rho), c*z weighs x^2 by a = 1 - c/(1 - beta), and lambda is
    # the root in (0, 1) of beta*lambda^2 - (1 + beta + beta*a)*lambda + 1 = 0
    start = time.perf_counter()
    rho = 0.3
    beta = math.exp(-rho)
    ts = integers(0, 80)
    cuts = [10.0, 20.0, 40.0, 80.0]
    opts = SolveOptions(T_trunc=80.0, grad_tol=1e-12)
    rng = np.random.default_rng(909)
    checks, detail = [], []
    for c, g, expected in ((0.0, "0", 0.468476), (0.1, "x1^2", 0.561956)):
        a = 1.0 - c / (1.0 - beta)
        b = 1.0 + beta + beta * a
        lam = (b - math.sqrt(b * b - 4.0 * beta)) / (2.0 * beta)
        p = Problem.from_strings(ts, 1, f"exp(-{rho}*t)*(-(v1^2) - x1^2 + {c}*z)", g, [1.0])
        star = Trajectory.from_values(p, lam ** np.arange(len(ts)))
        rows = horizon_study(p, cuts, opts)
        # the truncated maximizers on rows 0..5: the free end pulls them off
        # lambda^k by (beta*lambda^2)^T'; with c > 0 the objective truncated at
        # T' also misses the z tail, c times the integral of exp(-rho*t) past T',
        # which falls as beta^T'
        rate = beta if c else beta * lam**2
        errors = [float(np.max(np.abs(r.solution.values[:6, 0] - star.values[:6, 0]))) for r in rows]
        resolved = [e for e in errors if e > 1e-14]
        fit = _per_step(resolved, cuts[: len(resolved)])
        # T1 and T2 along lambda^k, at each cut: both are per-row products
        along = residual_report(p, star, cuts[-1])
        at_cuts = [int(T) - 1 for T in cuts]
        t1, t2 = along.trans_T1[at_cuts], along.trans_T2[at_cuts]
        # at the truncated maximizers T1 is the free end's own condition, at
        # rounding, and T2 falls as lambda^T' while x(T') is resolved
        table_t2 = [r.trans_T2 for r in rows[:3]]
        residual = max(r.max_el_residual for r in rows)
        spread = max(residual_report(p, r.solution, r.T_trunc).max_spread for r in rows)
        margins = []
        for _ in range(5):
            vals = star.values.copy()
            vals[1:11, 0] += rng.uniform(-0.3, 0.3, 10)
            margins.append(weak_max_compare(p, Trajectory.from_values(p, vals), star))
        checks += [
            abs(lam - expected) < 1e-6,
            len(resolved) >= 2 and all(abs(f / rate - 1.0) < 0.01 for f in fit),
            all(e <= 1e-14 for e in errors[len(resolved):]),
            all(abs(f / (beta * lam**2) - 1.0) < 1e-9 for f in _per_step(t1, cuts)),
            all(abs(f / lam - 1.0) < 1e-3 for f in _per_step(t2, cuts)),
            all(abs(f / lam - 1.0) < 0.01 for f in _per_step(table_t2, cuts[:3])),
            all(r.trans_T1 <= 1e-12 * t for r, t in zip(rows, table_t2)),
            residual <= 1e-14 and spread <= 1e-14,
            c > 0 or along.max_pointwise <= 1e-15,
            max(margins) < 0.0,
        ]
        detail.append(
            f"c={c}: lambda {lam:.6f}, error/step {[f'{f:.4f}' for f in fit]} ~ {rate:.4f}, "
            f"T1/step {_per_step(t1, cuts)[0]:.4f}, T2/step {_per_step(t2, cuts)[0]:.4f}, "
            f"residual {residual:.1e}, spread {spread:.1e}, margin {max(margins):.1e}"
        )
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 30.0
    _report(9, "truncated maximizers approach the closed form", ok,
            f"{'; '.join(detail)}; {elapsed:.2f}s < 30s")
