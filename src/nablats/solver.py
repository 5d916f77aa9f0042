"""Direct maximization of truncated functionals over trajectory values.

The solver treats the state values at grid points after the start (and
before a pinned terminal point) as optimization variables and performs
gradient ascent with a backtracking line search on the truncated
objective.  A brute-force enumerator over a finite value grid serves as
an independent oracle on tiny instances, and a horizon study re-solves
the problem at increasing truncations to expose the decay of the
transversality residuals.

Gradients come in two flavours: central finite differences on the
trajectory coordinates (the default, independent of the symbolic layer)
and an exact analytic gradient of the discretized objective assembled
from the symbolic partials.  Deep discounted horizons need the analytic
gradient: finite differences bottom out near 5e-11, which drowns the
exponentially small entries that matter at large times.  Jacobi
preconditioning divides each coordinate by the analytic diagonal of the
Hessian, so that the stopping test reads in step units.  With the analytic
gradient an iteration costs O(m n); the fd gradient costs O(m^2 n).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .calculus import running_fsum
from .expressions import evaluate_many, to_source
from .variational import (
    Problem,
    ProblemError,
    Trajectory,
    _ELCore,
    el_report_indices,
    evaluate_functional_partial,
    path_env,
)


class NonFiniteObjectiveError(ValueError):
    """The objective or its integrand became non-finite during the search."""


class EnumerationGuardError(ValueError):
    """The brute-force assignment count exceeds the enumeration guard."""


@dataclass(frozen=True)
class TerminalMode:
    kind: str
    values: Optional[tuple[float, ...]] = None


FREE = TerminalMode("free")


def PINNED(*values: float) -> TerminalMode:
    """Pin the state at the truncation point to the given values."""
    if not values:
        raise ValueError("PINNED requires at least one value")
    vals = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("pinned terminal values must be finite")
    return TerminalMode("pinned", vals)


@dataclass(frozen=True)
class SolveOptions:
    """Controls for direct_solve / brute_force / horizon_study.

    ``gradient`` selects "fd" (central finite differences) or "analytic"
    (exact gradient of the discretized objective);  ``precondition``
    divides the ascent direction by the absolute analytic Hessian diagonal
    (Jacobi scaling, O(m n), refreshed every 50 iterations) and then
    interprets ``grad_tol`` as a bound on the step, which is the only
    reliable stopping rule when the objective carries strong discounting.
    """

    T_trunc: float
    terminal_mode: TerminalMode = FREE
    max_iters: int = 2000
    step_init: float = 1.0
    grad_tol: float = 1e-6
    gradient: str = "fd"
    precondition: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.gradient not in ("fd", "analytic"):
            raise ValueError("gradient must be 'fd' or 'analytic'")
        if self.terminal_mode.kind not in ("free", "pinned"):
            raise ValueError("unknown terminal mode")


@dataclass(frozen=True)
class SolveInfo:
    """How a solve ended; ``direct_solve`` explains each ``stop_reason``."""

    iterations: int
    converged: bool
    grad_norm: float
    objective: float
    objective_log: tuple[float, ...]
    stop_reason: str
    curvature_refreshes: int
    backtracks: int


ARMIJO = 1e-4


class _Engine:
    """Truncated-objective evaluation on raw value arrays.

    Works on the slice of the grid up to the truncation index K; terms
    at the start carry weight zero and are never evaluated, so domain
    trouble at excluded points cannot poison the search.
    """

    def __init__(self, p: Problem, opts: SolveOptions):
        ts = p.ts
        self.p = p
        self.opts = opts
        self.K = ts.index_of(opts.T_trunc)
        if self.K < 1:
            raise ProblemError("T_trunc must lie strictly past the initial point")
        self.n = p.n
        self.w = np.asarray(ts.local_steps[: self.K + 1])
        # scattered[j - 1]: grid point j is left-scattered
        self.scattered = ts.rho_indices[1 : self.K + 1] < np.arange(1, self.K + 1)
        # grid rows 1..last are free; a pinned terminal keeps row K
        self.last = self.K
        if opts.terminal_mode.kind == "pinned":
            self.last -= 1
            if len(opts.terminal_mode.values) != p.n:
                raise ProblemError(
                    f"pinned terminal needs {p.n} value(s), got {len(opts.terminal_mode.values)}"
                )
        self.free = [(j, c) for j in range(1, self.last + 1) for c in range(p.n)]

    def initial_values(self) -> np.ndarray:
        ts, p, opts = self.p.ts, self.p, self.opts
        x = np.tile(p.x_a_array, (len(ts), 1)).astype(float)
        if opts.terminal_mode.kind == "pinned":
            target = np.asarray(opts.terminal_mode.values)
            span = ts.points[self.K] - ts.points[0]
            frac = (ts.points_array[: self.K + 1] - ts.points[0]) / span
            x[: self.K + 1] = p.x_a_array + frac[:, None] * (target - p.x_a_array)
            x[self.K + 1 :] = target
        return x

    def _env(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """``path_env`` on grid rows 1..K; x may carry a leading batch axis."""
        return {key: a[..., 1:] for key, a in path_env(self.p.ts, x, self.K).items()}

    def _eval(self, expr, env, what: str) -> np.ndarray:
        vals = np.broadcast_to(
            np.asarray(evaluate_many(expr, env), dtype=float), (self.K,)
        )
        if not np.all(np.isfinite(vals)):
            bad = int(np.argmax(~np.isfinite(vals)))
            raise NonFiniteObjectiveError(
                f"{what} '{to_source(expr)}' is non-finite at t={float(env['t'][bad])!r} "
                "during the search"
            )
        return vals

    def _cols(self, key: str, env) -> np.ndarray:
        """(K, n) array of the partial ``key`` ("Lx", "gxv", ...) per component."""
        d = self.p.partials if len(key) == 2 else self.p.second_partials
        what = f"d{key[0]}/d{key[1]}" if len(key) == 2 else f"d2{key[0]}/d{key[1]}d{key[2]}"
        return np.column_stack([self._eval(e, env, what) for e in d[key]])

    def objective(self, x: np.ndarray) -> float:
        # correctly-rounded sums keep the line search honest: once true
        # improvements drop below one ulp of the objective, probes evaluate
        # bit-identically instead of picking up accumulation noise that
        # masquerades as a decrease
        env = self._env(x)
        gvals = self._eval(self.p.z_integrand, env, "z integrand")
        env["z"] = running_fsum(self.w[1:] * gvals)
        lvals = self._eval(self.p.effective_lagrangian, env, "objective integrand")
        return math.fsum(self.w[1:] * lvals)

    def fd_gradient(self, x: np.ndarray) -> np.ndarray:
        grad = np.empty(len(self.free))
        for i, (j, c) in enumerate(self.free):
            h = 1e-6 * (1.0 + abs(x[j, c]))
            xp = x.copy()
            xp[j, c] = x[j, c] + h
            fp = self.objective(xp)
            xp[j, c] = x[j, c] - h
            fm = self.objective(xp)
            grad[i] = (fp - fm) / (2.0 * h)
        return grad

    def _z_path(self, x: np.ndarray):
        """The path env with z, and the tail sums S of w*L_z from each row to K."""
        env = self._env(x)
        env["z"] = np.cumsum(self.w[1:] * self._eval(self.p.z_integrand, env, "z integrand"))
        Lz = self._eval(self.p.partials["Lz"], env, "dL/dz")
        return env, np.cumsum((self.w[1:] * Lz)[::-1])[::-1]

    def analytic_gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient of the discretized objective.

        With S_j the tail sum of w*L_z from j to K, the chain through z
        collapses to S at the point where a coordinate first enters the
        accumulation, so each coordinate touches at most four terms.
        """
        env, S = self._z_path(x)
        A = self._cols("Lv", env) + S[:, None] * self._cols("gv", env)
        B = self.w[1:, None] * (self._cols("Lx", env) + S[:, None] * self._cols("gx", env))
        # row j: term j through v, and through x when j is left-dense; then
        # term j + 1 through v, and through x when j + 1 is left-scattered
        G = np.where(self.scattered[:, None], A, A + B)
        G[:-1] -= A[1:]
        G[:-1] = np.where(self.scattered[1:, None], G[:-1] + B[1:], G[:-1])
        return G[: self.last].ravel()

    def curvature(self, x: np.ndarray) -> np.ndarray:
        """|Hessian diagonal| of the discretized objective per free coordinate.

        Exact, from the second partials, in O(K n).  Coordinate (j, c) moves
        term j (v by 1/w_j, x when j is left-dense), term j + 1 (v by
        -1/w_{j+1}, x when j + 1 is left-scattered), and z by e_j at j, by
        E = e_j + e_{j+1} after; the z-chain reaches later terms only through
        the tail sums S of w*L_z and Q of w*L_zz.
        """
        env, S = self._z_path(x)
        S, w = S[:, None], self.w[1:, None]
        gx, gv, Lxz, Lvz = (self._cols(key, env) for key in ("gx", "gv", "Lxz", "Lvz"))
        Hxx, Hxv, Hvv = (
            self._cols("L" + k, env) + S * self._cols("g" + k, env) for k in ("xx", "xv", "vv")
        )
        wLzz = w * self._eval(self.p.second_partials["Lzz"], env, "d2L/dzdz")[:, None]
        Q = np.cumsum(wLzz[::-1], axis=0)[::-1]

        def term(a, b, dz):
            return w * (a * a * Hxx + 2 * a * b * Hxv + b * b * Hvv + 2 * dz * (a * Lxz + b * Lvz))

        # sensitivities of term k to x_k (a0, b0) and to x_{k-1} (a1, b1)
        a0, b0 = 1.0 * ~self.scattered[:, None], 1.0 / w
        a1, b1 = 1.0 * self.scattered[:, None], -1.0 / w
        e0, e1 = w * (a0 * gx + b0 * gv), w * (a1 * gx + b1 * gv)
        E = np.zeros_like(e0)  # E[k]: z shift from term k on, for coordinate k - 1
        E[1:] = e0[:-1] + e1[1:]
        diag = term(a0, b0, e0) + wLzz * e0 * e0
        diag[:-1] += (term(a1, b1, E) + Q * E * E)[1:]
        return np.maximum(np.abs(diag[: self.last].ravel()), 1e-30)

    def apply(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[1 : self.last + 1] = x[1 : self.last + 1] + delta.reshape(-1, self.n)
        return out


def free_coordinates(p: Problem, opts: SolveOptions) -> list[tuple[int, int]]:
    """(grid index, component) pairs the solver treats as variables."""
    return list(_Engine(p, opts).free)


def fd_gradient(p: Problem, values, opts: SolveOptions) -> np.ndarray:
    """Central-difference gradient of the truncated objective at ``values``."""
    eng = _Engine(p, opts)
    return eng.fd_gradient(np.asarray(values, dtype=float))


def analytic_gradient(p: Problem, values, opts: SolveOptions) -> np.ndarray:
    """Exact gradient of the discretized truncated objective at ``values``."""
    eng = _Engine(p, opts)
    return eng.analytic_gradient(np.asarray(values, dtype=float))


def direct_solve(p: Problem, opts: SolveOptions, with_info: bool = False):
    """Gradient ascent on the truncated objective over free state values.

    Starts from the constant initial state (or the linear interpolant to
    a pinned terminal) and ascends with Armijo backtracking from
    ``step_init``.  Values beyond the truncation point are frozen; they
    never enter the truncated objective.  Accepted steps never decrease
    the objective.  ``SolveInfo.stop_reason`` says why the search ended:
    ``grad_tol`` (the sup norm of the gradient, or of the preconditioned
    step, fell below ``grad_tol``; the only converged case), ``flat`` (50
    accepted steps in a row left the objective unchanged), ``no_progress``
    (no step size passed the Armijo test, or the accepted step changed
    nothing) or ``max_iters``.
    """
    eng = _Engine(p, opts)
    x = eng.initial_values()
    f = eng.objective(x)
    log = [f]
    curv = None
    crit = math.inf
    iterations = refreshes = backtracks = 0
    stop = "max_iters"
    flat = 0  # consecutive accepted steps with no representable objective change
    for it in range(opts.max_iters):
        iterations = it + 1
        grad = eng.analytic_gradient(x) if opts.gradient == "analytic" else eng.fd_gradient(x)
        if opts.precondition:
            if curv is None or it % 50 == 0:
                curv = eng.curvature(x)
                refreshes += 1
            direction = grad / curv
        else:
            direction = grad
        crit = float(np.max(np.abs(direction))) if len(direction) else 0.0
        if crit <= opts.grad_tol:
            stop = "grad_tol"
            break
        slope = float(np.dot(grad, direction))
        alpha = opts.step_init
        accepted = False
        for _ in range(80):
            xt = eng.apply(x, alpha * direction)
            ft = eng.objective(xt)
            if ft >= f + ARMIJO * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
            backtracks += 1
        if not accepted or (ft == f and np.array_equal(xt, x)):
            stop = "no_progress"
            break
        # zero-change steps can still tighten the iterate, but a long run of
        # them means the objective has hit float resolution; stop crawling
        flat = flat + 1 if ft == f else 0
        x, f = xt, ft
        log.append(f)
        if flat >= 50:
            stop = "flat"
            break

    traj = Trajectory.from_values(p, x)
    if not with_info:
        return traj
    info = SolveInfo(
        iterations=iterations,
        converged=stop == "grad_tol",
        grad_norm=crit,
        objective=evaluate_functional_partial(p, traj, opts.T_trunc),
        objective_log=tuple(log),
        stop_reason=stop,
        curvature_refreshes=refreshes,
        backtracks=backtracks,
    )
    return traj, info


# -- brute force oracle -----------------------------------------------------


GUARD = 10**7
_BATCH = 4096


def brute_force(p: Problem, opts: SolveOptions, value_grid) -> Trajectory:
    """Exhaustive argmax of the truncated objective over a value grid.

    Every free coordinate independently ranges over the sorted distinct
    values of ``value_grid``; assignments are enumerated in lexicographic
    order and the first maximizer wins, which makes the result invariant
    under permutation of the input grid.  Guarded to at most 10^7
    assignments.
    """
    eng = _Engine(p, opts)
    grid = np.array(sorted(set(float(v) for v in value_grid)))
    if grid.size == 0:
        raise ValueError("value_grid must be nonempty")
    G, F = grid.size, len(eng.free)
    total = G**F
    if total > GUARD:
        raise EnumerationGuardError(
            f"{G}^{F} = {total} assignments exceed the enumeration guard of {GUARD}"
        )
    base = eng.initial_values()
    K = eng.K
    weights = G ** np.arange(F - 1, -1, -1, dtype=np.int64)

    best_val = -math.inf
    best_x = None
    for start in range(0, total, _BATCH):
        ids = np.arange(start, min(start + _BATCH, total), dtype=np.int64)
        B = ids.size
        xb = np.tile(base[: K + 1], (B, 1, 1))
        for i, (j, c) in enumerate(eng.free):
            xb[:, j, c] = grid[(ids[:, None] // weights[i]) % G].ravel()
        vals = _batch_objective(eng, xb)
        vals = np.where(np.isfinite(vals), vals, -math.inf)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = xb[k].copy()
    if best_x is None or best_val == -math.inf:
        raise NonFiniteObjectiveError("every enumerated assignment gave a non-finite objective")
    full = base.copy()
    full[: K + 1] = best_x
    return Trajectory.from_values(p, full)


def _batch_objective(eng: _Engine, xb: np.ndarray) -> np.ndarray:
    """Vectorized truncated objective over a batch of head segments."""
    w = eng.w
    env = eng._env(xb)
    B = xb.shape[0]
    g = np.broadcast_to(
        np.asarray(evaluate_many(eng.p.z_integrand, env), dtype=float), (B, eng.K)
    )
    env["z"] = np.cumsum(w[1:] * g, axis=1)
    lv = np.broadcast_to(
        np.asarray(evaluate_many(eng.p.effective_lagrangian, env), dtype=float), (B, eng.K)
    )
    with np.errstate(invalid="ignore"):
        return lv @ w[1:]


# -- horizon study ----------------------------------------------------------


@dataclass(frozen=True)
class HorizonRow:
    T_trunc: float
    max_el_residual: float
    trans_T1: float
    trans_T2: float
    trans_applicable: bool
    solution: Trajectory = field(repr=False, compare=False)
    info: SolveInfo = field(repr=False, compare=False)

    @property
    def objective(self) -> float:
        """The literal objective of the solution at T_trunc."""
        return self.info.objective


def horizon_study(p: Problem, truncations, opts: SolveOptions) -> list[HorizonRow]:
    """Re-solve at each truncation and tabulate residual magnitudes.

    For every truncation point: solve once, record the largest pointwise
    Euler-Lagrange residual over reported points up to the truncation,
    both transversality residual magnitudes at the truncation, and the
    literal objective value, all from one residual core of the solution.
    Transversality is a free-endpoint condition, so rows solved with a
    pinned terminal carry ``trans_applicable=False``.
    """
    ts = p.ts
    cuts = [float(T) for T in truncations]
    if sorted(cuts) != cuts or len(set(cuts)) != len(cuts):
        raise ProblemError("truncations must be strictly increasing")
    rows = []
    for T in cuts:
        o = replace(opts, T_trunc=T)
        x, info = direct_solve(p, o, with_info=True)
        core = _ELCore(p, x, T)
        R = core.pointwise()
        report = [j for j in el_report_indices(ts) if j <= core.k]
        rows.append(
            HorizonRow(
                T_trunc=T,
                max_el_residual=max([0.0] + [float(np.max(np.abs(R[j]))) for j in report]),
                trans_T1=abs(core.trans_T1(core.k)),
                trans_T2=abs(core.trans_T2(core.k)),
                trans_applicable=o.terminal_mode.kind == "free",
                solution=x,
                info=info,
            )
        )
    return rows


def horizon_table_to_csv(rows: list[HorizonRow], path) -> None:
    with open(path, "w", newline="") as fh:
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
