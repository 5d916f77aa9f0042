"""Infinite-horizon variational problems on time-scale grids.

A problem maximizes (or minimizes)

    J(x) = integral over (a, inf) of  L(t, x_rho(t), x_nabla(t), z(t))

subject to x(a) = x_a, where z accumulates a constraint integrand:

    z(t) = integral over (a, t] of  g(tau, x_rho(tau), x_nabla(tau)).

In expressions, ``x1..xn`` denote the state sampled at the backward jump
rho(t), ``v1..vn`` its nabla derivative, and ``z`` the accumulated integral.

This module evaluates truncated functionals and the first-order optimality
residuals:

* the pointwise Euler-Lagrange residual at horizon T': row j = 2..k is the
  derivative in x(t_{j-1}) of the objective truncated at T', over the step
  t_j - t_{j-1}, the solver's own condition (``objective_gradient``), one
  row per free state value; where t_j and its predecessor are left-scattered
  (so t_{j-1} = rho(t_j)) it is the paper's
      gx*I - (gv*I)^nabla + Lx - Lv^nabla,     I(t) = int_{rho(t)}^{T'} Lz,
  and on dense runs the integral form reads the continuous condition.  The
  finite-horizon residual at T' (``check-el --form finite``) is this
  residual, so it gives the pointwise statistic at T';
* the integral (Dubois-Reymond) form, constant in t at a maximizer;
* two transversality residuals whose tail infima vanish at a maximizer;
* a weak-maximizer margin comparing two admissible trajectories through the
  tail infimum of truncated objective differences.

All of them read one path (``path_env``: t, x at rho(t) and the nabla
derivative, then z) and one exact running sum (``calculus.running_fsum``),
with L, g and their partials from one call of the problem's compiled kernel
(``Problem.kernel``).  A quantity at horizon T' = t_k reads grid rows
1..k only, as the truncated objective does; the start, row 0, is evaluated
only for the integral form on a dense start, the one quantity that reads
it.  The pointwise residual and transversality come from one residual core
(``_ELCore``), built from the first partials on those rows: along a
trajectory for ``check-el``, and from the solver's last derivative pass for
the horizon table.

Minimization problems are verified through their maximization mirror: all
residuals use -L internally when sense is MIN (``evaluate_functional_partial``
always reports the literal integral of L).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import (
    GridFunction,
    GridMismatchError,
    OutsideKappaError,
    liminf_estimate,
    nabla_quotients,
    running_fsum,
)
from .expressions import (
    Binding,
    Expr,
    Kernel,
    Neg,
    Num,
    bind_shape,
    differentiate,
    evaluate_many,
    parse,
    substitute,
    variables,
)
from .timescale import TimeScale


class ProblemError(ValueError):
    pass


class AdmissibilityError(ValueError):
    """Trajectory violates the pinned initial state or lives off-grid."""


class Sense(enum.Enum):
    MAX = "max"
    MIN = "min"


#: the row order of every kernel (``Problem.kernel``); the groups of g, which
#: never reads z, are evaluated before z is summed
_KERNEL_GROUPS = ("g", "gx", "gv", "guu", "L", "J", "Lz", "Lx", "Lv", "Luz", "Lzz", "Luu")
_G_STAGE = frozenset({"g", "gx", "gv", "guu"})


def _allowed_vars(n: int, with_z: bool) -> set[str]:
    names = {"t"}
    for i in range(1, n + 1):
        names.add(f"x{i}")
        names.add(f"v{i}")
    if with_z:
        names.add("z")
    return names


def _derive(tag, L: Expr, g: Expr, guards) -> dict:
    """The expressions of one problem shape (``expressions.bind_shape``):
    the z integrand, the literal and the maximized lagrangian, their first
    and second partials, and the (label, expression) rows of every kernel
    group, from one ``differentiate`` pass."""
    n, sense = tag
    J = Neg(L) if sense is Sense.MIN else L
    xs, vs = [f"x{i}" for i in range(1, n + 1)], [f"v{i}" for i in range(1, n + 1)]
    u = xs + vs
    first = {
        "Lx": [differentiate(J, name, guards) for name in xs],
        "Lv": [differentiate(J, name, guards) for name in vs],
        "Lz": differentiate(J, "z", guards),
        "gx": [differentiate(g, name, guards) for name in xs],
        "gv": [differentiate(g, name, guards) for name in vs],
    }

    def matrix(grad: list[Expr]) -> list[list[Expr]]:
        k = range(len(u))
        upper = {(i, j): differentiate(grad[i], u[j], guards) for i in k for j in k if i <= j}
        return [[upper[min(i, j), max(i, j)] for j in k] for i in k]

    second = {
        "Luu": matrix(first["Lx"] + first["Lv"]),
        "guu": matrix(first["gx"] + first["gv"]),
        "Luz": [differentiate(first["Lz"], name, guards) for name in u],
        "Lzz": differentiate(first["Lz"], "z", guards),
    }
    rows = {"g": [("z integrand", g)], "L": [("lagrangian", L)], "J": [("objective integrand", J)]}
    for group, exprs in first.items():
        label = f"d{group[0]}/d{group[1]}"
        rows[group] = [(label, e) for e in exprs] if isinstance(exprs, list) else [(label, exprs)]
    rows["Luz"] = [(f"d2L/d{name}dz", e) for e, name in zip(second["Luz"], u)]
    rows["Lzz"] = [("d2L/dzdz", second["Lzz"])]
    for group in ("Luu", "guu"):
        k = range(len(u))
        rows[group] = [(f"d2{group[0]}/d{u[min(i, j)]}d{u[max(i, j)]}", second[group][i][j])
                       for i in k for j in k]
    # the solver's band reads L_uu, g_uu, the tail sums of L_z and, through
    # the z couplings, L_uz, L_zz and g_u.  Where L_z reads t alone, L_uz and
    # L_zz (partials of L_z) are literal zeros; where g is the literal 0, z is
    # 0 and a = w*g_u is an exact zero.  Either way every z coupling is a
    # product with an exact zero, so where L_uu and g_uu read t alone too the
    # band is fixed
    fixed_band = (g == Num(0.0) or variables(first["Lz"]) <= {"t"}) and all(
        variables(e) <= {"t"} for e in sum(second["Luu"] + second["guu"], []))
    return {"partials": first, "hessian_partials": second, "rows": rows, "fixed_band": fixed_band}


def _compile_kernel(shape, key) -> Kernel:
    """The kernel of a shape for ``Problem.kernel``'s key (groups, check)."""
    groups, check = key
    unknown = groups.difference(_KERNEL_GROUPS)
    if unknown:
        raise ValueError(f"unknown kernel groups {sorted(unknown)}")
    stages = ([], [])
    for name in _KERNEL_GROUPS:
        if name == "g" or name in groups:
            stages[name not in _G_STAGE].append((name, shape.derived["rows"][name]))
    return Kernel(shape.program, *stages, check=check)


def _substituted(obj, values):
    """``substitute`` over the expressions of a dict of (nested) lists."""
    if isinstance(obj, dict):
        return {key: _substituted(v, values) for key, v in obj.items()}
    if isinstance(obj, list):
        return [_substituted(v, values) for v in obj]
    return substitute(obj, values)


@dataclass(frozen=True)
class Problem:
    """An infinite-horizon problem instance on a (truncated) grid."""

    ts: TimeScale
    n: int
    lagrangian: Expr
    z_integrand: Expr
    x_a: tuple[float, ...]
    sense: Sense = Sense.MAX

    def __post_init__(self):
        if self.n < 1:
            raise ProblemError("state dimension n must be >= 1")
        object.__setattr__(self, "x_a", tuple(float(v) for v in self.x_a))
        if len(self.x_a) != self.n:
            raise ProblemError(f"x_a has length {len(self.x_a)}, expected n={self.n}")
        if not all(math.isfinite(v) for v in self.x_a):
            raise ProblemError("x_a must be finite")
        bad = variables(self.lagrangian) - _allowed_vars(self.n, with_z=True)
        if bad:
            raise ProblemError(f"lagrangian uses unknown variables {sorted(bad)}")
        bad = variables(self.z_integrand) - _allowed_vars(self.n, with_z=False)
        if bad:
            raise ProblemError(f"z integrand uses unknown variables {sorted(bad)} (z itself is not allowed)")

    @classmethod
    def from_strings(cls, ts, n, lagrangian, z_integrand, x_a, sense=Sense.MAX) -> "Problem":
        if isinstance(x_a, (int, float)):
            x_a = (float(x_a),)
        return cls(ts, n, parse(lagrangian), parse(z_integrand), tuple(x_a), sense)

    @cached_property
    def _binding(self) -> Binding:
        """This problem's constants bound to its shape's compiled form."""
        return bind_shape((self.lagrangian, self.z_integrand), (self.n, self.sense), _derive)

    @cached_property
    def partials(self) -> dict[str, list[Expr] | Expr]:
        """The first partials of the maximized L ("Lx", "Lv", "Lz") and of g
        ("gx", "gv"), one expression per component ("Lz" one alone)."""
        return _substituted(self._binding.shape.derived["partials"], self._binding.values)

    @cached_property
    def hessian_partials(self) -> dict[str, list | Expr]:
        """The second partials behind the solver's Hessian band, in the
        variables u = (x1..xn, v1..vn): the symmetric 2n x 2n matrices "Luu"
        and "guu", the 2n mixes "Luz" of L with z, and "Lzz"."""
        return _substituted(self._binding.shape.derived["hessian_partials"], self._binding.values)

    @property
    def fixed_band(self) -> bool:
        """Whether the solver's Hessian band is the same at every point:
        decided once per shape, true when L_uu and g_uu read t alone and
        so does L_z (a linear-quadratic problem) or g is the literal 0, so
        that a search factors it once."""
        return self._binding.shape.derived["fixed_band"]

    def kernel(self, *groups: str, check: bool = True) -> Kernel:
        """The compiled kernel of the z integrand and ``groups``, bound to
        this problem's constants.

        Every kernel of a shape (``expressions.bind_shape``) lowers into one
        hash-consed ``Program`` and is compiled once per process.  Groups,
        one stacked row per expression, in ``_KERNEL_GROUPS`` order
        whatever the order asked for: "g" (the z integrand, whose running
        sum is z), "L" (the literal lagrangian), "J" (the maximized
        integrand: L, or -L for minimization), the first partials of
        ``partials`` ("gx", "gv", "Lz", "Lx", "Lv", one row per component)
        and the second partials of ``hessian_partials`` ("Luz", "Lzz", and
        "Luu" and "guu" as (2n)^2 rows in row-major order).  The g-stage
        groups (g, gx, gv, guu) run before z is summed, the rest after.
        """
        return self._binding.kernel((frozenset(groups), check), _compile_kernel)

    @property
    def x_a_array(self) -> np.ndarray:
        return np.asarray(self.x_a)


@dataclass(frozen=True)
class Trajectory:
    """State values on the problem grid with x(a) pinned to x_a."""

    x: GridFunction

    @classmethod
    def from_values(cls, problem: Problem, values) -> "Trajectory":
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (len(problem.ts), problem.n):
            raise AdmissibilityError(
                f"trajectory shape {arr.shape} does not match ({len(problem.ts)}, {problem.n})"
            )
        if not np.array_equal(arr[0], problem.x_a_array):
            raise AdmissibilityError(
                f"x(a) = {arr[0].tolist()} does not match the pinned x_a = {list(problem.x_a)}"
            )
        if not np.all(np.isfinite(arr)):
            raise AdmissibilityError("trajectory contains non-finite values")
        return cls(GridFunction(problem.ts, arr))

    @classmethod
    def constant(cls, problem: Problem) -> "Trajectory":
        values = np.tile(problem.x_a_array, (len(problem.ts), 1))
        return cls(GridFunction(problem.ts, values))

    @property
    def values(self) -> np.ndarray:
        return self.x.values

    def value_at(self, t: float) -> np.ndarray:
        return self.x.value_at(t)


def _check_trajectory(p: Problem, x: Trajectory):
    if x.x.ts != p.ts:
        raise GridMismatchError("trajectory grid does not match the problem grid")
    if x.x.dim != p.n:
        raise AdmissibilityError(f"trajectory dimension {x.x.dim} != n={p.n}")


# -- path evaluation ------------------------------------------------------------


def path_env(ts: TimeScale, values: np.ndarray, k: int) -> dict[str, np.ndarray]:
    """Arrays of t, x_i at rho(t) and v_i (nabla derivative) on grid rows 0..k.

    ``values`` has shape (..., rows, n) with rows > k; a leading batch axis
    carries through.  Row 0 copies the derivative of row 1, the
    successor-copy convention of ``nabla_derivative_fn``.
    """
    head = values[..., : k + 1, :]
    v = nabla_quotients(head, ts.local_steps[: k + 1])
    xr = head[..., ts.rho_indices[: k + 1], :]
    env: dict[str, np.ndarray] = {"t": ts.points_array[: k + 1]}
    for i in range(values.shape[-1]):
        env[f"x{i + 1}"] = xr[..., i]
        env[f"v{i + 1}"] = v[..., i]
    return env


def _integrals(terms: np.ndarray) -> np.ndarray:
    """Exact nabla integrals over (a, t_j] for every j, per column of the
    grid-aligned ``terms``; terms[0] carries the zero weight at the minimum."""
    sums = running_fsum(terms[1:])
    return np.concatenate((np.zeros((1,) + sums.shape[1:]), sums))


def _path(p: Problem, x: Trajectory, k: int, *groups: str, start: int = 1) -> dict[str, np.ndarray]:
    """One kernel call along x on grid rows start..k (``path_env``): the
    accumulated z, and the rows (count, k + 1) of each kernel group, on rows
    0..k.  Row 0 carries zero weight in every integral, so only the integral
    form on a dense start reads it; with ``start`` 1 it is not evaluated, as
    in the solver, and its rows are NaN (z is 0.0 there)."""
    _check_trajectory(p, x)
    env = {key: a[..., start:] for key, a in path_env(p.ts, x.values, k).items()}
    kernel = p.kernel(*groups)
    w = p.ts.local_steps[1 : k + 1]

    def z_sum(g):  # z on the evaluated rows: 0.0 at row 0, then the running sum of w*g
        return np.concatenate((np.zeros(1 - start), running_fsum(w * g[1 - start :])))

    out = evaluate_many(kernel, env, z_sum)
    out = np.concatenate((np.full((len(out), start), np.nan), out), axis=1)
    z = np.concatenate((np.zeros(start), env["z"]))
    return {"z": z, **{name: out[kernel.rows[name]] for name in groups}}


def _running_objective(p: Problem, x: Trajectory) -> np.ndarray:
    """J[j] = integral of the literal L over (a, t_j] along x, for every j."""
    return _integrals(p.ts.local_steps * _path(p, x, len(p.ts) - 1, "L")["L"][0])


def compute_z(p: Problem, x: Trajectory) -> GridFunction:
    """The accumulated constraint integral z along x; z(a) = 0."""
    return GridFunction.scalar(p.ts, _path(p, x, len(p.ts) - 1)["z"])


def evaluate_functional_partial(p: Problem, x: Trajectory, T_prime: float) -> float:
    """The truncated objective: integral of L over (a, T'] along x.

    Always the literal L, independent of the problem sense.  One exact sum
    of the terms up to T', bit for bit ``_running_objective(p, x)[k]``; L
    is evaluated, and checked for non-finite values, on grid rows 1..k, the
    rows the truncated objective reads.
    """
    _check_trajectory(p, x)
    k = p.ts.index_of(T_prime)
    if k == 0:
        raise ProblemError(f"T_prime={T_prime!r} must lie strictly past the initial point")
    lvals = _path(p, x, k, "L")["L"][0]
    return math.fsum((p.ts.local_steps[: k + 1] * lvals)[1:].tolist())


# -- Euler-Lagrange residual core ------------------------------------------------


def objective_gradient(Lx, Lv, gx, gv, S, w, scattered) -> np.ndarray:
    """The gradient (K, n) of the discretized objective truncated at row K in
    the state values of rows 1..K, from the first partials (K, n) of the
    maximized L and of g, the tail sums S (K,) of w*L_z from each row to K,
    the steps w and the left-scattered flags on rows 1..K.  Through z the
    chain collapses to S at the row where a coordinate first enters the
    accumulation, so each row touches at most four terms."""
    A = Lv + S[:, None] * gv
    B = w[:, None] * (Lx + S[:, None] * gx)
    # row j: term j through v, and through x when j is left-dense; then
    # term j + 1 through v, and through x when j + 1 is left-scattered
    G = np.where(scattered[:, None], A, A + B)
    G[:-1] -= A[1:]
    G[:-1] = np.where(scattered[1:, None], G[:-1] + B[1:], G[:-1])
    return G


#: the kernel groups of the residual core
_EL_GROUPS = ("gx", "gv", "Lz", "Lx", "Lv")


class _ELCore:
    """All per-point arrays of the residual operators along x at horizon
    T' = t_k, on grid rows 0..k, the rows the objective truncated at T' reads.

    Built from the first partials on those rows, ``parts`` (the kernel rows
    (count, k + 1) of each of ``_EL_GROUPS``) and the state ``values``:
    ``along`` takes them from one kernel call along a trajectory, the solver
    from its derivative pass at the solution.  Only the integral form reads
    row 0, and only ``residual_report`` on a dense start evaluates it; it is
    NaN otherwise.
    """

    def __init__(self, ts: TimeScale, values: np.ndarray, k: int, parts: dict[str, np.ndarray]):
        self.ts, self.k, self.values = ts, k, values[: k + 1]
        self.Lz = parts["Lz"][0]
        self.Lx, self.Lv, self.gx, self.gv = (
            np.ascontiguousarray(parts[key].T) for key in ("Lx", "Lv", "gx", "gv")
        )
        w = ts.local_steps[: k + 1]
        rho = ts.rho_indices[: k + 1]
        self.nu_true = np.where(rho == np.arange(k + 1), 0.0, w)
        self.P = P = _integrals(w * self.Lz)  # P[j] = int_a^{t_j} Lz
        # I[j] = integral of Lz over (rho(t_j), T'], one column per component
        self.I = (P[k] - P[rho])[:, None]

    @classmethod
    def along(cls, p: Problem, x: Trajectory, T_prime: float, start: int = 1) -> "_ELCore":
        """The core of x at T' from one kernel call on rows start..k
        (``_path``); ``start`` is 0 only for the integral form on a dense
        start."""
        k = p.ts.index_of(T_prime)
        if k == 0:
            raise ProblemError(f"T_prime={T_prime!r} must lie strictly past the initial point")
        return cls(p.ts, x.values, k, _path(p, x, k, *_EL_GROUPS, start=start))

    @cached_property
    def CumLx(self) -> np.ndarray:
        """CumLx[j] = integral of Lx over (a, t_j], (k + 1, n)."""
        return _integrals(self.ts.local_steps[: self.k + 1, None] * self.Lx)

    def stationarity(self) -> np.ndarray:
        """The pointwise residual on rows 2..k (``el_report_indices``), (k - 1, n):
        row j is dJ_{T'}/dx(t_{j-1}) / w_j, from ``objective_gradient`` with
        the exact tail sums P[k] - P[j - 1]."""
        ts, k = self.ts, self.k
        live = slice(1, k + 1)
        G = objective_gradient(
            self.Lx[live], self.Lv[live], self.gx[live], self.gv[live], self.P[k] - self.P[:k],
            ts.local_steps[live], ts.rho_indices[live] < np.arange(1, k + 1),
        )
        return G[:-1] / ts.local_steps[2 : k + 1, None]

    def integral_form(self) -> np.ndarray:
        """Dubois-Reymond form array (k + 1, n): constant in t at a maximizer."""
        cum_gI = _integrals(self.ts.local_steps[: self.k + 1, None] * self.gx * self.I)
        return (cum_gI[self.k] - cum_gI) + self.gv * self.I + self.Lv - self.CumLx

    def transversality(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """T1 and T2 on ``rows``, one batched product each (per row, the ``x @ y`` dot).

        On the horizon row alone CumLx[k] is the exact column total of
        w*Lx, bit for bit the last running sum, so no running sum is taken.
        """
        X = self.values[rows][:, None, :]
        bracket = self.Lv[rows] + self.gv[rows] * (self.nu_true[rows] * self.Lz[rows])[:, None]
        if rows.start < self.k:
            cum = self.CumLx[rows]
        else:
            terms = self.ts.local_steps[1 : self.k + 1, None] * self.Lx[1:]
            cum = np.array([[math.fsum(col) for col in terms.T.tolist()]])
        return (X @ bracket[:, :, None])[:, 0, 0], (X @ cum[:, :, None])[:, 0, 0]


def el_report_indices(ts: TimeScale, k: int | None = None) -> tuple[int, ...]:
    """The rows 2..k (k default: the last row) of the pointwise residual.

    Row j reads the first-order condition in x(t_{j-1}), so each state value
    the objective truncated at t_k leaves free has one row: x(t_0) is the
    pinned start, and the condition of the free end x(t_k) T1 carries.
    """
    k = len(ts) - 1 if k is None else k
    return tuple(range(2, k + 1))


def _abs_max(a: np.ndarray) -> float:
    """max |a|, 0.0 when empty; NaN if any entry is NaN, so ``<= tol`` fails."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def _require_kappa(ts: TimeScale, t: float) -> int:
    j = ts.index_of(t)
    if j not in ts.kappa_indices:
        raise OutsideKappaError(f"{t!r} lies outside the kappa set")
    return j


def finite_horizon_el_residual(p: Problem, x: Trajectory, b: float, t: float) -> np.ndarray:
    """Euler-Lagrange residual at t for the problem truncated at horizon b."""
    return el_residual_pointwise(p, x, t, b)


def el_residual_pointwise(p: Problem, x: Trajectory, t: float, T_prime: float) -> np.ndarray:
    """Pointwise residual at t, a row of ``el_report_indices`` at T' >= t."""
    j = _require_kappa(p.ts, t)
    if not 2 <= j <= p.ts.index_of(T_prime):
        raise ProblemError(f"t={t!r} is not a pointwise row at T_prime={T_prime!r}: "
                           "rows run from the third grid point to T'")
    return _ELCore.along(p, x, T_prime).stationarity()[j - 2]


def transversality_residual_T1(p: Problem, x: Trajectory, T_prime: float) -> float:
    """x(T') . [Lv(T') + gv(T') * nu(T') * Lz(T')]."""
    core = _ELCore.along(p, x, T_prime)
    return float(core.transversality(slice(core.k, core.k + 1))[0][0])


def transversality_residual_T2(p: Problem, x: Trajectory, T_prime: float) -> float:
    """x(T') . integral of Lx over (a, T']."""
    core = _ELCore.along(p, x, T_prime)
    return float(core.transversality(slice(core.k, core.k + 1))[1][0])


def weak_max_compare(
    p: Problem,
    x_candidate: Trajectory,
    x_star: Trajectory,
    cauchy_tol: float = 1e-8,
) -> float:
    """Estimated tail margin of the candidate against x_star.

    Returns the liminf-estimate of D(T') = J_{T'}(candidate) - J_{T'}(star)
    computed with the effective (maximized) integrand; x_star passes the weak
    maximality test against this candidate when the margin is <= 0 (up to a
    caller-chosen tolerance).  Identical trajectories give exactly 0.
    """
    _check_trajectory(p, x_candidate)
    _check_trajectory(p, x_star)
    sign = -1.0 if p.sense is Sense.MIN else 1.0
    D = sign * (_running_objective(p, x_candidate) - _running_objective(p, x_star))
    seq = list(zip(p.ts.points[1:], D[1:].tolist()))
    return liminf_estimate(seq, cauchy_tol=cauchy_tol).value


# -- reporting -------------------------------------------------------------------


@dataclass
class ResidualReport:
    """First-order residuals of a trajectory at T' = t_k, as arrays over the
    rows of ``ts`` (row j sits at ``ts.points[j]``): ``el_pointwise`` (rows,
    n) at ``pointwise_rows`` (``el_report_indices(ts, k)``), the integral
    form ``el_integral`` (rows, n) at ``integral_rows`` (kappa rows up to k)
    with its max-minus-min ``el_integral_constant_spread`` (n,), and the
    pairings ``trans_T1`` and ``trans_T2`` (k,) at rows 1..k."""

    T_prime: float
    ts: TimeScale
    pointwise_rows: np.ndarray
    el_pointwise: np.ndarray
    integral_rows: np.ndarray
    el_integral: np.ndarray
    el_integral_constant_spread: np.ndarray
    trans_T1: np.ndarray
    trans_T2: np.ndarray

    @property
    def max_pointwise(self) -> float:
        return _abs_max(self.el_pointwise)

    @property
    def max_spread(self) -> float:
        return float(np.max(self.el_integral_constant_spread))

    def write_csv(self, path):
        """Rows t,T_prime,component,value,kind of each family in turn, floats as reprs."""
        T = repr(self.T_prime)
        head = [f"{t!r},{T}," for t in self.ts.points[: len(self.trans_T1) + 1]]  # "t,T_prime,"
        lines = ["t,T_prime,component,value,kind"]
        families = (self.pointwise_rows, self.el_pointwise), (self.integral_rows, self.el_integral)
        for (rows, values), kind in zip(families, ("el_pointwise", "el_integral")):
            pairs = zip(rows.tolist(), values.tolist())
            lines += [
                f"{head[j]}{c},{v!r},{kind}" for j, vec in pairs for c, v in enumerate(vec, start=1)
            ]
        lines += [
            f"{T},{T},{c},{v!r},el_integral_spread"
            for c, v in enumerate(self.el_integral_constant_spread.tolist(), start=1)
        ]
        for values, kind in ((self.trans_T1, "trans_T1"), (self.trans_T2, "trans_T2")):
            lines += [f"{head[j]}0,{v!r},{kind}" for j, v in enumerate(values.tolist(), start=1)]
        _write_csv_lines(path, lines)


def residual_report(p: Problem, x: Trajectory, T_prime: float | None = None) -> ResidualReport:
    """Evaluate all residual families at one horizon (default: the last point);
    overflow gives inf or NaN entries, without a numpy warning."""
    ts = p.ts
    if T_prime is None:
        T_prime = ts.points[-1]
    with np.errstate(all="ignore"):
        # the integral form's rows are the kappa rows: row 0 on a dense start
        core = _ELCore.along(p, x, T_prime, start=ts.kappa_indices[0])
        k = core.k
        rows_int = np.arange(ts.kappa_indices[0], k + 1)
        F = core.integral_form()[rows_int]
        spread = F.max(axis=0) - F.min(axis=0)
        t1, t2 = core.transversality(slice(1, k + 1))
        R = core.stationarity()
        return ResidualReport(float(T_prime), ts, np.arange(2, k + 1), R, rows_int, F, spread, t1, t2)


def _write_csv_lines(path, lines: list[str]) -> None:
    """The bytes ``csv.writer`` makes of these lines, whose fields need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# -- trajectory CSV ---------------------------------------------------------------


def trajectory_to_csv(x: Trajectory, path):
    """Write t,x1,...,xn rows with full-precision (round-trip exact) floats."""
    header = ",".join(["t"] + [f"x{i}" for i in range(1, x.x.dim + 1)])
    rows = [",".join(map(repr, [t, *vec])) for t, vec in zip(x.x.ts.points, x.x.values.tolist())]
    _write_csv_lines(path, [header] + rows)


def _read_grid_csv(ts: TimeScale, path, columns: list[str], what: str) -> np.ndarray:
    """The value columns (len(ts), len(columns)) of a CSV with the header
    t,columns on the grid ts, the format ``trajectory_to_csv`` writes: every
    row has as many cells as the header, one row per grid point, and the t
    column is exactly the grid's points."""
    expected = ["t", *columns]
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != expected:
            raise AdmissibilityError(f"bad {what} header {header!r}, expected {expected!r}")
        rows = []
        for row in filter(None, rd):
            if len(row) != len(expected):
                raise AdmissibilityError(f"{what} line {rd.line_num} has {len(row)} cells, "
                                         f"the header has {len(expected)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise AdmissibilityError(f"{what} line {rd.line_num}: {exc}") from None
    if len(rows) != len(ts):
        raise AdmissibilityError(f"{what} has {len(rows)} rows, grid has {len(ts)} points")
    arr = np.array(rows)
    bad = np.flatnonzero(arr[:, 0] != ts.points_array)
    if bad.size:
        raise AdmissibilityError(f"{what} row at t={float(arr[bad[0], 0])!r} does not match "
                                 f"grid point {ts.points[bad[0]]!r}")
    return arr[:, 1:]


def trajectory_from_csv(p: Problem, path) -> Trajectory:
    """Read a trajectory written by ``trajectory_to_csv`` for this problem."""
    columns = [f"x{i}" for i in range(1, p.n + 1)]
    return Trajectory.from_values(p, _read_grid_csv(p.ts, path, columns, "trajectory"))
