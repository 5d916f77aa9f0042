"""Direct maximization of truncated functionals over trajectory values.

The solver treats the state values at grid points after the start (and
before a pinned terminal point) as optimization variables and maximizes
the truncated objective by Newton's method with a backtracking line search
(Boyd and Vandenberghe, *Convex Optimization*, section 9.5).  A brute-force
enumerator over a finite value grid serves as an independent oracle on
tiny instances, and a horizon study re-solves the problem at increasing
truncations to expose the decay of the transversality residuals, each cut
certified from the derivative pass its search ended on; the cuts of a free
end share the pass at their common start.

The enumerator walks the tree of assignments by grid row, depth first in
lexicographic order, so the first maximizer wins.  Row j's term reads the
state through the values of rows j - 1 and j alone, besides z: its z-free
part is evaluated once per level on the table of those value pairs, at
most G^(2n) rows for G values per coordinate, and only the part that reads
z once per distinct prefix, sum_j G^(n j) rows, each evaluation at most
max(_BATCH, G^n) rows, each reading its table rows as one slice.  Each
prefix's z grows by one plain float addition per row, and the objective is
summed in row order: not the exact sums (``running_fsum``, ``math.fsum``)
of the search and the residuals, so a value can differ from
``evaluate_functional_partial``'s of the same assignment in its last bits.

The gradient is the exact gradient of the discretized objective,
assembled from the symbolic partials in O(m n).  Each state value enters
only the terms at its own grid point and the next one, plus the
accumulated z, so the Hessian of the discretized objective is block
tridiagonal with n x n blocks, exactly so when g = 0 or when L is affine
in z with an x-free coefficient.  Every iteration sweeps its gradient
through the factors of that band (the Newton step), so that quadratic
problems converge in one step and the stopping test reads in step units.
Block cyclic reduction factors the band in O(m n^3) work, in O(log m)
batched levels and one small dense tail, and a sweep takes the same levels;
where the negated band is not positive definite an iteration falls back to
Jacobi scaling by the band's diagonal.  Where the band is the same at every
point (``Problem.fixed_band``: a linear-quadratic problem, or g = 0 with
L_uu reading t alone) a search assembles and factors it once, at its first
iteration; otherwise once per iteration.  Where the shape makes every z
coupling of the band an exact zero (``Problem.z_coupled_band`` false: g = 0,
or L_z reading t alone) the assembly leaves the couplings out.

Every evaluation of the search is one call of the path evaluator the
residuals read (``variational._path``) on the problem's compiled kernels
(``Problem.kernel``), on grid rows 1..K, the rows the objective truncated
at t_K reads, and each iterate is evaluated once: one call gives the
objective and the derivative pass together, the first partials for the
gradient and, where the band is assembled, the second partials for it.
The start is one such call, and so is each iteration's first line-search
probe (timed, like every probe, in the ``line_search`` phase of
``SolveInfo.phase_seconds``), whose pass is the next iteration's when the
probe is accepted;
backtracked probes evaluate the objective alone, and an accepted
backtracked step gets a derivative pass of its own.  Where a joint call
meets a non-finite value the search redoes the separate calls, the
objective first, so errors come out as the objective's would.  Each call
sums z exactly (``running_fsum``) where its kernel reads it, so the last
pass is the first-order certificate of the solution
(``variational._ELCore``, handed back in ``SolveInfo.final_pass``) and
the last objective its value.  A non-finite value anywhere raises
``NonFiniteObjectiveError`` naming the first non-finite output and its t.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .expressions import ExprDomainError
from .variational import (
    Problem,
    ProblemError,
    Sense,
    Trajectory,
    _EL_GROUPS,
    _abs_max,
    _ELCore,
    _path,
    _write_csv_lines,
    objective_gradient,
)


_log = logging.getLogger("nablats")


class NonFiniteObjectiveError(ValueError):
    """The objective or its integrand became non-finite during the search."""


class EnumerationGuardError(ValueError):
    """The brute-force assignment count exceeds the enumeration guard."""


@dataclass(frozen=True)
class SolveOptions:
    """Controls for direct_solve / brute_force / horizon_study.

    ``grad_tol`` bounds the sup norm of the Newton step, the only reliable
    stopping rule when the objective carries strong discounting.
    ``gradient`` and ``precondition`` name the one search there is (the
    analytic gradient, Newton steps on the Hessian band) and accept only
    "analytic" and True: older run files spell them out.

    ``terminal`` is the end condition at ``T_trunc``: None leaves the state
    there free, and a tuple of n finite floats pins it to those values.
    """

    T_trunc: float
    terminal: Optional[tuple[float, ...]] = None
    max_iters: int = 2000
    step_init: float = 1.0
    grad_tol: float = 1e-6
    gradient: str = "analytic"
    precondition: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.step_init > 0:
            raise ValueError("step_init must be positive")
        if not math.isfinite(self.step_init):  # the first probe would leave the reals
            raise ValueError("step_init must be finite")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.gradient != "analytic":
            raise ValueError(
                f"gradient = {self.gradient!r}: the finite-difference search was removed; "
                "the gradient is always 'analytic'"
            )
        if self.precondition is not True:
            raise ValueError(
                f"precondition = {self.precondition!r}: plain gradient ascent was removed; "
                "every search takes Newton steps"
            )
        if self.terminal is not None and not self.terminal:
            raise ValueError("a pinned terminal needs at least one value")
        if self.terminal is not None and not all(map(math.isfinite, self.terminal)):
            raise ValueError("pinned terminal values must be finite")


@dataclass(frozen=True)
class SolveInfo:
    """How a solve ended; ``direct_solve`` explains each ``stop_reason``
    and when the band is factored."""

    iterations: int
    converged: bool
    grad_norm: float
    objective: float
    objective_log: tuple[float, ...]
    stop_reason: str
    fallbacks: int
    backtracks: int
    factorizations: int  # band factorizations attempted, failed ones included
    phase_seconds: dict[str, float] = field(compare=False)  # wall time in each of _PHASES
    #: the ``_EL_GROUPS`` rows (count, K) on grid rows 1..K of the derivative
    #: pass at the solution, the certificate ``horizon_study`` reads; None
    #: when the last step moved x after the last pass
    final_pass: Optional[dict[str, np.ndarray]] = field(repr=False, compare=False)


ARMIJO = 1e-4
#: kernel groups of the derivative pass: the gradient's first partials and
#: the band's second partials
_DERIVATIVE_GROUPS = ("gx", "gv", "Lz", "Lx", "Lv", "guu", "Luz", "Lzz", "Luu")
#: the timed phases of an iteration; band_solve includes the Jacobi fallback
_PHASES = ("derivatives", "gradient", "band_assembly", "band_solve", "line_search")
#: ``_band_factor`` stops cyclic reduction at this many unknowns, a dense tail
_TAIL = 64


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
        if opts.terminal is not None:
            self.last -= 1
            if len(opts.terminal) != p.n:
                raise ProblemError(f"pinned terminal needs {p.n} value(s), got {len(opts.terminal)}")
        #: the kernel groups of a derivative pass: the first and the second
        #: partials, or the first alone once the search holds a fixed band
        self.groups = _DERIVATIVE_GROUPS

    def initial_values(self) -> np.ndarray:
        ts, p, opts = self.p.ts, self.p, self.opts
        x = np.tile(p.x_a_array, (len(ts), 1)).astype(float)
        if opts.terminal is not None:
            target = np.asarray(opts.terminal)
            span = ts.points[self.K] - ts.points[0]
            frac = (ts.points_array[: self.K + 1] - ts.points[0]) / span
            x[: self.K + 1] = p.x_a_array + frac[:, None] * (target - p.x_a_array)
            x[self.K + 1 :] = target
        return x

    def along(self, x: np.ndarray, *groups: str) -> dict[str, np.ndarray]:
        """``variational._path`` along x on grid rows 1..K; a non-finite
        value raises ``NonFiniteObjectiveError``."""
        try:
            return _path(self.p, x, self.K, *groups)
        except ExprDomainError as exc:
            raise NonFiniteObjectiveError(f"{exc} during the search") from None

    def objective(self, x: np.ndarray) -> float:
        try:
            return self.total(self.along(x, "J")["J"])
        except OverflowError:
            raise NonFiniteObjectiveError("z or the objective overflows during the search") from None

    def total(self, J: np.ndarray) -> float:
        """The objective from the J rows of a path call on grid rows 1..K' >= K."""
        # correctly-rounded sums keep the line search honest: once true
        # improvements drop below one ulp of the objective, probes evaluate
        # bit-identically instead of picking up accumulation noise that
        # masquerades as a decrease
        return math.fsum(self.w[1:] * J[0, : self.K])

    def derivatives(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """One path call at x (``variational._path``): the partials of
        ``groups``, each (count, K) over grid rows 1..K, and the tail sums S
        of w*L_z from each row to K.  So the first partials are those
        ``_ELCore.along`` takes along the same values, bit for bit,
        whichever groups ride along."""
        return self.tail_sums(self.along(x, *self.groups))

    def tail_sums(self, d: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """The derivative pass ``d`` on grid rows 1..K with its tail sums S."""
        with np.errstate(all="ignore"):  # a non-finite S is diagnosed by the iteration
            d["S"] = np.cumsum((self.w[1:] * d["Lz"][0])[::-1])[::-1]
        return d

    def joint(self, x: np.ndarray, rows: Optional[dict[str, np.ndarray]] = None):
        """The objective at x and its derivative pass (``derivatives``) from
        one path call of "J" and ``groups``, or from ``rows``, such a call's
        output at x on grid rows 1..K' >= K, of which rows 1..K are read.
        None where the call or the objective's sum raises: the caller then
        redoes the separate calls, the objective first, so that the same
        error (or none) comes out as from them."""
        try:
            if rows is None:
                rows = _path(self.p, x, self.K, "J", *self.groups)
            f = self.total(rows["J"])
        except (ExprDomainError, OverflowError):
            return None
        return f, self.tail_sums({key: rows[key][:, : self.K] for key in self.groups})

    def analytic_gradient(self, d: dict[str, np.ndarray]) -> np.ndarray:
        """Exact gradient of the discretized objective over the free rows,
        from the derivative pass ``d`` at a point (``objective_gradient``
        with the tail sums S)."""
        G = objective_gradient(*(d[key].T for key in ("Lx", "Lv", "gx", "gv")), d["S"],
                               self.w[1:], self.scattered)
        return G[: self.last].ravel()

    def hessian_band(self, d: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Block-tridiagonal part of the Hessian of the discretized objective
        from the derivative pass ``d`` at a point.

        Returns the diagonal blocks (F, n, n) and the upper blocks (F - 1, n,
        n) over the free rows, exact, from the second partials, in O(K n^2).
        Term k reads u_k = (x at rho, v) and z_k; row j moves u_j by
        D0_j = [(1 - sc_j) I; I/w_j] and u_{j+1} by D1_{j+1} = [sc_{j+1} I;
        -I/w_{j+1}], sc the left-scattered flag.  So each D^T H D of term k's
        Hessian H = [[xx, xv], [vx, vv]] weighs the four n x n blocks by
        per-row scalars, in the kernel's (..., K) layout; sc (1 - sc) = 0
        drops xx between rows.  Through z, u_i and u_k (i < k) couple by the
        rank-one a_i c_k^T, with a = w*g_u, b = w*L_uz, c_k = b_k + Q_k a_k
        and the tail sums S of w*L_z and Q of w*L_zz; so the band is the
        whole Hessian when g = 0 or when L is affine in z with an x-free
        coefficient.

        Those are the shapes whose couplings are products with an exact zero
        (``Problem.z_coupled_band`` false): there the band is the D^T H D
        blocks alone, plus 0.0.  That is the coupled formula's band bit for
        bit, save that an entry it makes -0.0 (every zero added to it -0.0)
        reads +0.0, and that where a, b or Q overflow the entries read their
        true values, not the coupled formula's NaN of inf * 0.
        """
        w, n, K, S = self.w[1:], self.n, self.K, d["S"]
        coupled = self.p.z_coupled_band
        sc = self.scattered.astype(float)
        ds, iw = 1.0 - sc, 1.0 / w
        # H[:, :, k]: the Hessian of the objective in u_k alone
        H = (w * (d["Luu"] + S * d["guu"])).reshape(2 * n, 2 * n, K)
        if coupled:
            a = w * np.concatenate([d["gx"], d["gv"]])
            b = w * d["Luz"]
            Q = np.cumsum((w * d["Lzz"][0])[::-1])[::-1]
            H = H + a[:, None] * b + b[:, None] * a + Q * (a[:, None] * a)
        # its blocks, v scaled by 1/w as in D0 and D1; sums add x terms before v
        # terms, in the order of the products D^T H D
        xx, xv, vx, vv = H[:n, :n], H[:n, n:] * iw, H[n:, :n] * iw, H[n:, n:] * iw * iw
        # row j: term j through D0, term j + 1 through D1
        diag = ds * (xx + xv + vx) + vv
        diag[..., :-1] += (sc * (xx - xv - vx) + vv)[..., 1:]
        # rows j and j + 1: term j + 1 directly
        upper = (sc * xv - ds * vx - vv)[..., 1:]
        if coupled:
            # (a, c) projected on D0 and D1: a0, c0 and a1, c1
            ac = np.stack([a, b + Q * a])
            (a0, c0), (a1, c1) = ds * ac[:, :n] + iw * ac[:, n:], sc * ac[:, :n] - iw * ac[:, n:]
            c1n = np.zeros_like(c1)
            c1n[:, :-1] = c1[:, 1:]  # c1 of the next term
            # z between rows j and j + 1 on the diagonal; between them, z from
            # term j meeting term j + 1 through D0, and z from terms j and
            # j + 1 meeting term j + 2 through D1
            diag += a0[:, None] * c1n + c1n[:, None] * a0
            upper = upper + a0[:, None, :-1] * c0[:, 1:]
            upper += (a0[:, :-1] + a1[:, 1:])[:, None] * c1n[:, 1:]
        else:
            # the couplings left out are zeros: adding them makes a zero entry
            # +0.0 unless every one is -0.0, so make every zero entry +0.0
            diag += 0.0
            upper += 0.0
        F = self.last
        return diag[..., :F].transpose(2, 0, 1), upper[..., : max(F - 1, 0)].transpose(2, 0, 1)

    def non_finite(self, d, grad, direction) -> NonFiniteObjectiveError:
        """The error for an iteration whose step or slope is not finite: the
        first of S, the gradient and the step with a non-finite entry, at the
        time of its first such row."""
        for name, a, width in (
            ("the tail sum of w*L_z", d["S"], 1),
            ("the gradient", grad, self.n),
            ("the step", direction, self.n),
        ):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                t = self.p.ts.points[1 + bad[0] // width]
                return NonFiniteObjectiveError(f"{name} is non-finite at t={t!r} during the search")
        return NonFiniteObjectiveError("the ascent slope overflows during the search")

    def apply(self, x: np.ndarray, delta: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[1 : self.last + 1] = x[1 : self.last + 1] + delta.reshape(-1, self.n)
        return out


def free_coordinates(p: Problem, opts: SolveOptions) -> list[tuple[int, int]]:
    """(grid index, component) pairs the solver treats as variables."""
    return [(j, c) for j in range(1, _Engine(p, opts).last + 1) for c in range(p.n)]


def _band_factor(diag: np.ndarray, upper: np.ndarray) -> Optional[tuple]:
    """Factor the symmetric block-tridiagonal M with diagonal blocks ``diag``
    (F, n, n) and upper blocks ``upper`` (F - 1, n, n) for ``_band_sweep``:
    return the scale, per level the odd rows' pivots, their couplings up and
    down to the even rows and the pivots solved against those couplings, and
    the tail matrix; None where M is not positive definite.

    Block cyclic reduction, O(F n^3): each batched level solves the odd
    rows' pivots against their couplings, folds them into the even rows
    (Schur complements, and new upper blocks between even rows two apart)
    and recurses on the even rows until one row or at most ``_TAIL``
    unknowns remain, a tail kept as one dense matrix.  This is block
    Cholesky on the odd-even permutation of M, so M is positive definite
    exactly when every level's pivots and the tail are: one batched
    Cholesky tests the pivots, one the tail, and a singular pivot also
    returns None.  M is first scaled symmetrically by 1/sqrt(|diagonal|):
    discounted problems carry entries from 1 down to subnormals, whose
    reciprocals overflow.  A diagonal entry that is exactly 0.0 is
    factorised as 1: in the solver such a row's terms have underflowed, so
    its right-hand side is 0 too.
    """
    n = diag.shape[1]
    k = np.arange(n)
    dg = diag[:, k, k]
    s = 1.0 / np.sqrt(np.where(dg == 0.0, 1.0, np.abs(dg)))
    blocks = diag * s[:, :, None] * s[:, None, :]
    blocks[:, k, k] = np.where(dg == 0.0, 1.0, blocks[:, k, k])  # blocks[j] = M_jj, scaled
    # right[j] = M_{j,j+1}, scaled; zero past the last row
    right = np.concatenate([upper * s[:-1, :, None] * s[1:, None, :], np.zeros((1, n, n))])
    levels = []
    while len(blocks) > 1 and len(blocks) * n > _TAIL:
        h = len(blocks) // 2  # odd rows 2i + 1, each between even rows 2i and 2i + 2
        up, down = right[0 : 2 * h : 2], right[1::2]  # M_{2i,2i+1}, M_{2i+1,2i+2}
        pivots = blocks[1::2]
        try:  # X[i] = C_i^{-1} [M_{2i+1,2i} | M_{2i+1,2i+2}], C_i the pivot
            X = np.linalg.solve(pivots, np.concatenate([up.transpose(0, 2, 1), down], 2))
        except np.linalg.LinAlgError:
            return None
        levels.append((pivots, up, down, X[:, :, :n], X[:, :, n:]))
        # Schur complements of the even rows: through row 2i + 1, then row 2i - 1
        even = blocks[0::2].copy()
        P = up @ X
        even[:h] -= P[:, :, :n]
        even[1:] -= (down.transpose(0, 2, 1) @ X[:, :, n:])[: len(even) - 1]
        right = np.zeros((len(even), n, n))
        right[:h] = -P[:, :, n:]  # -M_{2i,2i+1} C_i^{-1} M_{2i+1,2i+2}
        blocks = even
    E, i = len(blocks), np.arange(len(blocks))
    tail = np.zeros((E, n, E, n))  # tail[a, :, b] = M_ab over the remaining rows
    tail[i, :, i] = blocks
    tail[i[:-1], :, i[1:]] = right[: E - 1]
    tail[i[1:], :, i[:-1]] = right[: E - 1].transpose(0, 2, 1)
    tail = tail.reshape(E * n, E * n)
    try:
        if levels:
            np.linalg.cholesky(np.concatenate([C for C, *_ in levels]))
        np.linalg.cholesky(tail)
    except np.linalg.LinAlgError:
        return None
    return s, levels, tail


def _band_sweep(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve M d = rhs (F, n) with the factors ``_band_factor`` made of M:
    per level one batched pivot solve y = C^{-1} rhs_{2i+1} for the odd
    rows, folded into the even rows; one dense tail solve; then, level by
    level, last first, odd row 2i + 1 is y_i - lo_i d_2i - hi_i d_{2i+2}
    with (lo, hi) = C^{-1} (M_{2i+1,2i}, M_{2i+1,2i+2}).  Returns (F, n)."""
    s, levels, tail = factors
    n = rhs.shape[1]
    r = (rhs * s)[:, :, None]
    solved = []
    for pivots, up, down, _, _ in levels:
        y = np.linalg.solve(pivots, r[1::2])
        solved.append(y)
        even = r[0::2].copy()
        even[: len(y)] -= up @ y
        even[1:] -= (down.transpose(0, 2, 1) @ y)[: len(even) - 1]
        r = even
    d = np.linalg.solve(tail, r.reshape(-1, 1)).reshape(-1, n, 1)
    for (*_, lo, hi), y in zip(reversed(levels), reversed(solved)):
        h = len(y)
        ahead = np.concatenate([d[1:], np.zeros((1, n, 1))])[:h]  # zero past the last row
        full = np.empty((len(d) + h, n, 1))
        full[0::2], full[1::2] = d, y - lo @ d[:h] - hi @ ahead
        d = full
    return d[:, :, 0] * s


def direct_solve(p: Problem, opts: SolveOptions, with_info: bool = False, *, _start=None):
    """Newton ascent on the truncated objective over free state values.

    Starts from the constant initial state (or the linear interpolant to
    a pinned terminal) and steps along the Newton step of the Hessian band
    (``_Engine.hessian_band``), the gradient swept through the band's
    factors (``_band_factor``, ``_band_sweep``), with Armijo backtracking
    from ``step_init``; when the negated band is not positive definite that
    iteration takes the Jacobi step, the gradient over max(|band diagonal|,
    1e-30), and counts it in ``SolveInfo.fallbacks``.  A fixed band
    (``Problem.fixed_band``) is assembled and factored at the first
    iteration only, and later derivative passes evaluate the first partials
    alone; when that factorization fails every iteration takes the Jacobi
    step by its diagonal.  ``SolveInfo.factorizations`` counts the
    factorizations attempted: 1 for a fixed band, else one per iteration.
    Values beyond the truncation point are frozen; they never enter the
    truncated objective.  Accepted steps never decrease the objective.
    ``SolveInfo.stop_reason`` says why the search ended: ``grad_tol`` (the
    sup norm of the step fell below ``grad_tol``; the only converged case),
    ``flat`` (50 accepted steps in a row left the objective unchanged),
    ``no_progress`` (no step size passed the Armijo test, or the accepted
    step changed nothing) or ``max_iters``.  A non-finite tail sum,
    gradient or step raises ``NonFiniteObjectiveError``.

    Each iterate is evaluated once (``_Engine.joint``): the start's
    objective and derivative pass come from one call, and so do each
    iteration's first probe's, at ``step_init``, whose pass the next
    iteration takes when the probe is accepted; backtracked probes evaluate
    the objective alone.  ``SolveInfo.phase_seconds`` books the start's
    call in ``derivatives`` and every probe, joint or not, in
    ``line_search``.  ``horizon_study`` hands each cut of a free end the
    joint call at their common start as ``_start``, its output on grid rows
    1..K' >= K.

    ``SolveInfo.objective`` is the search's own objective at the solution,
    read as the literal integral of L: bit for bit
    ``evaluate_functional_partial``; ``SolveInfo.final_pass`` holds the
    first partials of the derivative pass at the solution, or None when the
    last step (a ``flat`` or ``max_iters`` stop after a backtracked step)
    moved x after it.
    """
    eng = _Engine(p, opts)
    x = eng.initial_values()
    phases = dict.fromkeys(_PHASES, 0.0)
    clock = time.perf_counter()
    f, d = eng.joint(x, _start) or (eng.objective(x), None)  # d: the pass at x, if made
    _lap(phases, "derivatives", clock)
    log = [f]
    crit = math.inf
    iterations = fallbacks = backtracks = factorizations = 0
    diag = factors = None  # the band and its factors, once assembled
    stop = "max_iters"
    flat = 0  # consecutive accepted steps with no representable objective change
    for it in range(opts.max_iters):
        iterations = it + 1
        clock = time.perf_counter()
        with np.errstate(all="ignore"):  # a non-finite pass is diagnosed below
            if d is None:
                d = eng.derivatives(x)
            clock = _lap(phases, "derivatives", clock)
            grad = eng.analytic_gradient(d)
            clock = _lap(phases, "gradient", clock)
            if diag is None or not p.fixed_band:  # a fixed band stays the first one
                diag, upper = eng.hessian_band(d)
                if p.fixed_band:  # so later passes need the first partials only
                    eng.groups = _EL_GROUPS
                clock = _lap(phases, "band_assembly", clock)
                factorizations += 1
                factors = _band_factor(-diag, -upper)
            if factors is None:
                fallbacks += 1
                _log.debug("direct_solve: iteration %d falls back to the Jacobi step", iterations)
                curv = np.abs(np.diagonal(diag, axis1=1, axis2=2)).ravel()
                direction = grad / np.maximum(curv, 1e-30)
            else:
                direction = _band_sweep(factors, grad.reshape(-1, eng.n)).ravel()
            slope = float(np.dot(grad, direction))
        clock = _lap(phases, "band_solve", clock)
        crit = float(np.max(np.abs(direction))) if len(direction) else 0.0
        if not (math.isfinite(crit) and math.isfinite(slope)):
            raise eng.non_finite(d, grad, direction)
        if crit <= opts.grad_tol:
            stop = "grad_tol"
            break
        alpha = opts.step_init
        accepted = False
        for tries in range(80):
            xt = eng.apply(x, alpha * direction)
            # the first probe carries the derivative pass at its point
            probe = eng.joint(xt) if tries == 0 else None
            ft, dt = probe or (eng.objective(xt), None)
            if ft >= f + ARMIJO * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
            backtracks += 1
        _lap(phases, "line_search", clock)
        if not accepted or (ft == f and np.array_equal(xt, x)):
            stop = "no_progress"
            break
        # zero-change steps can still tighten the iterate, but a long run of
        # them means the objective has hit float resolution; stop crawling
        flat = flat + 1 if ft == f else 0
        x, f, d = xt, ft, dt
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
        # the literal objective; 0.0 - f keeps a zero sum +0.0, as math.fsum gives it
        objective=f if p.sense is Sense.MAX else 0.0 - f,
        objective_log=tuple(log),
        stop_reason=stop,
        fallbacks=fallbacks,
        backtracks=backtracks,
        factorizations=factorizations,
        phase_seconds=phases,
        # copies, so a kept row does not hold the whole pass's kernel output
        final_pass=None if d is None else {key: d[key].copy() for key in _EL_GROUPS},
    )
    return traj, info


def _lap(phases: dict[str, float], phase: str, since: float) -> float:
    """Add the time since ``since`` to ``phase``; return the time now."""
    phases[phase] += (now := time.perf_counter()) - since
    return now


# -- brute force oracle -----------------------------------------------------


GUARD = 10**7
#: rows per block of the brute-force oracle; on a 2-vCPU x86_64 host a 9^6
#: search took 5.3, 4.4, 4.1 and 6.7 ms at 4096, 8192, 16384 and 24576
_BATCH = 8192


def brute_force(p: Problem, opts: SolveOptions, value_grid) -> Trajectory:
    """Exhaustive argmax of the truncated objective over a value grid.

    Every free coordinate independently ranges over the sorted distinct
    values of ``value_grid`` (-0.0 counts as 0.0; a NaN raises
    ``ValueError``, as an empty grid does); assignments are enumerated in
    lexicographic order and the first maximizer wins, which makes the
    result invariant under permutation of the input grid.  Guarded to at
    most 10^7 assignments; a non-finite objective ranks below every finite
    one.

    Row j's term reads the state only through the pair (row j - 1, row j)
    and z, so at each level j the z-free part of the term (``Kernel.table``)
    is evaluated once on the table of value pairs: 1 x G^n at j = 1, G^n x
    G^n up to the last free row and G^n x 1 at a pinned K, in blocks by row
    j - 1 of at most max(``_BATCH``, G^n) pairs.  At levels 1 and 2, where
    each value of row j - 1 starts one prefix, each block of prefixes
    tabulates its own pairs, so no table outlives its block.  Level j of the
    prefix tree extends each prefix, which carries only its z and partial
    objective, by row j's values: z and the objective grow as (prefix,
    value) blocks, and only the ops that read z run on them
    (``Kernel.gather``), sum_j G^(n min(j, last)) rows in all.  Blocks of at
    most max(``_BATCH``, G^n) go depth first in lexicographic order; each
    holds whole cycles of row j - 1's values or lies within one, so it reads
    its table rows as one slice.  z adds each row's term to its prefix's z
    with one float addition, and the objective is summed in row order, not
    exactly as ``evaluate_functional_partial`` sums them (``running_fsum``,
    ``math.fsum``); non-finite objectives are masked only where a block's
    winner is NaN or +inf.
    """
    eng = _Engine(p, opts)
    grid = np.array(sorted({float(v) + 0.0 for v in value_grid}))  # + 0.0 makes -0.0 +0.0
    if grid.size == 0 or np.isnan(grid).any():
        raise ValueError("value_grid must be nonempty and hold no NaN")
    G, F = grid.size, eng.last * eng.n
    total = G**F
    if total > GUARD:
        raise EnumerationGuardError(
            f"{G}^{F} = {total} assignments exceed the enumeration guard of {GUARD}"
        )
    best_id = _best_assignment(eng, grid)[1]
    if best_id < 0:
        raise NonFiniteObjectiveError("every enumerated assignment gave a non-finite objective")
    full = eng.initial_values()
    full[1 : eng.last + 1] = grid[best_id // G ** np.arange(F - 1, -1, -1) % G].reshape(-1, eng.n)
    return Trajectory.from_values(p, full)


def _best_assignment(eng: _Engine, grid: np.ndarray) -> tuple[float, int]:
    """The largest finite objective over the assignments of ``grid`` values
    to the free coordinates, and the lexicographic id of its first
    maximizer: ``brute_force``'s enumeration; (-inf, -1) if none is finite.
    """
    ts, n, K, w = eng.p.ts, eng.n, eng.K, eng.w
    kernel, base, G = eng.p.kernel("J"), eng.initial_values(), grid.size
    # the values of each grid row by code: a free row's G^n in lexicographic
    # order, or the one value of the start or a pinned row
    free = grid[np.indices((G,) * n).reshape(n, -1).T]
    rows = [free if 1 <= j <= eng.last else base[j : j + 1] for j in range(K + 1)]
    cap = max(_BATCH, G**n)

    def table(j, prev):
        """w_j g and the z-free values of row j's term on the pairs of the
        values ``prev`` of row j - 1 and those of row j."""
        g, kept = kernel.table(_pair_envs(ts, j, prev, rows[j], max(1, cap // len(rows[j]))))
        return w[j] * g[0], kept

    best_val, best_id = -math.inf, -1
    with np.errstate(all="ignore"):  # overflow scores -inf
        tables = {j: table(j, rows[j - 1]) for j in range(3, K + 1)}
        # blocks of consecutive prefixes of rows 1..j - 1: (j, the first
        # one's id, z, partial objective); a prefix's row j - 1 is its id
        # modulo that row's count of values; a block's (m, r) prefixes have
        # codes c0..c0 + r - 1 m times: whole cycles (c0 = 0) or part of one
        stack = [(1, 0, np.zeros(1), np.zeros(1))]
        while stack:
            j, first, z, J = stack.pop()
            c0 = first % len(rows[j - 1])
            r = min(len(J), len(rows[j - 1]) - c0)
            z, J = z.reshape(-1, r), J.reshape(-1, r)
            if j <= 2:  # each value of row j - 1 starts one prefix: tabulate the block's
                (wg, kept), cut = table(j, rows[j - 1][c0 : c0 + r]), slice(None)
            else:
                (wg, kept), cut = tables[j], slice(c0, c0 + r)
            z = wg[None, cut] if j == 1 else z[..., None] + wg[cut]
            J = J[..., None] + w[j] * kernel.gather(kept, cut, z)[0]
            first *= wg.shape[1]  # the id of the first extension
            if j == K:
                J = J.ravel()
                k = int(np.argmax(J))  # the first NaN or +inf, if any
                if not J[k] < math.inf:
                    J = np.where(np.isfinite(J), J, -math.inf)
                    k = int(np.argmax(J))
                if J[k] > best_val:
                    best_val, best_id = float(J[k]), first + k
                continue
            z, J = z.ravel(), J.ravel()
            R, fit = len(rows[j]), cap // len(rows[j + 1])
            span = max(R, fit - fit % R)  # whole cycles of row j's codes, or one cut every fit
            for c in reversed(range(0, len(J), span)):
                for s in reversed(range(c, min(c + span, len(J)), fit)):
                    e = min(s + fit, c + span)
                    stack.append((j + 1, first + s, z[s:e], J[s:e]))
    return best_val, best_id


def _pair_envs(ts, j: int, prev: np.ndarray, cur: np.ndarray, block: int):
    """Envs of grid row j, as ``path_env`` reads it, on every pair of a
    value of row j - 1 in ``prev`` (A, n) and of row j in ``cur`` (B, n):
    blocks of ``block`` values of ``prev``, each (block, B)."""
    for s in range(0, len(prev), block):
        a = prev[s : s + block, None]
        shape = (len(a), len(cur))
        v = (cur - a) / ts.local_steps[j]
        x = a if ts.rho_indices[j] < j else cur[None]
        env = {"t": ts.points_array[j : j + 1]}
        for i in range(prev.shape[1]):
            env[f"x{i + 1}"], env[f"v{i + 1}"] = np.broadcast_to(x[..., i], shape), v[..., i]
        yield env


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
    Euler-Lagrange residual over reported points up to the truncation
    (NaN when any of them is NaN, as ``ResidualReport.max_pointwise``) and
    both transversality residual magnitudes at the truncation, from the
    residual core (``variational._ELCore``) of the derivative pass the
    search ended on, and the literal objective value the search found.
    These are bit for bit what ``residual_report`` and
    ``evaluate_functional_partial`` give for the solution, and like the
    truncated objective they read grid rows up to the truncation only.
    Transversality is a free-endpoint condition, so rows solved with a
    pinned terminal carry ``trans_applicable=False``.

    Every cut of a free end starts from the same values, so two or more
    such cuts share their start: one path call of the objective and the
    derivative groups at those values on the last cut's rows
    (``_shared_start``), booked in no cut's ``phase_seconds``, of which each
    cut's ``_Engine.joint`` reads its own rows, the same bits as its own
    start.  Where that call raises, each cut makes its own start.  A pinned
    end's start interpolates to each cut's terminal, so each cut makes its
    own.  Every cut then runs its own search (``direct_solve``), whose
    joint first probes, like all its probes, are booked in its
    ``line_search`` phase, and the rows and each ``SolveInfo`` are those of
    a ``direct_solve`` at that cut, bit for bit, ``phase_seconds`` aside.
    """
    cuts = [float(T) for T in truncations]
    if sorted(cuts) != cuts or len(set(cuts)) != len(cuts):
        raise ProblemError("truncations must be strictly increasing")
    start = _shared_start(p, cuts, opts)
    rows = []
    for T in cuts:
        o = replace(opts, T_trunc=T)
        x, info = direct_solve(p, o, with_info=True, _start=start)
        K = p.ts.index_of(T)
        with np.errstate(all="ignore"):  # overflow gives inf or NaN, as in residual_report
            # one more pass only when the last step moved x after the last one
            d = _Engine(p, o).derivatives(x.values) if info.final_pass is None else info.final_pass
            core = _ELCore(p.ts, x.values, K, d)
            reported = core.stationarity()
            t1, t2 = core.transversality(slice(core.k, core.k + 1))
        rows.append(
            HorizonRow(
                T_trunc=T,
                max_el_residual=_abs_max(reported),
                trans_T1=abs(float(t1[0])),
                trans_T2=abs(float(t2[0])),
                trans_applicable=o.terminal is None,
                solution=x,
                info=info,
            )
        )
    return rows


def _shared_start(p: Problem, cuts: list[float], opts: SolveOptions) -> Optional[dict]:
    """The path call at the start every cut of a free end shares, on the
    last cut's rows: the kernel rows of "J" and the derivative groups.  None
    for a pinned end, for fewer than two cuts, where the call raises, and
    where the last cut is not a grid row past the start, so that the cuts'
    own solves raise what they raise, in order."""
    last = cuts[-1]
    if opts.terminal is not None or len(cuts) < 2:
        return None
    if last not in p.ts or p.ts.index_of(last) < 1:
        return None
    eng = _Engine(p, replace(opts, T_trunc=last))
    try:
        return _path(p, eng.initial_values(), eng.K, "J", *eng.groups)
    except (ExprDomainError, OverflowError):
        return None


def horizon_table_to_csv(rows: list[HorizonRow], path) -> None:
    lines = ["T_trunc,max_el_residual,trans_T1,trans_T2,objective,trans_applicable"]
    lines += [
        f"{r.T_trunc!r},{r.max_el_residual!r},{r.trans_T1!r},{r.trans_T2!r},{r.objective!r},"
        + ("true" if r.trans_applicable else "false")
        for r in rows
    ]
    _write_csv_lines(path, lines)
