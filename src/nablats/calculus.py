"""Nabla derivative and nabla integral of grid functions.

Semantics on a grid with per-gap kinds:

* at a left-scattered point the nabla derivative is the exact difference
  quotient (f(t) - f(rho(t))) / nu(t);
* at a left-dense (sampled) point it is the backward difference over the
  local sampling step, an O(h) approximation;
* the nabla integral over (a, b] is the sum of local-step-weighted values,
  which is exact on all-scattered scales and a left-rectangle O(h) rule
  across sampled gaps.

Integrals are accumulated with exactly rounded summation (math.fsum) in
ascending t order, so results are bit-reproducible; ``running_fsum`` gives
every prefix of such a sum in one pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .timescale import TimeScale


class CalculusError(ValueError):
    pass


class OutsideKappaError(CalculusError):
    """Derivative requested at the excluded minimum."""


class ReversedBoundsError(CalculusError):
    """Integral bounds with a > b; callers negate explicitly."""


class GridMismatchError(CalculusError):
    """Operands live on different grids."""


class EmptyTailError(CalculusError):
    """An empty partial-integral sequence has no tail."""


@dataclass(frozen=True)
class GridFunction:
    """Values of a (possibly vector-valued) function on a time-scale grid.

    ``values`` has shape (npoints, dim).  ``min_copied`` marks derivative
    grids whose value at the excluded minimum was copied from the successor.
    """

    ts: TimeScale
    values: np.ndarray
    min_copied: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] != len(self.ts):
            raise CalculusError(
                f"values shape {arr.shape} does not match grid of {len(self.ts)} points"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_callable(cls, ts: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(ts, np.array([[float(fn(t))] for t in ts.points]))

    @classmethod
    def scalar(cls, ts: TimeScale, values) -> "GridFunction":
        return cls(ts, np.asarray(values, dtype=float).reshape(len(ts), 1))

    # -- views ----------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.ts.index_of(t)]

    def rho_values(self) -> np.ndarray:
        """Array of f(rho(t)) for every grid point t."""
        return self.values[self.ts.rho_indices]

    # -- arithmetic (same grid required) --------------------------------------

    def _check_same_grid(self, other: "GridFunction"):
        if self.ts != other.ts:
            raise GridMismatchError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.ts, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.ts, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.ts, self.values * other.values)
        return GridFunction(self.ts, self.values * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        if np.any(other.values == 0.0):
            raise CalculusError("division by a grid function with zeros")
        return GridFunction(self.ts, self.values / other.values)

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.ts, -self.values)


# -- derivative ---------------------------------------------------------------


def nabla_derivative_fn(f: GridFunction) -> GridFunction:
    """Nabla derivative as a grid function on the full grid.

    The value at the minimum is copied from its successor (the derivative is
    not defined there when the minimum is right-scattered, and equals the
    forward difference when it is right-dense); the result is flagged with
    ``min_copied=True``.
    """
    return GridFunction(f.ts, nabla_quotients(f.values, f.ts.local_steps), min_copied=True)


def nabla_quotients(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Backward difference quotients along the grid axis (-2) of ``values``.

    ``steps`` are the local steps of those grid rows; leading batch axes
    carry through.  Row 0 copies row 1, as in ``nabla_derivative_fn``.
    """
    dv = np.diff(values, axis=-2) / steps[1:, None]
    return np.concatenate((dv[..., :1, :], dv), axis=-2)


# -- integral -----------------------------------------------------------------


def running_fsum(terms) -> np.ndarray:
    """out[j] = math.fsum(terms[: j + 1]), bit for bit, in one pass; a 2-D
    ``terms`` is summed down each column.

    Every term is an integer multiple of 2**e0 (e0 <= 0, the exponent of the
    lowest last bit), so each prefix is an exact integer sum, rounded once,
    as math.fsum rounds: by ``float`` and an exact scaling by 2**e0 where
    e0 >= -1022 and every sum has fewer than 1023 bits (the result is then
    normal and finite), else by one correctly rounded division.  Special
    values, and sums that may reach a quarter of the float range (where
    math.fsum can overflow part way), take math.fsum per prefix, so they and
    OverflowError come out exactly as from math.fsum.
    """
    vals = np.asarray(terms, dtype=float)
    if vals.ndim == 2:
        out = np.empty(vals.shape)
        for c in range(vals.shape[1]):
            out[:, c] = running_fsum(vals[:, c])
        return out
    peak = float(np.max(np.abs(vals), initial=0.0))
    if not peak * len(vals) < 2.0**1021:
        seq = vals.tolist()
        return np.array([math.fsum(seq[: j + 1]) for j in range(len(seq))], dtype=float)
    if peak == 0.0:  # math.fsum of zeros is +0.0
        return np.zeros(len(vals))
    mant, exp = np.frexp(vals)  # term = int(mant * 2**53) * 2**(exp - 53), exactly
    e0 = min(int(exp.min()) - 53, 0)
    ints = (mant * 2.0**53).astype(np.int64).tolist()
    sums = list(accumulate(map(operator.lshift, ints, (exp - (53 + e0)).tolist())))
    if e0 >= -1022 and max(map(int.bit_length, sums)) < 1023:
        return np.fromiter(map(float, sums), float, len(sums)) * 2.0**e0
    scale = 1 << -e0
    return np.array([s / scale for s in sums], dtype=float)


def _integral_terms(f: GridFunction, ia: int, ib: int) -> np.ndarray:
    steps = f.ts.local_steps[ia + 1 : ib + 1, None]
    return steps * f.values[ia + 1 : ib + 1]


def nabla_integral(f: GridFunction, a: float, b: float) -> np.ndarray:
    """Nabla integral of f over (a, b]; returns a vector of shape (dim,).

    Zero when a == b.  Raises ReversedBoundsError when a > b.
    """
    ia = f.ts.index_of(a)
    ib = f.ts.index_of(b)
    if ia > ib:
        raise ReversedBoundsError(f"reversed bounds a={a!r} > b={b!r}")
    if ia == ib:
        return np.zeros(f.dim)
    terms = _integral_terms(f, ia, ib)
    return np.array([math.fsum(terms[:, c]) for c in range(f.dim)])


def local_rho_integral(f: GridFunction, t: float) -> np.ndarray:
    """nu(t) * f(t), the nabla integral of f over (rho(t), t]; zero at left-dense points."""
    ts = f.ts
    i = ts.index_of(t)
    if i not in ts.kappa_indices:
        raise OutsideKappaError(f"{t!r} lies outside the kappa set")
    return ts.nu(t) * f.values[i]


def integration_by_parts_residual(f: GridFunction, g: GridFunction, a: float, b: float) -> float:
    """| integral(f * g^nabla) - [f g] + integral(f^nabla * g_rho) | over (a, b].

    Zero to rounding on all-scattered scales; O(h) across sampled gaps.
    Vector operands are combined componentwise and the max residual returned.
    """
    f._check_same_grid(g)
    ts = f.ts
    ia, ib = ts.index_of(a), ts.index_of(b)
    if ia > ib:
        raise ReversedBoundsError(f"reversed bounds a={a!r} > b={b!r}")
    df = nabla_derivative_fn(f)
    dg = nabla_derivative_fn(g)
    g_rho = GridFunction(ts, g.rho_values())
    lhs = nabla_integral(f * dg, a, b)
    boundary = f.values[ib] * g.values[ib] - f.values[ia] * g.values[ia]
    rhs = boundary - nabla_integral(df * g_rho, a, b)
    return float(np.max(np.abs(lhs - rhs))) if f.dim else 0.0


# -- tail infima --------------------------------------------------------------


class LimInfEstimate(NamedTuple):
    value: float
    cauchy_gap: float
    converged: bool
    diverging: bool


def liminf_estimate(
    seq: Sequence[tuple[float, float]],
    cauchy_tol: float = 1e-8,
    divergence_threshold: float = 1e8,
) -> LimInfEstimate:
    """Estimate lim_{T->inf} inf_{T'>=T} value on a truncated sequence.

    The estimate is the inf over the last quarter of the sequence; the
    Cauchy gap compares it with the inf over the last half.  Divergence is
    flagged heuristically: |values| growing monotonically over the last half
    and exceeding ``divergence_threshold``.
    """
    if not seq:
        raise EmptyTailError("empty partial-integral sequence")
    vals = [v for _, v in seq]
    nq = max(1, len(vals) // 4)
    nh = max(1, len(vals) // 2)
    q = min(vals[-nq:])
    h = min(vals[-nh:])
    gap = abs(q - h)
    tail = vals[-nh:]
    growing = len(tail) >= 2 and all(
        abs(tail[k + 1]) > abs(tail[k]) for k in range(len(tail) - 1)
    )
    diverging = growing and abs(tail[-1]) > divergence_threshold
    return LimInfEstimate(q, gap, gap <= cauchy_tol, diverging)
