"""Constructive witnesses that a grid function is not identically zero.

Given a scalar grid function ``g``, this module builds an admissible
variation ``eta`` (vanishing at both ends of the grid) whose pairing

    integral of  g(t) * eta(rho(t))  over the support

is strictly positive.  The existence of such a variation certifies that
``g`` does not vanish on the detectable part of the grid; conversely,
when every admissible variation pairs to zero the function is declared
trivial.  A corollary-style check concludes that a function is constant
when its nabla derivative admits no such witness.  Every function here
works on the grid its grid-function argument lives on; there is no
separate time-scale argument.

Detectability caveat: the pairing never sees ``g`` at the grid minimum,
nor at the successor of a left-scattered minimum (its only coefficient
is eta at the minimum, which is pinned to zero), nor at a left-dense
maximum.  ``construct_violating_variation`` therefore scans only points
whose value actually couples to a free eta coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .calculus import GridFunction, GridMismatchError, nabla_derivative_fn
from .timescale import GapKind, TimeScale
from .variational import AdmissibilityError


class CaseTag(Enum):
    """Geometry of the constructed variation."""

    LEFT_DENSE_BUMP = "left_dense_bump"
    SCATTERED_SPIKE = "scattered_spike"
    RHO_DENSE_BUMP = "rho_dense_bump"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class Variation:
    """An admissible variation certifying a nonzero pairing.

    ``eta`` vanishes at the grid minimum and maximum and outside
    ``support``; ``t0`` is the scanned point whose value triggered the
    construction; ``value`` is the pairing ``witness_value`` gave it.
    """

    eta: GridFunction
    support: tuple[float, float]
    case_tag: CaseTag
    t0: float
    value: float


class DuboisReymondResult(NamedTuple):
    is_constant: bool
    spread: float
    variation: Optional[Variation]


def default_tolerance(g: GridFunction) -> float:
    """Threshold below which a value of ``g`` is treated as zero.

    Scattered grids carry exact arithmetic, so an absolute 1e-10 floor
    suffices; grids with dense-sample gaps use a scale-relative cutoff.
    """
    if g.ts.all_scattered:
        return 1e-10
    mag = float(np.max(np.abs(g.values))) if g.values.size else 0.0
    return max(1e-10, 1e-6 * mag)


def _require_scalar(g: GridFunction) -> np.ndarray:
    if g.values.shape[1] != 1:
        raise ValueError("a scalar grid function is required")
    if not np.all(np.isfinite(g.values)):
        raise AdmissibilityError("function contains non-finite values")
    return g.values[:, 0]


def witness_value(g: GridFunction, eta: GridFunction) -> float:
    """Pair ``g`` against ``eta`` composed with rho over eta's support.

    Computes the nabla integral of ``t -> g(t) * eta(rho(t))`` on g's grid;
    ``eta`` must live on the same grid, points and gap kinds alike, else
    GridMismatchError.  The integration window is the smallest gap-aligned
    interval containing every nonzero value of ``eta``, so a spike variation
    reduces to the single local term nu(t0) * g(t0) * eta(rho(t0)).  A
    pairing past the largest float raises OverflowError, without a numpy
    warning.
    """
    _require_scalar(g)
    if eta.ts != g.ts:
        raise GridMismatchError("eta does not live on the same grid as g")
    ev = _require_scalar(eta)
    ts = g.ts
    nonzero = np.nonzero(ev)[0]
    if nonzero.size == 0:
        return 0.0
    lo_idx = max(int(nonzero[0]) - 1, 0)
    hi_idx = int(nonzero[-1])
    # eta at index p couples to the value at p+1 across a scattered gap
    if hi_idx < len(ts) - 1 and ts.gap_kinds[hi_idx] is GapKind.SCATTERED:
        hi_idx += 1
    if not lo_idx < hi_idx:
        return 0.0
    # the terms of nabla_integral over (lo, hi] of g * eta(rho), and no others
    window = slice(lo_idx + 1, hi_idx + 1)
    with np.errstate(over="ignore"):
        terms = ts.local_steps[window] * (g.values[window, 0] * ev[ts.rho_indices[window]])
    if not np.all(np.isfinite(terms)):
        raise OverflowError("a term of the pairing is past the largest float")
    return math.fsum(terms.tolist())  # a sum past it raises OverflowError too


def _dense_bump_values(
    vals: np.ndarray, ts: TimeScale, end: int, s: float
) -> Optional[tuple[np.ndarray, tuple[float, float]]]:
    """Parabolic bump on a dense run ending at index ``end``.

    The window [k, end] grows leftward through dense gaps while the
    newly interior value keeps the sign ``s`` strictly; eta vanishes at
    both window edges, so nothing couples across the jump that may
    follow ``end``.
    """
    pts = ts.points_array
    k = end - 1
    while k > 0 and ts.gap_kinds[k - 1] is GapKind.DENSE_SAMPLE and vals[k] * s > 0.0:
        k -= 1
    if k > end - 2:
        return None
    eta = np.zeros(len(ts))
    interior = np.arange(k + 1, end)
    eta[interior] = s * (pts[end] - pts[interior]) * (pts[interior] - pts[k])
    return eta, (float(pts[k]), float(pts[end]))


def construct_violating_variation(g: GridFunction, tol: Optional[float] = None) -> Optional[Variation]:
    """Build an admissible variation on g's grid with a strictly positive pairing.

    Scans detectable points in order of decreasing magnitude and applies
    the construction matching the local geometry:

    * left-dense point: parabolic bump ``s*(t0 - t)(t - t1)`` over the
      sign-keeping dense window ending at the point;
    * left-scattered point with left-scattered predecessor: spike
      ``eta(rho(t0)) = g(t0)``, whose pairing is exactly
      ``g(t0)^2 * nu(t0)``;
    * left-scattered point with left-dense predecessor: bump ending at
      the predecessor when its value is above tolerance, otherwise a
      minimal bridge ramping from zero to ``g(t0)`` at the predecessor.

    Every construction is validated numerically before being returned;
    candidates whose construction fails (for example a sign flip right
    next to the point) are skipped.  Returns None when no detectable
    value exceeds the tolerance or no construction validates, and raises
    OverflowError naming t0 when a pairing is past the largest float.  ``tol``,
    by default ``default_tolerance``, is a finite number >= 0, else
    ValueError.
    """
    ts = g.ts
    vals = _require_scalar(g)
    if tol is None:
        tol = default_tolerance(g)
    elif not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance {tol!r} is not a finite number >= 0")
    mag = np.abs(vals)
    candidates = np.flatnonzero(mag[1:] > tol) + 1
    if ts.gap_kinds[0] is GapKind.SCATTERED:
        # t_1's only coefficient is eta at the minimum, pinned to 0
        candidates = candidates[candidates >= 2]
    # by decreasing magnitude, then by index
    candidates = candidates[np.lexsort((candidates, -mag[candidates]))]

    pts = ts.points_array
    for j in candidates.tolist():
        for eta_values, support, tag in _constructions(vals, ts, j, tol):
            eta = GridFunction(ts, eta_values[:, None])
            try:
                value = witness_value(g, eta)
            except OverflowError:
                raise OverflowError(
                    f"the witness pairing at t0={float(pts[j])!r} is past the largest float"
                ) from None
            if value > 0.0:
                return Variation(eta=eta, support=support, case_tag=tag, t0=float(pts[j]), value=value)
    return None


def _constructions(vals: np.ndarray, ts: TimeScale, j: int, tol: float):
    """The (eta values, support, case tag) to try at candidate ``j``, in order."""
    pts = ts.points_array
    if ts.gap_kinds[j - 1] is GapKind.DENSE_SAMPLE:
        built = _dense_bump_values(vals, ts, j, 1.0 if vals[j] > 0 else -1.0)
        if built is not None:
            yield *built, CaseTag.LEFT_DENSE_BUMP
        return
    # left-scattered candidate (so j >= 2): eta(rho(t0)) = g(t0)
    spike = np.zeros(len(ts))
    spike[j - 1] = vals[j]
    if ts.gap_kinds[j - 2] is GapKind.SCATTERED:
        yield spike, (float(pts[j - 1]), float(pts[j])), CaseTag.SCATTERED_SPIKE
        return
    # predecessor is left-dense: prefer a bump ending at it
    if abs(vals[j - 1]) > tol:
        built = _dense_bump_values(vals, ts, j - 1, 1.0 if vals[j - 1] > 0 else -1.0)
        if built is not None:
            yield *built, CaseTag.RHO_DENSE_BUMP
    # minimal bridge: ramp from zero at the prior point to g(t0) at rho(t0)
    yield spike, (float(pts[j - 2]), float(pts[j])), CaseTag.BRIDGE


def dubois_reymond_check(h: GridFunction, tol: Optional[float] = None) -> DuboisReymondResult:
    """Decide whether ``h`` is constant by probing its nabla derivative.

    Computes the derivative on h's whole grid and attempts to construct a
    violating variation against it; ``is_constant`` is True exactly when no
    witness exists.  ``spread`` reports max(h) - min(h) as a direct measure
    of non-constancy.  ``tol`` is that of ``construct_violating_variation``.
    """
    hv = _require_scalar(h)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.max(hv) - np.min(hv))
        deriv = nabla_derivative_fn(h)
    bad = np.flatnonzero(~np.isfinite(deriv.values[1:, 0]))  # row 0 copies row 1
    if bad.size:  # a finite h whose quotients overflow
        raise AdmissibilityError(f"the nabla derivative is non-finite at t={h.ts.points[1 + bad[0]]!r}")
    variation = construct_violating_variation(deriv, tol=tol)
    return DuboisReymondResult(is_constant=variation is None, spread=spread, variation=variation)
