"""Finite time-scale grids: the backward jump, graininess and the kappa set.

A grid is a strictly increasing tuple of real points together with a *kind*
for each adjacent gap:

* ``SCATTERED``   -- the gap is a true hole of the scale (the two points are
  consecutive members, nothing lies between them);
* ``DENSE_SAMPLE`` -- the gap is a sampling step inside a continuum interval
  that belongs to the scale but is represented only through its samples.

All point lookups compare floats exactly; no snapping is performed.  The
backward jump at the minimum follows the standard boundary convention
rho(t_0) = t_0, so the minimum is left-dense by convention.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np


class TimeScaleError(ValueError):
    """Invalid grid construction or grid use."""


class PointNotInScaleError(TimeScaleError):
    """A queried point is not a member of the grid (exact float comparison)."""


class GapKind(enum.Enum):
    SCATTERED = "scattered"
    DENSE_SAMPLE = "dense_sample"


@dataclass(frozen=True)
class TimeScale:
    """A finite, strictly increasing grid with per-gap kinds; ``points_array``
    holds the points as a read-only float array."""

    points: tuple[float, ...]
    gap_kinds: tuple[GapKind, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise TimeScaleError("a time scale grid needs at least 2 points")
        if len(self.gap_kinds) != len(self.points) - 1:
            raise TimeScaleError(
                f"expected {len(self.points) - 1} gap kinds, got {len(self.gap_kinds)}"
            )
        # one pass per check; the first offender is looked up for the message
        arr = np.array(self.points, dtype=float)
        finite, rising = np.isfinite(arr), arr[1:] > arr[:-1]
        if not finite.all():
            raise TimeScaleError(f"non-finite grid point {self.points[finite.argmin()]!r}")
        if not rising.all():
            a, b = self.points[rising.argmin():][:2]
            raise TimeScaleError(f"grid points must increase strictly ({a!r} !< {b!r})")
        if not all(map(isinstance, self.gap_kinds, repeat(GapKind))):
            k = next(k for k in self.gap_kinds if not isinstance(k, GapKind))
            raise TimeScaleError(f"bad gap kind {k!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "points_array", arr)

    # -- cached views -------------------------------------------------------

    @cached_property
    def _index(self) -> dict[float, int]:
        return {t: i for i, t in enumerate(self.points)}

    @cached_property
    def local_steps(self) -> np.ndarray:
        """step[i] = t_i - t_{i-1} for i >= 1; step[0] = 0 by convention."""
        arr = np.diff(self.points_array, prepend=self.points[0])
        arr.setflags(write=False)
        return arr

    @cached_property
    def rho_indices(self) -> np.ndarray:
        """rho_indices[i] = index of rho(points[i]): i - 1 after a scattered gap, else i."""
        arr = np.arange(len(self.points))
        arr[1:] -= np.fromiter(map(operator.is_, self.gap_kinds, repeat(GapKind.SCATTERED)), bool)
        arr.setflags(write=False)
        return arr

    @cached_property
    def kappa_indices(self) -> tuple[int, ...]:
        """Indices of the points where the nabla derivative is defined: all
        but the minimum exactly when the minimum is right-scattered."""
        if self.gap_kinds[0] is GapKind.SCATTERED:
            return tuple(range(1, len(self.points)))
        return tuple(range(len(self.points)))

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, t: float) -> int:
        try:
            return self._index[float(t)]
        except KeyError:
            raise PointNotInScaleError(f"{t!r} is not a grid point") from None

    def __contains__(self, t: float) -> bool:
        return float(t) in self._index

    # -- jump operators and graininess --------------------------------------

    def rho(self, t: float) -> float:
        """Backward jump; rho(min) = min, rho(t) = t at left-dense points."""
        return self.points[self.rho_indices[self.index_of(t)]]

    def nu(self, t: float) -> float:
        """Backward graininess nu(t) = t - rho(t)."""
        i = self.index_of(t)
        return self.points[i] - self.points[self.rho_indices[i]]

    @property
    def all_scattered(self) -> bool:
        return GapKind.DENSE_SAMPLE not in self.gap_kinds


# -- builders ---------------------------------------------------------------

#: the most points a builder makes; it refuses a larger grid before building it
MAX_POINTS = 10**6


def _check_finite(builder: str, *args: float) -> None:
    # abs(v) < inf compares an int exactly, however large, and is False for nan
    if not all(abs(v) < math.inf for v in args):
        raise TimeScaleError(f"{builder}({', '.join(map(str, args))}): every argument must be a finite number")


def _check_count(builder: str, count: int | float) -> None:
    if count > MAX_POINTS:
        shown = f"{count:.6g}" if isinstance(count, float) else count
        raise TimeScaleError(f"{builder}: {shown} points, more than the limit of {MAX_POINTS}")


def integers(a: int, b: int) -> TimeScale:
    """The integer scale {a, a+1, ..., b}."""
    _check_finite("integers", a, b)
    a, b = int(a), int(b)
    if b <= a:
        raise TimeScaleError(f"integers({a}, {b}): need b > a")
    _check_count(f"integers({a}, {b})", b - a + 1)
    pts = tuple(map(float, range(a, b + 1)))
    return TimeScale(pts, (GapKind.SCATTERED,) * (len(pts) - 1))


def uniform(a: float, b: float, h: float) -> TimeScale:
    """The uniform discrete scale a, a+h, ..., b (all gaps scattered).

    h must divide b - a to float tolerance; the last point is set to b
    exactly.
    """
    _check_finite("uniform", a, b, h)
    if h <= 0:
        raise TimeScaleError("uniform: step h must be positive")
    _check_count(f"uniform({a}, {b}, {h})", (b - a) / h + 1)
    k = round((b - a) / h)
    if k < 1 or abs(a + k * h - b) > 1e-12 * max(1.0, abs(a), abs(b)):
        raise TimeScaleError(f"uniform({a}, {b}, {h}): step does not divide the span")
    pts = tuple(a + i * h for i in range(k)) + (float(b),)
    return TimeScale(pts, (GapKind.SCATTERED,) * k)


def sampled_interval(a: float, b: float, n: int) -> TimeScale:
    """A continuum interval [a, b] represented by n sampling steps.

    Returns n + 1 points with DENSE_SAMPLE gaps; the last point is b exactly.
    """
    _check_finite("sampled_interval", a, b, n)
    n = int(n)
    if n < 1:
        raise TimeScaleError("sampled_interval: need at least one step")
    if not b > a:
        raise TimeScaleError(f"sampled_interval({a}, {b}): need b > a")
    _check_count(f"sampled_interval({a}, {b}, {n})", n + 1)
    pts = tuple(a + (b - a) * i / n for i in range(n)) + (float(b),)
    return TimeScale(pts, (GapKind.DENSE_SAMPLE,) * n)


def q_scale(q: float, t0: float, count: int) -> TimeScale:
    """The geometric scale {t0 * q**i : i = 0..count-1} for q > 1, t0 > 0."""
    _check_finite("q_scale", q, t0, count)
    if q <= 1:
        raise TimeScaleError("q_scale: need q > 1")
    if t0 <= 0:
        raise TimeScaleError("q_scale: need t0 > 0")
    if count < 2:
        raise TimeScaleError("q_scale: need at least 2 points")
    _check_count(f"q_scale({q}, {t0}, {count})", count)
    try:
        last = t0 * float(q) ** (count - 1)
    except OverflowError:
        last = math.inf
    if not math.isfinite(last):
        raise TimeScaleError(f"q_scale({q}, {t0}, {count}): the last point t0*q^{count - 1} is not a finite float")
    pts = tuple(t0 * q**i for i in range(count))
    return TimeScale(pts, (GapKind.SCATTERED,) * (count - 1))


def union(scales: Sequence[TimeScale]) -> TimeScale:
    """Disjoint union of grids, ordered; junction gaps are SCATTERED.

    Components must not overlap or touch (strictly increasing overall grid).
    """
    if not scales:
        raise TimeScaleError("union: empty input")
    parts = sorted(scales, key=lambda s: s.points[0])
    pts: list[float] = []
    kinds: list[GapKind] = []
    for s in parts:
        if pts:
            if not s.points[0] > pts[-1]:
                raise TimeScaleError(
                    f"union: components overlap near {s.points[0]!r}"
                )
            kinds.append(GapKind.SCATTERED)
        pts.extend(s.points)
        kinds.extend(s.gap_kinds)
    return TimeScale(tuple(pts), tuple(kinds))


#: a gap kind by a name ``from_points`` reads (stripped, lower case)
_KINDS = {**dict.fromkeys(("s", "scattered"), GapKind.SCATTERED),
          **dict.fromkeys(("d", "dense", "dense_sample"), GapKind.DENSE_SAMPLE)}


def from_points(points: Iterable[float], gap_kinds: Iterable[GapKind | str]) -> TimeScale:
    """Build a grid from explicit points and gap kinds.

    Gap kinds may be GapKind values or the strings "scattered" /
    "dense_sample" (also "s" / "d").
    """
    given = tuple(gap_kinds)
    kinds = tuple(k if isinstance(k, GapKind) else _KINDS.get(str(k).strip().lower()) for k in given)
    if None in kinds:
        raise TimeScaleError(f"unknown gap kind {given[kinds.index(None)]!r}")
    return TimeScale(tuple(map(float, points)), kinds)
