import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats import timescale
from nablats.timescale import (
    GapKind,
    PointNotInScaleError,
    TimeScale,
    TimeScaleError,
    from_points,
    integers,
    q_scale,
    sampled_interval,
    uniform,
    union,
)


def left_scattered(ts, t):
    return ts.nu(t) > 0.0


def right_scattered(ts, t):
    """A gap to a successor that is a hole of the scale; the maximum is
    right-dense by convention."""
    i = ts.index_of(t)
    return i < len(ts) - 1 and ts.gap_kinds[i] is GapKind.SCATTERED


def kappa_points(ts):
    return tuple(ts.points[i] for i in ts.kappa_indices)


def junction_scale(n=4):
    """{0} followed by a sampled copy of [1, 2]."""
    pts = [0.0] + [1.0 + i / n for i in range(n)] + [2.0]
    kinds = [GapKind.SCATTERED] + [GapKind.DENSE_SAMPLE] * n
    return from_points(pts, kinds)


class TestJumpOperators:
    def test_integer_scale_interior(self):
        ts = integers(0, 5)
        assert ts.rho(3.0) == 2.0
        assert ts.rho(4.0) == 3.0
        assert ts.nu(3.0) == 1.0

    def test_boundary_conventions(self):
        ts = integers(0, 5)
        assert ts.rho(0.0) == 0.0
        assert not right_scattered(ts, 5.0)
        assert ts.nu(0.0) == 0.0

    def test_sampled_interval_is_dense(self):
        ts = sampled_interval(0.0, 1.0, 4)
        assert ts.points == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert ts.rho(0.5) == 0.5
        assert ts.rho(0.75) == 0.75
        assert ts.nu(0.5) == 0.0

    def test_q_scale(self):
        ts = q_scale(2.0, 1.0, 4)
        assert ts.points == (1.0, 2.0, 4.0, 8.0)
        assert ts.rho(4.0) == 2.0
        assert ts.nu(8.0) == 4.0

    def test_off_grid_point_raises(self):
        ts = integers(0, 5)
        with pytest.raises(PointNotInScaleError):
            ts.rho(2.5)
        with pytest.raises(PointNotInScaleError):
            ts.nu(-1.0)


class TestClassify:
    def test_isolated(self):
        ts = integers(0, 5)
        assert left_scattered(ts, 3.0) and right_scattered(ts, 3.0)

    def test_dense(self):
        ts = sampled_interval(0.0, 1.0, 4)
        assert not left_scattered(ts, 0.5) and not right_scattered(ts, 0.5)

    def test_junction(self):
        ts = junction_scale()
        assert left_scattered(ts, 1.0)
        assert not right_scattered(ts, 1.0)

    def test_boundary_classification(self):
        ts = integers(0, 5)
        assert not left_scattered(ts, 0.0)  # rho(min) = min
        assert right_scattered(ts, 0.0)
        assert not right_scattered(ts, 5.0)  # sigma(max) = max


class TestKappaSet:
    def test_scattered_minimum_excluded(self):
        assert kappa_points(integers(0, 5)) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_dense_minimum_included(self):
        ts = sampled_interval(0.0, 1.0, 4)
        assert kappa_points(ts) == ts.points

    def test_junction_minimum_excluded(self):
        ts = junction_scale()
        assert 0.0 not in kappa_points(ts)
        assert kappa_points(ts)[0] == 1.0


class TestBuilders:
    def test_uniform_is_scattered(self):
        ts = uniform(0.0, 5.0, 1.0)
        assert ts.points == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert ts.all_scattered

    def test_uniform_bad_step(self):
        with pytest.raises(TimeScaleError):
            uniform(0.0, 1.0, 0.3)

    def test_union_junction_gap_is_scattered(self):
        ts = union([integers(0, 2), sampled_interval(5.0, 6.0, 2)])
        assert ts.points == (0.0, 1.0, 2.0, 5.0, 5.5, 6.0)
        assert ts.gap_kinds[2] is GapKind.SCATTERED
        assert ts.gap_kinds[3] is GapKind.DENSE_SAMPLE

    def test_union_overlap_raises(self):
        with pytest.raises(TimeScaleError):
            union([integers(0, 3), integers(2, 5)])

    def test_from_points_accepts_strings(self):
        ts = from_points([0.0, 1.0, 1.5], ["s", "d"])
        assert ts.gap_kinds == (GapKind.SCATTERED, GapKind.DENSE_SAMPLE)

    @pytest.mark.parametrize(
        "build, fits, too_many",
        [(integers, (0, 9), (0, 10)),
         (uniform, (0.0, 4.5, 0.5), (0.0, 5.0, 0.5)),
         (sampled_interval, (0.0, 1.0, 9), (0.0, 1.0, 10)),
         (q_scale, (2.0, 1.0, 10), (2.0, 1.0, 11))],
    )
    def test_builders_count_their_points_before_building(self, monkeypatch, build, fits, too_many):
        monkeypatch.setattr(timescale, "MAX_POINTS", 10)
        assert len(build(*fits)) == 10
        with pytest.raises(TimeScaleError, match=rf"^{build.__name__}\(.*\): 11 points, more than the limit of 10$"):
            build(*too_many)

    @pytest.mark.parametrize(
        "build, args",
        [(integers, (float("nan"), 5)),
         (integers, (0, float("inf"))),
         (uniform, (float("nan"), 1.0, 0.25)),
         (uniform, (0.0, float("inf"), 0.25)),
         (uniform, (0.0, 1.0, float("nan"))),
         (sampled_interval, (0.0, float("inf"), 4)),
         (sampled_interval, (float("-inf"), 1.0, 4)),
         (sampled_interval, (0.0, 1.0, float("nan"))),
         (q_scale, (float("nan"), 1.0, 4)),
         (q_scale, (2.0, float("inf"), 4))],
    )
    def test_builders_refuse_non_finite_arguments(self, build, args):
        with pytest.raises(TimeScaleError, match=rf"^{build.__name__}\(.*\): every argument must be a finite number$"):
            build(*args)

    def test_a_huge_integer_bound_is_counted_not_converted(self):
        with pytest.raises(TimeScaleError, match=r"points, more than the limit of 1000000$"):
            integers(0, 10**400)

    def test_a_step_too_small_for_any_grid_is_refused_unbuilt(self):
        # it divides the span to float tolerance, at 1.5e300 points
        with pytest.raises(TimeScaleError, match=r"1\.5e\+300 points, more than the limit of 1000000"):
            uniform(3.5, 5.0, 1e-300)

    def test_q_scale_refuses_a_last_point_that_overflows(self):
        assert q_scale(2.0, 1.0, 1024).points[-1] == 2.0**1023
        for count in (1025, 2000):
            with pytest.raises(TimeScaleError, match=rf"the last point t0\*q\^{count - 1} is not a finite float"):
                q_scale(2.0, 1.0, count)

    def test_non_monotone_raises(self):
        with pytest.raises(TimeScaleError):
            from_points([0.0, 1.0, 1.0], ["s", "s"])
        with pytest.raises(TimeScaleError):
            from_points([0.0], [])

    @pytest.mark.parametrize("points, message", [
        ([0.0, float("nan"), float("inf")], "non-finite grid point nan"),
        ([0.0, 1.0, float("-inf")], "non-finite grid point -inf"),
        ([0.0, 2.0, 1.0, 1.0], "grid points must increase strictly (2.0 !< 1.0)"),
        ([0.0, 1.0, 2.0, 2.0, 1.0], "grid points must increase strictly (2.0 !< 2.0)"),
        ([-0.0, 0.0], "grid points must increase strictly (-0.0 !< 0.0)"),
    ])
    def test_point_messages_name_the_first_offender(self, points, message):
        kinds = (GapKind.SCATTERED,) * (len(points) - 1)
        with pytest.raises(TimeScaleError) as info:
            TimeScale(tuple(points), kinds)
        assert str(info.value) == message
        with pytest.raises(TimeScaleError) as info:
            from_points(points, ["s"] * len(kinds))
        assert str(info.value) == message

    def test_unknown_gap_kind_messages_name_the_first_offender(self):
        with pytest.raises(TimeScaleError) as info:
            from_points([0.0, 1.0, 2.0, 3.0], ["s", "sampled", "x"])
        assert str(info.value) == "unknown gap kind 'sampled'"
        with pytest.raises(TimeScaleError) as info:
            from_points([0.0, 1.0, 2.0], [GapKind.SCATTERED, ["d"]])
        assert str(info.value) == "unknown gap kind ['d']"
        with pytest.raises(TimeScaleError) as info:
            TimeScale((0.0, 1.0, 2.0, 3.0), (GapKind.SCATTERED, "d", 1))
        assert str(info.value) == "bad gap kind 'd'"

    def test_gap_kind_spellings(self):
        spellings = ["s", " Scattered ", "D", "dense", "DENSE_SAMPLE", GapKind.SCATTERED, "d"]
        ts = from_points(range(len(spellings) + 1), spellings)
        assert ts.gap_kinds == (GapKind.SCATTERED,) * 2 + (GapKind.DENSE_SAMPLE,) * 3 + (
            GapKind.SCATTERED, GapKind.DENSE_SAMPLE)
        assert ts.points == tuple(map(float, range(len(spellings) + 1)))


points_strategy = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=2,
    max_size=32,
    unique=True,
).map(sorted)


@given(pts=points_strategy, data=st.data())
@settings(max_examples=200, deadline=None)
def test_grid_invariants(pts, data):
    kinds = data.draw(
        st.lists(
            st.sampled_from([GapKind.SCATTERED, GapKind.DENSE_SAMPLE]),
            min_size=len(pts) - 1,
            max_size=len(pts) - 1,
        )
    )
    ts = from_points(pts, kinds)

    # round trip through the raw-parts builder
    assert from_points(ts.points, ts.gap_kinds) == ts

    for t in ts.points:
        assert ts.rho(t) <= t
        assert (ts.nu(t) == 0.0) == (ts.rho_indices[ts.index_of(t)] == ts.index_of(t))
        assert ts.nu(t) == t - ts.rho(t)

    # kappa set matches the right-scattered-minimum rule
    if ts.gap_kinds[0] is GapKind.SCATTERED:
        assert kappa_points(ts) == ts.points[1:]
    else:
        assert kappa_points(ts) == ts.points

    # a right-scattered point is the backward jump of its successor
    for i, t in enumerate(ts.points[:-1]):
        assert (ts.rho(ts.points[i + 1]) == t) == right_scattered(ts, t)
