import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats.calculus import GridFunction, GridMismatchError, nabla_integral
from nablats.fundamental import (
    CaseTag,
    construct_violating_variation,
    default_tolerance,
    dubois_reymond_check,
    witness_value,
)
from nablats.timescale import GapKind, from_points, integers, q_scale, sampled_interval, union
from nablats.variational import AdmissibilityError


def grid_fn(ts, values):
    return GridFunction(ts, np.asarray(values, dtype=float)[:, None])


def mixed_junction_scale():
    # dense run 0 .. 1 in steps of 1/4, then scattered jumps to 2 and 3
    pts = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0]
    kinds = ["d", "d", "d", "d", "s", "s"]
    return from_points(pts, kinds)


class TestSpike:
    def test_single_spike_matches_hand_construction(self):
        ts = integers(0, 5)
        g = grid_fn(ts, [0, 0, 0, 2.0, 0, 0])
        var = construct_violating_variation(g)
        assert var is not None
        assert var.case_tag is CaseTag.SCATTERED_SPIKE
        assert var.t0 == 3.0
        assert var.eta.value_at(2.0)[0] == 2.0
        assert np.count_nonzero(var.eta.values) == 1
        assert witness_value(g, var.eta) == 4.0

    def test_spike_value_bit_exact_via_local_term(self):
        ts = integers(0, 6)
        rng = np.random.default_rng(5)
        g = grid_fn(ts, rng.uniform(-1, 1, len(ts)))
        var = construct_violating_variation(g)
        assert var is not None and var.case_tag is CaseTag.SCATTERED_SPIKE
        w = witness_value(g, var.eta)
        paired = GridFunction(ts, g.values * var.eta.rho_values())
        # the integral over (rho(t0), t0] is the one term nu(t0) * paired(t0)
        assert w == ts.nu(var.t0) * paired.value_at(var.t0)[0]
        assert w == nabla_integral(paired, ts.rho(var.t0), var.t0)[0]
        g0 = g.value_at(var.t0)[0]
        assert w == ts.nu(var.t0) * (g0 * g0)

    def test_scan_prefers_largest_magnitude_then_smallest_index(self):
        ts = integers(0, 7)
        g = grid_fn(ts, [0, 9, 3, -5, 0, 5, 1, 0])
        var = construct_violating_variation(g)
        # value 9 sits at the successor of the minimum and is undetectable;
        # |−5| and |5| tie and the smaller index wins
        assert var.t0 == 3.0
        assert var.eta.value_at(2.0)[0] == -5.0

    def test_value_at_minimum_successor_is_invisible(self):
        ts = integers(0, 5)
        g = grid_fn(ts, [0, 7.0, 0, 0, 0, 0])
        assert construct_violating_variation(g) is None


class TestBump:
    def test_sign_constant_window_on_sampled_interval(self):
        ts = sampled_interval(0.0, 1.0, 8)
        g = GridFunction.from_callable(ts, lambda t: t - 0.5)
        var = construct_violating_variation(g)
        assert var is not None
        assert var.case_tag is CaseTag.LEFT_DENSE_BUMP
        lo, hi = var.support
        sign_region = [t for t in ts.points if lo <= t <= hi]
        assert all(g.value_at(t)[0] >= 0.0 for t in sign_region)
        assert var.eta.value_at(lo)[0] == 0.0
        assert var.eta.value_at(hi)[0] == 0.0
        assert witness_value(g, var.eta) > 0.0

    def test_negative_function_gets_negative_bump(self):
        ts = sampled_interval(0.0, 1.0, 8)
        g = GridFunction.from_callable(ts, lambda t: -1.0 - t)
        var = construct_violating_variation(g)
        assert var is not None and var.case_tag is CaseTag.LEFT_DENSE_BUMP
        interior = var.eta.values[var.eta.values != 0.0]
        assert np.all(interior < 0.0)
        assert witness_value(g, var.eta) > 0.0

    def test_bump_needs_an_interior_point(self):
        # nonzero only right after the minimum of a dense grid: the minimal
        # window has no interior point, so no witness exists
        ts = sampled_interval(0.0, 1.0, 4)
        g = grid_fn(ts, [0, 0.9, 0, 0, 0])
        assert construct_violating_variation(g) is None


class TestJunctionCases:
    def test_rho_dense_bump_when_predecessor_detectable(self):
        ts = mixed_junction_scale()
        g = grid_fn(ts, [0, 0, 1.0, 1.0, 1.0, 5.0, 0])
        var = construct_violating_variation(g)
        assert var is not None
        assert var.case_tag is CaseTag.RHO_DENSE_BUMP
        assert var.t0 == 2.0
        # bump ends at the left-dense predecessor, so the jump never couples
        assert var.eta.value_at(1.0)[0] == 0.0
        assert var.support[1] == 1.0
        assert witness_value(g, var.eta) > 0.0

    def test_bridge_when_predecessor_vanishes(self):
        ts = mixed_junction_scale()
        g = grid_fn(ts, [0, 0, 0, 0, 0, 5.0, 0])
        var = construct_violating_variation(g)
        assert var is not None
        assert var.case_tag is CaseTag.BRIDGE
        assert var.t0 == 2.0
        assert var.eta.value_at(1.0)[0] == 5.0
        # witness = nu * g^2 plus a vanishing contamination term
        assert witness_value(g, var.eta) == 25.0

    def test_bridge_survives_small_opposing_neighbor(self):
        ts = mixed_junction_scale()
        # neighbor at 1.0 opposes with the dense weight 1/4; witness
        # nu*25 + 0.25*(-1e-7)*5 stays positive
        g = grid_fn(ts, [0, 0, 0, 1e-7, -1e-7, 5.0, 0])
        var = construct_violating_variation(g)
        assert var is not None
        assert witness_value(g, var.eta) > 0.0


class TestSoundness:
    def random_scale(self, rng, n_gaps):
        pts = np.cumsum(rng.uniform(0.1, 1.0, n_gaps + 1))
        kinds = [GapKind.SCATTERED, GapKind.SCATTERED] + [
            rng.choice([GapKind.SCATTERED, GapKind.DENSE_SAMPLE]) for _ in range(n_gaps - 2)
        ]
        return from_points(pts, kinds)

    def test_random_functions_always_yield_positive_witness(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            ts = self.random_scale(rng, int(rng.integers(5, 14)))
            g = grid_fn(ts, rng.uniform(-1, 1, len(ts)))
            var = construct_violating_variation(g)
            assert var is not None
            assert witness_value(g, var.eta) > 0.0
            assert var.eta.values[0, 0] == 0.0
            assert var.eta.values[-1, 0] == 0.0
            lo, hi = var.support
            outside = [
                k for k, t in enumerate(ts.points) if t < lo or t > hi
            ]
            assert np.all(var.eta.values[outside] == 0.0)

    def test_zero_function_is_trivial(self):
        ts = integers(0, 6)
        assert construct_violating_variation(grid_fn(ts, np.zeros(7))) is None

    def test_below_tolerance_is_trivial(self):
        ts = integers(0, 6)
        g = grid_fn(ts, np.full(7, 1e-12))
        assert construct_violating_variation(g) is None
        assert construct_violating_variation(g, tol=1e-13) is not None

    def test_default_tolerance_regimes(self):
        ts_s = integers(0, 4)
        ts_d = sampled_interval(0.0, 1.0, 4)
        g_s = grid_fn(ts_s, np.ones(5))
        g_d = grid_fn(ts_d, 2.0 * np.ones(5))
        assert default_tolerance(g_s) == 1e-10
        assert default_tolerance(g_d) == 2e-6

    def test_scalar_required(self):
        ts = integers(0, 3)
        g = GridFunction(ts, np.ones((4, 2)))
        with pytest.raises(ValueError):
            construct_violating_variation(g)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_function_is_rejected(self, value):
        # f = 0.5 at t = 3 and 5 would give a witness without the bad value at 4
        ts = integers(0, 10)
        g = grid_fn(ts, [0, 0, 0, 0.5, value, 0.5, 0, 0, 0, 0, 0])
        eta = grid_fn(ts, [0, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0])
        for call in (
            lambda: construct_violating_variation(g),
            lambda: witness_value(g, eta),
            lambda: witness_value(eta, g),
            lambda: dubois_reymond_check(g),
        ):
            with pytest.raises(AdmissibilityError, match="^function contains non-finite values$"):
                call()

    def test_eta_on_other_gap_kinds_is_rejected(self):
        # same points as g's grid, but dense gaps would pair through eta's own rho
        ts = integers(0, 4)
        g = grid_fn(ts, [0, 0, 1.0, 0, 0])
        spike = [0, 1.0, 0, 0, 0]
        assert witness_value(g, grid_fn(ts, spike)) == 1.0
        dense = from_points(ts.points, ["d"] * 4)
        with pytest.raises(GridMismatchError, match="^eta does not live on the same grid as g$"):
            witness_value(g, grid_fn(dense, spike))
        with pytest.raises(GridMismatchError):
            witness_value(g, grid_fn(integers(1, 5), spike))

    def test_witness_with_zero_g_is_zero(self):
        ts = integers(0, 5)
        g = grid_fn(ts, np.zeros(6))
        eta = grid_fn(ts, [0, 1.0, 2.0, 1.0, 0.5, 0])
        assert witness_value(g, eta) == 0.0


class TestDuboisReymond:
    def test_constant_function(self):
        ts = integers(0, 5)
        res = dubois_reymond_check(grid_fn(ts, np.full(6, 7.0)))
        assert res.is_constant is True
        assert res.spread == 0.0
        assert res.variation is None

    def test_identity_function_is_not_constant(self):
        ts = integers(0, 5)
        res = dubois_reymond_check(GridFunction.from_callable(ts, lambda t: t))
        assert res.is_constant is False
        assert res.spread == 5.0
        assert res.variation is not None
        deriv_witness = witness_value(GridFunction(ts, np.ones((6, 1))), res.variation.eta)
        assert deriv_witness > 0.0

    def test_overflowing_derivative_is_rejected_without_a_warning(self):
        # h is finite, but its backward quotients over steps of 2.5e-11 are not
        ts = sampled_interval(0.0, 1e-10, 4)
        h = grid_fn(ts, [0.0, 1e308, -1e308, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AdmissibilityError) as exc:
                dubois_reymond_check(h)
        assert str(exc.value) == f"the nabla derivative is non-finite at t={ts.points[1]!r}"

    def test_mean_zero_oscillation_antiderivative(self):
        ts = integers(0, 6)
        h = grid_fn(ts, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        res = dubois_reymond_check(h)
        assert res.is_constant is False
        assert res.spread == 1.0
        assert res.variation is not None


@given(values=st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]), min_size=3, max_size=30),
       tol=st.sampled_from([None, 0.0, 0.5, 1.0, 1.5]))
@settings(max_examples=200, deadline=None)
def test_scan_order_on_the_integers(values, tol):
    # every candidate from t_2 on is a spike that validates, so the witness is
    # the first in the scan order: decreasing magnitude, then increasing index
    ts = integers(0, len(values) - 1)
    var = construct_violating_variation(grid_fn(ts, values), tol=tol)
    cut = 1e-10 if tol is None else tol
    order = sorted((j for j in range(2, len(values)) if abs(values[j]) > cut), key=lambda j: (-abs(values[j]), j))
    if not order:
        assert var is None
    else:
        assert (var.t0, var.case_tag) == (float(order[0]), CaseTag.SCATTERED_SPIKE)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1.0, -5e-324])
def test_a_tolerance_outside_the_domain_raises_value_error(tol):
    ts = integers(0, 5)
    g = grid_fn(ts, [0, 0, 0, 2.0, 0, 0])
    for check in (construct_violating_variation, dubois_reymond_check):
        with pytest.raises(ValueError) as info:
            check(g, tol=tol)
        assert type(info.value) is ValueError
        assert str(info.value) == f"tolerance {tol!r} is not a finite number >= 0"


def test_a_zero_tolerance_scans_every_nonzero_value():
    ts = integers(0, 5)
    g = grid_fn(ts, [0, 0, 0, 5e-324, 0, 0])
    assert construct_violating_variation(g, tol=0.0) is None  # its pairing underflows to 0
    g = grid_fn(ts, [0, 0, 0, 1e-100, 0, 0])
    assert construct_violating_variation(g, tol=0.0).t0 == 3.0
    assert dubois_reymond_check(grid_fn(ts, [1.0] * 6), tol=0.0).is_constant


def _full_grid_pairing(g, eta):
    """The pairing as a nabla integral of the full-grid product g * eta(rho)
    over eta's window: ``witness_value``'s former body, the oracle of its
    windowed sum."""
    ts, ev = g.ts, eta.values[:, 0]
    nonzero = np.nonzero(ev)[0]
    if nonzero.size == 0:
        return 0.0
    lo, hi = max(int(nonzero[0]) - 1, 0), int(nonzero[-1])
    if hi < len(ts) - 1 and ts.gap_kinds[hi] is GapKind.SCATTERED:
        hi += 1
    if not ts.points[lo] < ts.points[hi]:
        return 0.0
    paired = GridFunction(ts, g.values * eta.rho_values())
    return float(nabla_integral(paired, ts.points[lo], ts.points[hi])[0])


_PAIRING_GRIDS = {
    "integers": integers(0, 24),
    "q_scale": q_scale(1.3, 0.5, 25),
    "sampled": sampled_interval(-1.0, 2.0, 24),
    "mixed": union([integers(0, 6), sampled_interval(6.5, 8.0, 9), q_scale(1.5, 9.0, 8)]),
}


@pytest.mark.parametrize("name", list(_PAIRING_GRIDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_variation_keeps_the_pairing_witness_value_gives_it(name, data):
    # the value lemma prints is the one stored at acceptance: witness_value's
    # bits on the returned eta, which are those of the full-grid integral
    ts = _PAIRING_GRIDS[name]
    # |g| stays below 1e150: a pairing g * eta past the float range is inf
    # with numpy's overflow warning, here and in the full-grid integral alike
    mags = st.floats(1e-3, 1e3) | st.sampled_from([0.0, 1e-9, 1e-300, 1e100])
    values = data.draw(st.lists(mags.map(float) | mags.map(lambda v: -v), min_size=len(ts), max_size=len(ts)))
    g = grid_fn(ts, values)
    var = construct_violating_variation(g)
    if var is None:
        return
    again = witness_value(g, var.eta)
    assert np.float64(var.value).tobytes() == np.float64(again).tobytes()
    assert np.float64(again).tobytes() == np.float64(_full_grid_pairing(g, var.eta)).tobytes()
    assert var.value > 0.0


@pytest.mark.parametrize("name", list(_PAIRING_GRIDS))
def test_witness_value_sums_the_window_as_the_full_grid_integral_does(name):
    ts = _PAIRING_GRIDS[name]
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = grid_fn(ts, rng.normal(size=len(ts)) * 10.0 ** rng.integers(-5, 5, len(ts)))
        eta = np.zeros(len(ts))
        lo = int(rng.integers(1, len(ts) - 2))
        hi = int(rng.integers(lo, len(ts) - 1))
        eta[lo:hi + 1] = rng.normal(size=hi + 1 - lo)
        eta = grid_fn(ts, eta)
        assert np.float64(witness_value(g, eta)).tobytes() == np.float64(_full_grid_pairing(g, eta)).tobytes()
