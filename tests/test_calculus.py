import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nablats.calculus import (
    EmptyTailError,
    GridFunction,
    GridMismatchError,
    OutsideKappaError,
    ReversedBoundsError,
    integration_by_parts_residual,
    liminf_estimate,
    local_rho_integral,
    nabla_derivative_fn,
    nabla_integral,
    running_fsum,
)
from nablats.timescale import (
    GapKind,
    from_points,
    integers,
    q_scale,
    sampled_interval,
    uniform,
    union,
)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def partial_integrals(f, a):
    """[(T', integral of scalar f over (a, T'])] for every grid point T' > a."""
    ts = f.ts
    return [(T, float(nabla_integral(f, a, T)[0])) for T in ts.points[ts.index_of(a) + 1 :]]


def random_scattered_scale(rng, max_points=32):
    n = rng.integers(3, max_points + 1)
    start = rng.uniform(-2.0, 2.0)
    gaps = rng.uniform(0.05, 0.8, size=n - 1)
    pts = start + np.concatenate([[0.0], np.cumsum(gaps)])
    return from_points(pts, [GapKind.SCATTERED] * (n - 1))


class TestDerivative:
    def test_square_on_integers(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        # (t^2 - (t-1)^2) / 1 = 2t - 1
        assert nabla_derivative_fn(f).value_at(3.0)[0] == 5.0

    def test_backward_difference_on_samples(self):
        ts = sampled_interval(0.0, 1.0, 100)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        t = ts.points[50]
        h = ts.local_steps[50]
        assert nabla_derivative_fn(f).value_at(t)[0] == pytest.approx(2 * t - h, rel=1e-12)

    def test_excluded_minimum_raises(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: t)
        # the derivative grid only copies a value to the right-scattered
        # minimum, which lies outside the kappa set: reading it there raises
        df = nabla_derivative_fn(f)
        assert df.min_copied and 0 not in ts.kappa_indices
        with pytest.raises(OutsideKappaError):
            local_rho_integral(df, 0.0)

    def test_dense_minimum_uses_forward_difference(self):
        ts = sampled_interval(0.0, 1.0, 4)
        f = GridFunction.from_callable(ts, lambda t: 3.0 * t)
        assert nabla_derivative_fn(f).value_at(0.0)[0] == pytest.approx(3.0)

    def test_derivative_fn_copies_minimum(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        df = nabla_derivative_fn(f)
        assert df.min_copied
        assert df.values[0, 0] == df.values[1, 0]

    def test_sum_and_scalar_rules_exact(self):
        rng = np.random.default_rng(7)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.standard_normal(len(ts)))
        g = GridFunction.scalar(ts, rng.standard_normal(len(ts)))
        d_sum = nabla_derivative_fn(f + g)
        d_parts = nabla_derivative_fn(f)
        d_g = nabla_derivative_fn(g)
        assert np.allclose(d_sum.values, d_parts.values + d_g.values, rtol=1e-12, atol=1e-12)
        d_scaled = nabla_derivative_fn(2.5 * f)
        assert np.allclose(d_scaled.values, 2.5 * d_parts.values, rtol=1e-15)


class TestProductQuotientRules:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_both_product_rules(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.uniform(-2, 2, len(ts)))
        g = GridFunction.scalar(ts, rng.uniform(-2, 2, len(ts)))
        dfg = nabla_derivative_fn(f * g)
        df, dg = nabla_derivative_fn(f), nabla_derivative_fn(g)
        f_rho = GridFunction(ts, f.rho_values())
        g_rho = GridFunction(ts, g.rho_values())
        form1 = df * g + f_rho * dg
        form2 = df * g_rho + f * dg
        for i in ts.kappa_indices:
            assert rel_err(dfg.values[i, 0], form1.values[i, 0]) <= 1e-12
            assert rel_err(dfg.values[i, 0], form2.values[i, 0]) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_quotient_rule(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.uniform(-2, 2, len(ts)))
        g = GridFunction.scalar(ts, rng.uniform(0.5, 3.0, len(ts)))
        dq = nabla_derivative_fn(f / g)
        df, dg = nabla_derivative_fn(f), nabla_derivative_fn(g)
        g_rho = GridFunction(ts, g.rho_values())
        expected = (df * g - f * dg) / (g * g_rho)
        for i in ts.kappa_indices:
            assert rel_err(dq.values[i, 0], expected.values[i, 0]) <= 1e-10


class TestIntegral:
    def test_constant_on_integers(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: 1.0)
        assert nabla_integral(f, 0.0, 3.0)[0] == 3.0

    def test_empty_range_is_zero(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: 9.0)
        assert nabla_integral(f, 2.0, 2.0)[0] == 0.0

    def test_reversed_bounds_raise(self):
        ts = integers(0, 5)
        f = GridFunction.from_callable(ts, lambda t: 1.0)
        with pytest.raises(ReversedBoundsError):
            nabla_integral(f, 3.0, 1.0)

    def test_left_rectangle_on_samples(self):
        # integral of t over (0, 1] sampled: sum h * t_i = 0.5 + h/2
        n = 1000
        ts = sampled_interval(0.0, 1.0, n)
        f = GridFunction.from_callable(ts, lambda t: t)
        val = nabla_integral(f, 0.0, 1.0)[0]
        assert val == pytest.approx(0.5 + 0.5 / n, rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_fundamental_theorem_on_scattered(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_scattered_scale(rng)
        F = GridFunction.scalar(ts, rng.uniform(-5, 5, len(ts)))
        dF = nabla_derivative_fn(F)
        a, b = ts.points[0], ts.points[-1]
        lhs = nabla_integral(dF, a, b)[0]
        assert rel_err(lhs, F.values[-1, 0] - F.values[0, 0]) <= 1e-13

    def test_fundamental_theorem_bit_exact_on_unit_gaps(self):
        # integer-valued antiderivative: every difference is exact, so the
        # telescoping sum reproduces F(b) - F(a) bit for bit
        ts = integers(0, 20)
        rng = np.random.default_rng(3)
        F = GridFunction.scalar(ts, rng.integers(-50, 50, len(ts)).astype(float))
        dF = nabla_derivative_fn(F)
        assert nabla_integral(dF, 0.0, 20.0)[0] == F.values[-1, 0] - F.values[0, 0]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.uniform(-3, 3, len(ts)))
        a, b = ts.points[0], ts.points[-1]
        c = ts.points[rng.integers(0, len(ts))]
        whole = nabla_integral(f, a, b)[0]
        split = nabla_integral(f, a, c)[0] + nabla_integral(f, c, b)[0]
        assert rel_err(whole, split) <= 1e-14

    def test_positivity(self):
        rng = np.random.default_rng(11)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.uniform(0.1, 4.0, len(ts)))
        assert nabla_integral(f, ts.points[0], ts.points[-1])[0] > 0.0


class TestLocalRhoIntegral:
    def test_matches_item_five_identity(self):
        ts = q_scale(2.0, 1.0, 4)
        f = GridFunction.from_callable(ts, lambda t: t + 1.0)
        # nu(8) * f(8) = 4 * 9 = 36
        assert local_rho_integral(f, 8.0)[0] == 36.0
        assert nabla_integral(f, ts.rho(8.0), 8.0)[0] == 36.0

    def test_left_dense_gives_zero(self):
        ts = sampled_interval(0.0, 1.0, 4)
        f = GridFunction.from_callable(ts, lambda t: 5.0)
        assert local_rho_integral(f, 0.5)[0] == 0.0

    def test_excluded_minimum_raises(self):
        ts = integers(0, 3)
        f = GridFunction.from_callable(ts, lambda t: 1.0)
        with pytest.raises(OutsideKappaError):
            local_rho_integral(f, 0.0)

    @pytest.mark.parametrize(
        "ts",
        [
            integers(-2, 6),
            uniform(0.0, 1.0, 0.125),
            sampled_interval(0.0, 2.0, 7),
            q_scale(1.5, 0.5, 9),
            union([integers(0, 3), sampled_interval(3.5, 4.5, 5), q_scale(2.0, 8.0, 4)]),
            from_points([0.0, 0.1, 0.3, 1.0, 1.25, 2.0], ["d", "d", "s", "d", "s"]),
        ],
        ids=["integers", "uniform", "sampled_interval", "q_scale", "union", "from_points"],
    )
    def test_local_step_is_graininess_on_every_builder(self, ts):
        # nu(t_i) is the local step at left-scattered points and 0 at
        # left-dense ones, so the local rho-integral is the one-term quadrature
        f = GridFunction.scalar(ts, np.random.default_rng(5).uniform(-3.0, 3.0, len(ts)))
        for i, t in enumerate(ts.points):
            left_scattered = i > 0 and ts.gap_kinds[i - 1] is GapKind.SCATTERED
            assert ts.nu(t) == (ts.local_steps[i] if left_scattered else 0.0)
            if i in ts.kappa_indices:
                assert np.array_equal(local_rho_integral(f, t), nabla_integral(f, ts.rho(t), t))


def _prefix_fsums(terms):
    """The oracle: math.fsum of every prefix, or the exception it raises."""
    try:
        return [math.fsum(terms[: j + 1]) for j in range(len(terms))]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _running(terms):
    try:
        return running_fsum(terms).tolist()
    except (OverflowError, ValueError) as exc:
        return type(exc)


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRunningFsum:
    @given(st.lists(st.floats(-1e3, 1e3), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_random(self, terms):
        assert _running(terms) == _prefix_fsums(terms)

    @given(st.lists(finite, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_wide_exponent(self, terms):
        assert _running(terms) == _prefix_fsums(terms)

    @given(st.lists(st.floats(1e-300, 1e300), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_alternating(self, mags):
        terms = [m if j % 2 else -m for j, m in enumerate(mags)]
        assert _running(terms) == _prefix_fsums(terms)

    @given(st.lists(st.floats(-1e200, 1e200), max_size=40), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_cancelling(self, half, rnd):
        terms = half + [-v for v in half] + [1e-300, -1e-300]
        rnd.shuffle(terms)
        assert _running(terms) == _prefix_fsums(terms)
        assert _running(terms)[-1] == 0.0

    @given(st.lists(st.sampled_from([0.0, -0.0]), max_size=20))
    def test_zeros(self, terms):
        out = _running(terms)
        assert out == _prefix_fsums(terms)
        assert all(math.copysign(1.0, v) == 1.0 for v in out)

    @given(st.floats(allow_nan=False))
    def test_single_element(self, x):
        assert _running([x]) == _prefix_fsums([x])

    @given(
        st.lists(
            st.tuples(st.floats(1.0, 10.0), st.integers(-300, 300), st.booleans()),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_exponents_from_1e_minus_300_to_1e300(self, parts):
        terms = [(-m if neg else m) * 10.0**e for m, e, neg in parts]
        assert _running(terms) == _prefix_fsums(terms)

    @given(st.lists(st.integers(-(2**52), 2**52), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_subnormal(self, ints):
        # multiples of the smallest subnormal, some of them sums into the normal range
        terms = [k * 5e-324 for k in ints] + [2.2250738585072014e-308, -5e-324]
        assert _running(terms) == _prefix_fsums(terms)

    @given(st.lists(finite, min_size=1, max_size=30), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_exact_cancellation(self, half, rnd):
        # each prefix that closes all pairs is exactly zero, whatever the spread
        terms = [v for x in half for v in (x, -x)]
        out = _running(terms)
        assert out == _prefix_fsums(terms)
        assert out[1::2] == [0.0] * len(half)
        rnd.shuffle(terms)
        assert _running(terms) == _prefix_fsums(terms)

    def test_empty_and_special_values(self):
        assert _running([]) == []
        assert _running([1.0, math.inf, 2.0]) == _prefix_fsums([1.0, math.inf, 2.0])
        assert _running([1.0, math.inf, -math.inf]) is ValueError
        assert _prefix_fsums([1.0, math.inf, -math.inf]) is ValueError
        assert _running([1e308, 1e308]) is OverflowError
        assert _prefix_fsums([1e308, 1e308]) is OverflowError
        out = running_fsum([1.0, math.nan, 2.0])
        assert out[0] == 1.0 and math.isnan(out[1]) and math.isnan(out[2])


class TestRunningFsumPaths:
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40),
                      elements=st.floats(allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_columns_are_the_one_dimensional_sums(self, terms):
        # a 2-D call sums down each column as the 1-D call does, bit for bit,
        # or raises what a column's 1-D call raises
        expected = np.empty(terms.shape)
        try:
            for c in range(terms.shape[1]):
                expected[:, c] = running_fsum(terms[:, c])
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                running_fsum(terms)
            return
        got = running_fsum(terms)
        assert got.shape == terms.shape and got.tobytes() == expected.tobytes()

    def test_sums_past_the_float_range_in_units_of_the_lowest_bit(self):
        # e0 = -1016: the integer sum 256 * 2**1016 has 1025 bits, past what
        # float() converts, so the division rounds it
        terms = [256.0, 8.616307515122447e-291]
        assert _running(terms) == _prefix_fsums(terms) == [256.0, 256.0]

    @pytest.mark.parametrize("terms", [[1e-300, 3.0, -1e-300], [1.0, 1e-310, -1.0], [5e-324, 2.5e-308]])
    def test_a_lowest_bit_below_the_normal_range(self, terms):
        # e0 < -1022, so 2**e0 is not a normal float: the division rounds
        assert _running(terms) == _prefix_fsums(terms)


class TestIntegrationByParts:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_scattered(self, seed):
        rng = np.random.default_rng(seed)
        ts = random_scattered_scale(rng)
        f = GridFunction.scalar(ts, rng.uniform(-2, 2, len(ts)))
        g = GridFunction.scalar(ts, rng.uniform(-2, 2, len(ts)))
        res = integration_by_parts_residual(f, g, ts.points[0], ts.points[-1])
        assert res <= 1e-12 * max(1.0, float(np.max(np.abs(f.values * g.values))))

    def test_first_order_on_samples(self):
        # f = t^2, g = e^t on a sampled interval: residual is O(h)
        def residual(n):
            ts = sampled_interval(0.0, 1.0, n)
            f = GridFunction.from_callable(ts, lambda t: t * t)
            g = GridFunction.from_callable(ts, lambda t: math.exp(t))
            return integration_by_parts_residual(f, g, 0.0, 1.0)

        r_coarse = residual(1000)
        r_fine = residual(2000)
        assert r_coarse <= 1e-2
        assert r_fine <= r_coarse / 1.8  # halving the step halves the residual

    def test_grid_mismatch_raises(self):
        f = GridFunction.from_callable(integers(0, 3), lambda t: t)
        g = GridFunction.from_callable(integers(0, 4), lambda t: t)
        with pytest.raises(GridMismatchError):
            integration_by_parts_residual(f, g, 0.0, 3.0)


class TestPartialIntegralsAndTails:
    def test_geometric_partial_sums(self):
        ts = integers(0, 40)
        f = GridFunction.from_callable(ts, lambda t: 0.5**t)
        seq = partial_integrals(f, 0.0)
        # sum_{k=1..T} 2^-k = 1 - 2^-T
        for T, val in seq[:10]:
            assert val == pytest.approx(1.0 - 0.5**T, rel=1e-14)

    def test_alternating_tail_inf_close_to_limit(self):
        ts = integers(1, 200)
        f = GridFunction.from_callable(ts, lambda t: (-1.0) ** t / t)
        seq = partial_integrals(f, 1.0)
        # sum_{k>=2} (-1)^k / k = 1 - log 2
        limit = 1.0 - math.log(2.0)
        tail_inf = liminf_estimate(seq).value  # the inf over T' >= 151
        assert abs(tail_inf - limit) <= 1e-2

    def test_empty_tail_raises(self):
        with pytest.raises(EmptyTailError):
            liminf_estimate([])

    def test_liminf_estimate_converged(self):
        ts = integers(0, 100)
        f = GridFunction.from_callable(ts, lambda t: 0.5**t)
        est = liminf_estimate(partial_integrals(f, 0.0), cauchy_tol=1e-8)
        assert est.converged
        assert not est.diverging
        assert est.value == pytest.approx(1.0, rel=1e-9)

    def test_liminf_estimate_flags_divergence(self):
        seq = [(float(k), float(2.0**k)) for k in range(1, 80)]
        est = liminf_estimate(seq)
        assert est.diverging
