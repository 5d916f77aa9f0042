"""The process-wide cache of compiled problem shapes (``expressions.bind_shape``,
reached through ``Problem.kernel``): a problem that repeats a shape binds its
own constants to the compiled form and gets the same bits as a fresh compile."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nablats import expressions
from nablats.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    ExprDomainError,
    Neg,
    Num,
    Shape,
    Var,
    evaluate_many,
    parse,
    to_source,
)
from nablats.solver import NonFiniteObjectiveError, SolveOptions, direct_solve
from nablats.timescale import integers
from nablats.variational import (
    _KERNEL_GROUPS,
    Problem,
    Sense,
    Trajectory,
    _compile_kernel,
    _derive,
    evaluate_functional_partial,
)

#: literals, among them 0 and 1 (kept in the shape) and pairs whose
#: product folds to exactly 1.0 (0.5 * 2, 0.25 * 4) or to 0.0 (1e-200 * 1e-200)
LITERALS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 0.25, 4.0, 1e-200, 1e-100, 0.3]
EXPONENTS = [0.0, 1.0, 2.0, 3.0, 0.5, -1.0]


def _leaf(names):
    return st.one_of(st.sampled_from(names).map(Var), st.sampled_from(LITERALS).map(Num))


def _branch(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda a: BinOp(*a)),
        st.tuples(children, st.sampled_from(EXPONENTS).map(Num)).map(lambda a: BinOp("^", *a)),
    )


def _trees(names):
    return st.recursive(_leaf(names), _branch, max_leaves=8)


def _redraw(e, draw):
    """e with every literal but the exponents drawn again."""
    if isinstance(e, Num):
        return Num(draw(st.sampled_from(LITERALS)))
    if isinstance(e, Neg):
        return Neg(_redraw(e.arg, draw))
    if isinstance(e, Call):
        return Call(e.fn, _redraw(e.arg, draw))
    if isinstance(e, BinOp):
        right = e.right if e.op == "^" and isinstance(e.right, Num) else _redraw(e.right, draw)
        return BinOp(e.op, _redraw(e.left, draw), right)
    return e


@st.composite
def shape_pairs(draw):
    """(n, sense, L and g of a first problem, L and g of a second problem of
    the same structure with its literals drawn again)."""
    n = draw(st.sampled_from([1, 2]))
    names = ["t"] + [f"{s}{i}" for s in "xv" for i in range(1, n + 1)]
    L, g = draw(_trees(names + ["z"])), draw(_trees(names))
    return n, draw(st.sampled_from(Sense)), L, g, _redraw(L, draw), _redraw(g, draw)


def _env(rng, ts, n):
    m = len(ts)
    env = {"t": ts.points_array}
    for i in range(1, n + 1):
        env[f"x{i}"], env[f"v{i}"] = rng.uniform(-3.0, 3.0, (2, m))
        env[f"x{i}"][rng.integers(0, m)] = 0.0
    return env


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _sources(obj):
    if isinstance(obj, dict):
        return {key: _sources(value) for key, value in obj.items()}
    return [_sources(o) for o in obj] if isinstance(obj, list) else to_source(obj)


def _fold_case(first, second):
    return (1, Sense.MAX, parse(first), parse("0"), parse(second), parse("0"))


class TestShapeCache:
    @given(case=shape_pairs(), seed=st.integers(0, 2**31 - 1))
    @example(case=_fold_case("0.5*(3*x1)*v1", "0.5*(2*x1)*v1"), seed=0)
    @example(case=_fold_case("0.5*(2*x1)*v1", "0.5*(3*x1)*v1"), seed=0)
    @example(case=_fold_case("1e-100*(1e-100*x1)*v1", "1e-200*(1e-200*x1)*v1"), seed=1)
    @example(case=_fold_case("1e-200*(1e-200*x1)*v1", "1e-100*(1e-100*x1)*v1"), seed=1)
    @example(case=_fold_case("exp(0.25*(3*x1)) - v1^2", "exp(0.25*(4*x1)) - v1^2"), seed=2)
    @example(case=_fold_case("3*(x1*v1) + 2*x1^2", "0*(x1*v1) + 1*x1^2"), seed=3)
    @settings(max_examples=150, deadline=None)
    def test_a_cached_shape_gives_the_bits_of_a_fresh_compile(self, case, seed):
        n, sense, L1, g1, L2, g2 = case
        expressions._SHAPES.clear()
        ts = integers(0, 6)
        first = Problem(ts, n, L1, g1, (0.5,) * n, sense)
        first.kernel(*_KERNEL_GROUPS)  # compiles the shape under the first constants
        p = Problem(ts, n, L2, g2, (0.5,) * n, sense)
        cached = p.kernel(*_KERNEL_GROUPS, check=False)
        # the uncached compile: differentiate and lower the literals themselves
        shape = Shape(())
        derived = shape.derived = _derive((n, sense), L2, g2, None)
        fresh = _compile_kernel(shape, (frozenset(_KERNEL_GROUPS), False))
        assert not fresh.params
        env = _env(np.random.default_rng(seed), ts, n)
        out = evaluate_many(cached, dict(env), np.cumsum)
        expect = evaluate_many(fresh, env, np.cumsum)
        assert _same_bits(out, expect)
        for row, (_, e, _) in zip(out, fresh.outputs):  # and the tree walk
            assert _same_bits(row, np.broadcast_to(evaluate_many(e, env), row.shape)), to_source(e)
        for name in ("partials", "hessian_partials"):
            assert _sources(getattr(p, name)) == _sources(derived[name])

    def test_same_shape_problems_share_one_compile_and_bound_their_t_values(self):
        expressions._SHAPES.clear()
        ts = integers(0, 20)
        t_arrays = [ts.points_array[:k] for k in range(2, expressions.T_ARRAYS_KEPT + 5)]
        shapes = set()
        for i in range(1000):
            rho = 0.05 + 1e-4 * i
            p = Problem.from_strings(ts, 1, f"exp(-{rho!r}*t)*(-(v1^2)-x1^2)", "x1^2", 1.0)
            kernel = p.kernel("J")
            for t in t_arrays:
                env = {"t": t, "x1": np.cos(t), "v1": np.sin(t), "z": t}
                walk = evaluate_many(p.lagrangian, env)  # J is L: the sense is max
                assert _same_bits(evaluate_many(kernel, env)[1], walk)
            assert len(p._binding.t_values) == expressions.T_ARRAYS_KEPT
            shapes.add(id(p._binding.shape))
        assert len(shapes) == 1 and len(expressions._SHAPES) == 1

    def test_the_least_recently_bound_shape_goes_first(self):
        expressions._SHAPES.clear()
        ts = integers(0, 4)

        def bind(k, rho=0.1):  # the exponent stays in the shape: one shape per k
            p = Problem.from_strings(ts, 1, f"exp(-{rho!r}*t)*(-(v1^2)-x1^{k})", "0", 1.0)
            return p._binding.shape

        kept = expressions.SHAPES_KEPT
        first = [bind(k) for k in range(2, kept + 2)]
        assert bind(2, rho=0.2) is first[0]  # a hit moves shape 2 to the front
        bind(kept + 2)
        assert len(expressions._SHAPES) == kept
        assert bind(2, rho=0.3) is first[0] and bind(3) is not first[1]

    def test_a_failed_guard_compiles_the_shape_again(self):
        expressions._SHAPES.clear()
        ts = integers(0, 4)
        one = Problem.from_strings(ts, 1, "0.5*(2*x1)*v1", "0", 1.0)
        other = Problem.from_strings(ts, 1, "0.5*(3*x1)*v1", "0", 1.0)
        assert to_source(one.partials["Lx"][0]) == "v1"
        assert to_source(other.partials["Lx"][0]) == "1.5*v1"
        assert one._binding.shape is not other._binding.shape


class TestBinding:
    @pytest.mark.parametrize("L, x_a, message", [
        ("-0.5*v1^2 - 3*x1^2", 1e200, "objective integrand '-0.5*v1^2.0 - 3.0*x1^2.0'"),
        ("-0.7*v1^2 - 2*x1^2", 1e200, "objective integrand '-0.7*v1^2.0 - 2.0*x1^2.0'"),
    ])
    def test_non_finite_errors_name_the_problems_own_constants(self, L, x_a, message):
        # both problems share one shape; whichever compiled it, each error
        # shows the constants of its own problem
        p = Problem.from_strings(integers(0, 6), 1, L, "0", x_a)
        with pytest.raises(NonFiniteObjectiveError) as exc:
            direct_solve(p, SolveOptions(T_trunc=6.0))
        assert str(exc.value) == f"{message} is non-finite at t=1.0 during the search"
        with pytest.raises(ExprDomainError) as exc:
            evaluate_functional_partial(p, Trajectory.constant(p), 6.0)
        assert str(exc.value) == f"{message.replace('objective integrand', 'lagrangian')} is non-finite at t=0.0"

    def test_each_kernel_compile_logs_its_groups_and_slots(self, caplog):
        expressions._SHAPES.clear()
        caplog.set_level(logging.DEBUG, logger="nablats")
        ts = integers(0, 4)
        Problem.from_strings(ts, 1, "exp(-0.1*t)*(-(v1^2)-x1^2)", "0", 1.0).kernel("J")
        (record,) = caplog.records
        assert record.name == "nablats" and record.levelno == logging.DEBUG
        assert record.getMessage().startswith("compiled kernel g+J of a shape with 1 parameters: ")
        assert record.getMessage().endswith(" slots")
        Problem.from_strings(ts, 1, "exp(-0.2*t)*(-(v1^2)-x1^2)", "0", 1.0).kernel("J")
        assert len(caplog.records) == 1  # the second problem binds, it compiles nothing
