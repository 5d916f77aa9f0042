import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablats import expressions
from nablats.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Kernel,
    MissingVariableError,
    Neg,
    Num,
    Program,
    Var,
    differentiate,
    evaluate_many,
    parse,
    to_source,
    variables,
)
from tree_walk import tree_walk


class TestParse:
    def test_precedence_and_unary_minus(self):
        # -(v1^2) + 3*x1 evaluated at v1=2, x1=1 -> -4 + 3 = -1
        e = parse("-(v1^2) + 3*x1")
        assert tree_walk(e, {"v1": 2.0, "x1": 1.0}) == -1.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert tree_walk(parse("-v1^2"), {"v1": 3.0}) == -9.0

    def test_power_is_right_associative(self):
        assert tree_walk(parse("2^3^2"), {}) == 512.0

    def test_negative_exponent(self):
        assert tree_walk(parse("2^-2"), {}) == 0.25

    def test_constants_fold(self):
        assert tree_walk(parse("pi"), {}) == math.pi
        assert tree_walk(parse("e"), {}) == math.e

    def test_whitespace_insensitive(self):
        a = parse("exp( - t ) * ( x1 + v1 )")
        b = parse("exp(-t)*(x1+v1)")
        env = {"t": 0.3, "x1": 1.5, "v1": -0.7}
        assert tree_walk(a, env) == tree_walk(b, env)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x1 +")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 + bogus")
        with pytest.raises(ExprSyntaxError):
            parse("x0")  # indices start at 1

    def test_function_requires_parentheses(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin + 1")

    def test_unbalanced_parentheses(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x1 + 2")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x1 @ 2")
        assert exc.value.offset == 3


def _kernel_value(src, env):
    """``src`` run as a one-output kernel on the one-point ``env``, checked."""
    kernel = Kernel(Program(), [("f", [("f", parse(src))])], [])
    return evaluate_many(kernel, {name: np.array([value]) for name, value in env.items()})[0, 0]


class TestEvaluate:
    def test_division_by_zero_names_subtree(self):
        with pytest.raises(ExprDomainError) as exc:
            _kernel_value("1/(t-1)", {"t": 1.0})
        assert "t - 1" in str(exc.value)

    def test_log_domain(self):
        with pytest.raises(ExprDomainError):
            _kernel_value("log(t)", {"t": 0.0})

    def test_sqrt_domain(self):
        with pytest.raises(ExprDomainError):
            _kernel_value("sqrt(t)", {"t": -4.0})

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            _kernel_value("x1 + x2", {"t": 0.0, "x1": 1.0})


# random expression trees for the round-trip property

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False).map(lambda v: Num(round(v, 3))),
    st.sampled_from(["t", "z", "x1", "x2", "v1", "v2"]).map(Var),
)


def _branch(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(*t)),
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(lambda t: Call(*t)),
        st.tuples(children, st.integers(1, 3)).map(lambda t: BinOp("^", t[0], Num(float(t[1])))),
    )


expr_trees = st.recursive(_leaf, _branch, max_leaves=12)


@given(e=expr_trees, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(e, seed):
    rng = np.random.default_rng(seed)
    env = {name: rng.uniform(0.3, 2.0) for name in ("t", "z", "x1", "x2", "v1", "v2")}
    expected = float(tree_walk(e, env))
    if not math.isfinite(expected):
        return
    round_tripped = parse(to_source(e))
    assert float(tree_walk(round_tripped, env)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestDifferentiate:
    def test_polynomial(self):
        # d/dx1 of x1^3 - 2*x1 = 3*x1^2 - 2
        d = differentiate(parse("x1^3 - 2*x1"), "x1")
        assert tree_walk(d, {"x1": 2.0}) == 10.0

    def test_absent_variable_gives_zero(self):
        d = differentiate(parse("x1 + v1"), "z")
        assert d == Num(0.0)

    def test_chain_rule_exp(self):
        d = differentiate(parse("exp(-(t^2))"), "t")
        t = 0.7
        assert float(tree_walk(d, {"t": t})) == pytest.approx(-2 * t * math.exp(-t * t), rel=1e-12)

    def test_quotient(self):
        d = differentiate(parse("x1 / (1 + t)"), "x1")
        assert tree_walk(d, {"x1": 3.0, "t": 1.0}) == 0.5

    def test_general_power_rewrite(self):
        # d/dt t^t = t^t (log t + 1)
        d = differentiate(parse("t^t"), "t")
        t = 1.7
        expected = t**t * (math.log(t) + 1.0)
        assert float(tree_walk(d, {"t": t})) == pytest.approx(expected, rel=1e-12)

    def test_variables_listing(self):
        assert variables(parse("exp(-t)*(x1 - v2) + z")) == {"t", "x1", "v2", "z"}

    @staticmethod
    def _visits(monkeypatch, e):
        """The ids ``variables`` looks up while it walks ``e``: each node it
        pops is looked up once, and once more when it is new."""
        looked_up = []

        def counting_id(node):
            looked_up.append(id(node))
            return id(node)

        monkeypatch.setattr(expressions, "id", counting_id, raising=False)
        names = variables(e)
        monkeypatch.undo()
        return names, looked_up

    def test_variables_visits_each_distinct_node_once(self, monkeypatch):
        # each level reads the one below twice: 3 new nodes a level, 2^60 paths to the leaf
        e, distinct = Var("x1"), 1
        for _ in range(60):
            e = BinOp("+", e, BinOp("*", e, Var("t")))
            distinct += 3
        names, looked_up = self._visits(monkeypatch, e)
        assert names == {"x1", "t"}
        # a node has at most two children, so at most 1 + 2*distinct pops
        assert len(set(looked_up)) == distinct and len(looked_up) <= 1 + 3 * distinct

    def test_second_partials_of_a_deep_quotient_are_walked_as_a_dag(self, monkeypatch):
        # x1/(1 + x1/(1 + ... x1)): differentiate shares subtrees, so the DAG of
        # its second partial is far smaller than the tree a recursive walk visits
        src = "x1"
        for _ in range(100):
            src = f"x1/(1 + {src})"
        d2 = differentiate(differentiate(parse(src), "x1"), "x1")

        def kids(node):
            return [node.left, node.right] if isinstance(node, BinOp) else [node.arg] if isinstance(
                node, (Neg, Call)) else []

        sizes, stack = {}, [d2]  # the tree size under each distinct node, children first
        while stack:
            todo = [k for k in kids(stack[-1]) if id(k) not in sizes]
            if todo:
                stack += todo
            else:
                node = stack.pop()
                sizes[id(node)] = 1 + sum(sizes[id(k)] for k in kids(node))
        names, looked_up = self._visits(monkeypatch, d2)
        assert names == {"x1"}
        # 60,995 distinct nodes against a tree of 10,230,690
        assert set(looked_up) == set(sizes) and 100 * len(sizes) < sizes[id(d2)]
        assert len(looked_up) <= 1 + 3 * len(sizes)

@given(e=expr_trees, var=st.sampled_from(["t", "x1", "v1", "z"]), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_symbolic_derivative_matches_central_difference(e, var, seed):
    rng = np.random.default_rng(seed)
    env = {name: rng.uniform(0.4, 1.6) for name in ("t", "z", "x1", "x2", "v1", "v2")}
    h = 1e-6
    sym = float(tree_walk(differentiate(e, var), env))
    hi = dict(env, **{var: env[var] + h})
    lo = dict(env, **{var: env[var] - h})
    fd = (float(tree_walk(e, hi)) - float(tree_walk(e, lo))) / (2 * h)
    if not (math.isfinite(sym) and math.isfinite(fd)):
        return
    if max(abs(sym), abs(fd)) > 1e6:  # ill-conditioned central difference
        return
    assert sym == pytest.approx(fd, rel=1e-4, abs=1e-5)


# -- compiled kernels ------------------------------------------------------------


def _kernel_leaf(names):
    return st.one_of(
        st.sampled_from(names).map(Var),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0]).map(Num),
        st.floats(-4.0, 4.0, allow_nan=False).map(Num),
        # a t-only subtree, as in a discount factor
        st.floats(0.0, 1.0).map(lambda r: Call("exp", BinOp("*", Neg(Num(r)), Var("t")))),
    )


def _kernel_branch(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from(FUNCTIONS), children).map(lambda a: Call(*a)),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda a: BinOp(*a)),
    )


def _kernel_trees(names):
    return st.recursive(_kernel_leaf(names), _kernel_branch, max_leaves=10)


@st.composite
def kernel_outputs(draw):
    """g-stage and L-stage outputs built from shared pools of subtrees, so one
    object (and equal copies of it) occurs in many outputs."""
    g_pool = draw(st.lists(_kernel_trees(["t", "x1", "v1"]), min_size=1, max_size=4))
    l_pool = g_pool + draw(st.lists(_kernel_trees(["t", "x1", "v1", "z"]), min_size=1, max_size=3))

    def combine(pool):
        i, j = draw(st.integers(0, len(pool) - 1)), draw(st.integers(0, len(pool) - 1))
        op = draw(st.sampled_from("+-*/^"))
        return BinOp(op, pool[i], parse(to_source(pool[j])) if draw(st.booleans()) else pool[j])

    g_out = g_pool + [combine(g_pool) for _ in range(draw(st.integers(0, 3)))]
    g_out.append(differentiate(g_pool[0], draw(st.sampled_from(["t", "x1", "v1"]))))
    l_out = [combine(l_pool) for _ in range(draw(st.integers(1, 4)))] + l_pool[-1:]
    l_out.append(differentiate(l_out[0], draw(st.sampled_from(["t", "x1", "z"]))))
    return g_out, l_out


def _kernel_env(rng, t, batch):
    shape = (batch, len(t)) if batch else (len(t),)
    x1, v1 = rng.uniform(-3.0, 3.0, (2,) + shape)
    x1.flat[rng.integers(0, x1.size)] = 0.0  # and leave the domain of log, /, sqrt, ^
    return {"t": t, "x1": x1, "v1": v1}


def _same_bits(a, b):
    """NaN at the same places and every other value with the same bits:
    bit for bit, a NaN's sign aside, which numpy does not fix (see
    ``test_a_nan_sign_is_not_compared``)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestKernel:
    @given(outputs=kernel_outputs(), seed=st.integers(0, 2**31 - 1), batch=st.sampled_from([0, 3]))
    @settings(max_examples=200, deadline=None)
    def test_every_output_is_bit_identical_to_the_tree_walk(self, outputs, seed, batch):
        g_out, l_out = outputs
        kernel = Kernel(
            Program(),
            [("g", [(f"g{i}", e) for i, e in enumerate(g_out)])],
            [("L", [(f"L{i}", e) for i, e in enumerate(l_out)])],
            check=False,
        )
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(-2.0, 5.0, 7))
        t[rng.integers(0, 7)] = 0.0
        # twice on the same t, then on another t
        for t_now in (t, t, np.sort(rng.uniform(-2.0, 5.0, 7))):
            env = _kernel_env(rng, t_now, batch)
            out = evaluate_many(kernel, env, lambda g: np.cumsum(g, axis=-1))
            shape = np.broadcast_shapes(env["x1"].shape, t_now.shape)
            assert out.shape == (len(g_out) + len(l_out),) + shape
            with np.errstate(all="ignore"):  # the oracle sum may meet inf - inf too
                assert _same_bits(env["z"], np.cumsum(out[0], axis=-1))
            for row, e in zip(out, g_out + l_out):
                assert _same_bits(row, np.broadcast_to(tree_walk(e, env), shape)), to_source(e)

    @given(outputs=kernel_outputs(), seed=st.integers(0, 2**31 - 1), block=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_a_gathered_call_is_the_full_call_on_the_gathered_env(self, outputs, seed, block):
        # the z-free ops run once on a table of (A, B) pairs, built in blocks
        # of rows; the ops that read z then run on rows gathered from it
        g_out, l_out = outputs
        kernel = Kernel(
            Program(),
            [("g", [(f"g{i}", e) for i, e in enumerate(g_out)])],
            [("L", [(f"L{i}", e) for i, e in enumerate(l_out)])],
            check=False,
        )
        rng = np.random.default_rng(seed)
        t = rng.uniform(-2.0, 5.0, 1)
        env = _kernel_env(rng, np.zeros(6), 5)  # x1 and v1 are (5, 6)
        env["t"] = t
        blocks = [{key: a if key == "t" else a[s : s + block] for key, a in env.items()}
                  for s in range(0, 5, block)]
        idx = rng.integers(0, 5, 8)
        z = rng.uniform(-3.0, 3.0, (8, 6))
        with np.errstate(all="ignore"):
            g, kept = kernel.table(blocks)
            rows = kernel.gather(kept, idx, z)
            full = evaluate_many(kernel, dict(env, z=0.0))
            gathered = evaluate_many(kernel, {"t": t, "x1": env["x1"][idx], "v1": env["v1"][idx], "z": z})
        assert _same_bits(g, full[: len(g_out)])
        assert rows.shape == (len(l_out), 8, 6) and _same_bits(rows, gathered[len(g_out) :])

    def test_nodes_are_interned_by_operator_and_operand_slots(self):
        program = Program()
        a, b = parse("exp(-0.5*t)*x1"), parse("exp(-0.5*t)*x1")
        assert a is not b and program.lower(a) == program.lower(b)
        assert program.lower(parse("x1*exp(-0.5*t)")) != program.lower(a)
        # folded constants keep the sign of zero: x1 + -0.0 is not x1 + 0.0
        assert program.lower(parse("x1 + -0.0")) != program.lower(parse("x1 + 0.0"))
        assert program.lower(parse("x1 + -(1 - 1)")) == program.lower(parse("x1 + -0.0"))
        assert program.nodes[program.lower(parse("2^3 - 1"))] == ("const", 7.0)

    def test_a_nan_sign_is_not_compared(self):
        # numpy gives NaN + -NaN the sign of one operand in its SIMD body and
        # of the other in its remainder loop, so one 12-row call and twelve
        # one-row calls of log(x1) + -log(x1) at x1 < 0 may hold NaNs of
        # opposite sign; _same_bits compares NaN positions and all other bits
        kernel = Kernel(Program(), [("g", [("g", parse("log(x1) + -log(x1)"))])], [], check=False)
        x1, t = -np.arange(1.0, 13.0), np.zeros(12)
        full = evaluate_many(kernel, {"t": t, "x1": x1})[0]
        rows = np.concatenate([evaluate_many(kernel, {"t": t[j : j + 1], "x1": x1[j : j + 1]})[0]
                               for j in range(12)])
        assert np.isnan(full).all() and _same_bits(full, rows)
        assert not _same_bits(np.array([-0.0, np.nan]), np.array([0.0, np.nan]))
        assert not _same_bits(np.array([1.0, np.nan]), np.array([np.nan, np.nan]))
        assert not _same_bits(np.zeros(2), np.zeros(3))

    def test_non_finite_output_names_the_first_one_and_its_t(self):
        g = [("z integrand", parse("x1^2"))]
        L = [("a", parse("x1")), ("b", parse("1/(t - 2)")), ("c", parse("log(t - 3)"))]
        kernel = Kernel(Program(), [("g", g)], [("L", L)])
        env = {"t": np.arange(5.0), "x1": np.ones(5)}
        with pytest.raises(ExprDomainError) as exc:
            evaluate_many(kernel, env, lambda g: np.cumsum(g))
        assert str(exc.value) == "b '1.0/(t - 2.0)' is non-finite at t=2.0"

    def test_g_stage_is_checked_before_z_is_summed(self):
        kernel = Kernel(Program(), [("g", [("z integrand", parse("log(x1)"))])], [("L", [("L", parse("z"))])])
        env = {"t": np.arange(4.0), "x1": np.array([1.0, 1.0, -1.0, 1.0])}

        def z_sum(g):
            raise AssertionError("summed a non-finite g")

        with pytest.raises(ExprDomainError) as exc:
            evaluate_many(kernel, env, z_sum)
        assert str(exc.value) == "z integrand 'log(x1)' is non-finite at t=2.0"

    def test_g_stage_must_not_read_z(self):
        with pytest.raises(ValueError):
            Kernel(Program(), [("g", [("g", parse("z + x1"))])], [])
