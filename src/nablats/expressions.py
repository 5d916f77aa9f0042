"""A small expression language for Lagrangians and constraint integrands.

Variables: t, z, x1..xn (state sampled at rho(t)), v1..vn (nabla derivative).
Operators: + - * / ^ (right-associative power), unary minus.  Functions:
exp, log, sin, cos, sqrt.  Constants pi and e fold to numbers at parse time.

Precedence, tightest first:  ^  >  unary -  >  * /  >  + -.

``parse`` reports syntax problems with the byte offset of the offending
token.  A ``Program`` lowers many expressions into one hash-consed program,
and a ``Kernel`` evaluates a chosen set of them together through
``evaluate_many``, with IEEE semantics: each shared subtree is evaluated
once per call, and the stacked result is checked for non-finite values
once per stage, naming the first offending output.  The values are bit for
bit those of a numpy walk of each tree, a NaN's sign aside; the tests keep
that walk as their oracle (``tests/tree_walk.py``).  A kernel keeps no
state between calls.  It also runs in two steps, its z-free part on a
table of points and its z part on rows gathered from it (``Kernel.table``,
``Kernel.gather``), bit for bit a full call on the gathered rows, a NaN's
sign aside.

``bind_shape`` compiles a problem once per shape and process: requests
that differ only in their lifted literals (``Param``) bind their values.
"""

from __future__ import annotations

import copy
import logging
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

_log = logging.getLogger("nablats")


class ExprSyntaxError(ValueError):
    """Parse failure; ``offset`` is the byte position in the source string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ValueError):
    """Evaluation failure, carrying the offending subtree's source form."""


class MissingVariableError(KeyError):
    pass


# -- nodes --------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # one of exp log sin cos sqrt
    arg: "Expr"


class Param:
    """A lifted literal: bound value ``key`` if an int, else a fold (op,
    operands...) of literals made by ``differentiate``.  A plain class: a
    dataclass costs a millisecond of import."""

    __slots__ = ("key",)

    def __init__(self, key: Union[int, tuple]):
        self.key = key

    def __eq__(self, other) -> bool:
        return isinstance(other, Param) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Param({self.key!r})"


# not typing.Union, whose cache would keep this module and its shapes alive
# after a re-import
Expr = Num | Var | Neg | BinOp | Call | Param

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
_VAR_RE = re.compile(r"^(t|z|x[1-9][0-9]*|v[1-9][0-9]*)$")


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[bad_at]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                e = BinOp(val, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                e = BinOp(val, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in CONSTANTS:
                return Num(CONSTANTS[val])
            if _VAR_RE.match(val):
                return Var(val)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", off)
        raise ExprSyntaxError(f"unexpected token {val!r}", off)


def parse(src: str) -> Expr:
    """Parse an expression string; raises ExprSyntaxError with byte offset."""
    return _Parser(src).parse()


# -- printer ------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE[e.op]
    if isinstance(e, Neg):
        return _PRECEDENCE["neg"]
    return 9


def to_source(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_source(e)) evaluates like e."""
    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            return f"(-{-e.value!r})"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        if _prec(e.arg) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        p = _PRECEDENCE[e.op]
        ls = to_source(e.left)
        rs = to_source(e.right)
        # left operand: parenthesize on lower precedence ('^' is right-assoc,
        # so equal precedence on the left also needs parens)
        if _prec(e.left) < p or (e.op == "^" and _prec(e.left) == p):
            ls = f"({ls})"
        # right operand: '-' and '/' are left-associative
        rp = _prec(e.right)
        if rp < p or (rp == p and e.op in ("-", "/")):
            rs = f"({rs})"
        return f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation ---------------------------------------------------------------


def variables(e: Expr) -> set[str]:
    """The names ``e`` reads, visiting each distinct node once: the tree of a
    DAG that ``differentiate`` builds can be exponentially larger."""
    names, seen, stack = set(), set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            kind = type(node)
            if kind is Var:
                names.add(node.name)
            elif kind is BinOp:
                stack += node.left, node.right
            elif kind is Neg or kind is Call:
                stack.append(node.arg)
    return names


def evaluate_many(kernel: "Kernel", env: Mapping[str, np.ndarray], z_sum=None) -> np.ndarray:
    """Run a compiled ``Kernel`` on numpy arrays (``Kernel.run``); non-finite
    values propagate to its check without a numpy warning."""
    with np.errstate(all="ignore"):
        return kernel.run(env, z_sum)


# the numpy operation of every operator
_OPS = {
    "neg": operator.neg,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}
_BINARY = ("+", "-", "*", "/", "^")


def _var_value(env, name: str) -> np.ndarray:
    try:
        return np.asarray(env[name], dtype=float)
    except KeyError:
        raise MissingVariableError(name) from None


# -- compiled kernels -----------------------------------------------------------


#: what a slot's value varies with, ordered so an operation has its operands' maximum
_CONST, _PARAM, _T, _XV, _Z = range(5)


class Program:
    """One hash-consed program shared by every kernel of a shape.

    Lowering gives each distinct node one slot, interned by its operator and
    its operands' slots, so equal subtrees share a slot however they were
    built.  Slots are numbered operands first, so slot order is an
    evaluation order.  Subtrees without variables or parameters are folded
    at lowering with the numpy operations a call applies, on 0-d arrays, so
    a folded value is bit for bit that of the tests' tree walk
    (``tests/tree_walk.py``); constants are interned by their bits, which
    keeps -0.0 apart from 0.0.
    Subtrees of parameters alone are evaluated the same way once per binding
    (``Kernel.bind``); every other subtree runs in its stage at each call.
    """

    def __init__(self):
        self.nodes: list[tuple] = []  # (op, operand slots...), ("var", name), ("param", i) or ("const", value)
        self.kinds: list[int] = []  # _CONST, _PARAM, _T, _XV or _Z
        self._slots: dict[tuple, int] = {}
        self._lowered: dict[int, tuple[Expr, int]] = {}  # id(node) -> (node, slot)

    def lower(self, e: Expr) -> int:
        """The slot of ``e``, lowering and interning its nodes on first sight."""
        hit = self._lowered.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        if isinstance(e, Num):
            slot = self._const(np.asarray(e.value))
        elif isinstance(e, Var):
            kind = _T if e.name == "t" else _Z if e.name == "z" else _XV
            slot = self._new(("var", e.name), ("var", e.name), kind)
        elif isinstance(e, Param) and isinstance(e.key, int):
            slot = self._new(("param", e.key), ("param", e.key), _PARAM)
        else:
            if isinstance(e, BinOp) and e.op in _BINARY:
                key = (e.op, self.lower(e.left), self.lower(e.right))
            elif isinstance(e, Neg):
                key = ("neg", self.lower(e.arg))
            elif isinstance(e, Call) and e.fn in FUNCTIONS:
                key = (e.fn, self.lower(e.arg))
            elif isinstance(e, Call):
                raise ValueError(f"unknown function {e.fn!r}")
            elif isinstance(e, Param):
                key = (e.key[0], *map(self.lower, e.key[1:]))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            slot = self._slots.get(key)
            if slot is None:
                kind = max(self.kinds[key[1]], self.kinds[key[-1]])
                if kind == _CONST:
                    with np.errstate(all="ignore"):
                        value = _OPS[key[0]](*(self.nodes[a][1] for a in key[1:]))
                    slot = self._slots[key] = self._const(value)
                else:
                    slot = self._new(key, key, kind)
        self._lowered[id(e)] = (e, slot)
        return slot

    def _new(self, key: tuple, node: tuple, kind: int) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.nodes)
            self.nodes.append(node)
            self.kinds.append(kind)
        return slot

    def _const(self, value) -> int:
        return self._new(("const", np.asarray(value, dtype=float).tobytes()), ("const", value), _CONST)


class Kernel:
    """Outputs of one ``Program`` evaluated together at one point.

    ``g_stage`` and ``l_stage`` are lists of (group, [(label, expression),
    ...]); each output is one row of the stacked result, in order, and
    ``rows[group]`` is the slice of a group's rows.  The first g-stage row
    is the z integrand; no g-stage output may read z.  With ``check``, a
    non-finite output raises ``ExprDomainError`` naming the first such
    output (in row order) by its label and source, and its first t.  A
    kernel that reads a ``Param`` runs once bound (``bind``).  The values
    are bit for bit those of the tests' numpy tree walk of each expression
    (``tests/tree_walk.py``), a NaN's sign aside: numpy gives NaN + -NaN the sign of
    either operand, depending on the array's length.  ``table`` and
    ``gather`` split a call at z: the g stage and the L stage's z-free ops
    once on a table of points, then the ops that read z on points gathered
    from it.
    """

    def __init__(self, program: Program, g_stage, l_stage, check: bool = True):
        self.program, self.check = program, check
        self.rows: dict[str, slice] = {}
        self.outputs: list[tuple[str, Expr, int]] = []
        for group, entries in list(g_stage) + list(l_stage):
            start = len(self.outputs)
            self.outputs += [(label, e, program.lower(e)) for label, e in entries]
            self.rows[group] = slice(start, len(self.outputs))
        self.n_g = sum(len(entries) for _, entries in g_stage)
        slots = [s for _, _, s in self.outputs]
        g_needed = self._needed(slots[: self.n_g])
        l_needed = self._needed(slots[self.n_g :]) - g_needed
        nodes, kinds = program.nodes, program.kinds
        if any(kinds[s] == _Z for s in g_needed):
            raise ValueError("a g-stage output reads z")
        # vals[slot] in a call: constants now, parameters on binding, variables
        # on entry
        self.template: list = [None] * (max(slots, default=-1) + 1)
        self.vars, self.params, self.z_slot = [], [], None
        self.p_ops, self.g_ops, self.l_ops = [], [], []
        for s in sorted(g_needed | l_needed):
            op, *args = nodes[s]
            if op == "const":
                self.template[s] = args[0]
            elif op == "param":
                self.params.append((s, args[0]))
            elif op == "var" and args[0] == "z":
                self.z_slot = s
            elif op == "var":
                self.vars.append((s, args[0]))
            else:
                ops = (self.p_ops if kinds[s] == _PARAM else self.g_ops if s in g_needed
                       else self.l_ops)
                ops.append((s, _OPS[op], args[0], args[1] if len(args) > 1 else None))
        # the L stage's z-free ops first, then those that read z (``table``)
        self.l_ops.sort(key=lambda step: kinds[step[0]] == _Z)
        self.n_free = sum(kinds[s] != _Z for s, *_ in self.l_ops)
        # drop each intermediate after its last reader, as a tree walk does,
        # so that a batch holds few temporaries at a time
        steps = self.g_ops + self.l_ops
        last = {arg: i for i, (_, _, a, b) in enumerate(steps) for arg in (a, b)}
        frees: list[list[int]] = [[] for _ in steps]
        outputs = set(slots)
        for s, *_ in steps:
            if s not in outputs:
                frees[last[s]].append(s)
        steps = [step + (tuple(free),) for step, free in zip(steps, frees)]
        self.g_ops, self.l_ops = steps[: len(self.g_ops)], steps[len(self.g_ops) :]
        # the z-free values ``gather`` reads: operands of the z ops and z-free
        # L-stage outputs, the (slot, whether it reads x or v) of each
        z_ops = self.l_ops[self.n_free :]
        read = {arg for _, _, a, b, _ in z_ops for arg in (a, b)} | set(slots[self.n_g :])
        self.gathered = [(s, kinds[s] == _XV) for s in sorted(read - {None}) if _T <= kinds[s] < _Z]
        self.values: tuple = ()

    def _needed(self, slots) -> set[int]:
        seen, todo = set(), list(slots)
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                op, *args = self.program.nodes[s]
                if op not in ("const", "var", "param"):
                    todo += args
        return seen

    def bind(self, values) -> "Kernel":
        """A copy with ``Param(i)`` bound to ``values[i]``: its subtrees of
        parameters alone are evaluated here, once."""
        bound = copy.copy(self)
        bound.values = tuple(values)
        vals = bound.template = self.template.copy()
        for s, i in self.params:
            vals[s] = np.asarray(values[i])
        with np.errstate(all="ignore"):
            for s, op, a, b in self.p_ops:
                vals[s] = op(vals[a]) if b is None else op(vals[a], vals[b])
        return bound

    def run(self, env, z_sum=None) -> np.ndarray:
        """Evaluate every output on ``env``; call through ``evaluate_many``.

        The g stage runs first; then ``z_sum``, if given, maps the z
        integrand row to z, stored as ``env["z"]``; then the L stage.  The
        result has one row per output, broadcast to the shape of ``env``'s
        arrays (a leading batch axis carries through).  With ``check``, each
        stage's rows are tested once, the g stage's before the sum.
        """
        vals = self._enter(env)
        out = np.empty((len(self.outputs),) + np.broadcast_shapes(*map(np.shape, env.values())))
        self._stage(self.g_ops, vals, out, 0, self.n_g, env)
        if z_sum is not None:
            env["z"] = z_sum(out[0])
        if self.z_slot is not None:
            vals[self.z_slot] = _var_value(env, "z")
        self._stage(self.l_ops, vals, out, self.n_g, len(self.outputs), env)
        return out

    def table(self, envs) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The g-stage rows and the z-free values ``gather`` reads, on the
        table stacked from the blocks ``envs`` along their leading axis.
        Each env holds one t, and x and v arrays of the block's full shape.
        The g stage and the L stage's z-free ops run here, once per table;
        unchecked.  The g-stage rows are those of ``run`` on the table, bit
        for bit, a NaN's sign aside.
        """
        rows, parts = [], []
        for env in envs:
            vals = self._enter(env)
            _apply(self.g_ops + self.l_ops[: self.n_free], vals)
            shape = np.broadcast_shapes(*map(np.shape, env.values()))
            rows.append(_rows(vals, self.outputs[: self.n_g], shape))
            parts.append([vals[s] for s, _ in self.gathered])
        kept = {s: np.concatenate(blocks) if xv else blocks[0]
                for (s, xv), blocks in zip(self.gathered, zip(*parts))}
        return np.concatenate(rows, axis=1), kept

    def gather(self, kept, idx, z) -> np.ndarray:
        """The L-stage rows ``run`` gives, bit for bit, a NaN's sign aside,
        on the table's env indexed by ``idx`` (an index array or a slice)
        along its leading axis, with ``z`` as z: an array of that shape, or
        of any shape it broadcasts to, such as (m, r, B) against a slice of
        r table rows of B values; the rows take z's shape.  Only the ops
        that read z run, on the z-free values they read, indexed;
        unchecked."""
        vals = self.template.copy()
        for s, xv in self.gathered:
            vals[s] = kept[s][idx] if xv else kept[s]
        if self.z_slot is not None:
            vals[self.z_slot] = z
        _apply(self.l_ops[self.n_free :], vals)
        return _rows(vals, self.outputs[self.n_g :], np.shape(z))

    def _enter(self, env) -> list:
        """The value of every slot on entry: the constants, the bound
        parameters and ``env``'s variables."""
        vals = self.template.copy()
        for s, name in self.vars:
            vals[s] = _var_value(env, name)
        return vals

    def _stage(self, ops, vals, out, start, stop, env) -> None:
        _apply(ops, vals)
        for r in range(start, stop):
            out[r] = vals[self.outputs[r][2]]
        if self.check and not np.isfinite(out[start:stop]).all():
            # the first output with a non-finite value, and its first grid column
            bad = ~np.isfinite(out[start:stop]).reshape(stop - start, -1, out.shape[-1])
            r = int(np.argmax(bad.any(axis=(1, 2))))
            j = int(np.argmax(bad[r].any(axis=0)))
            t = np.broadcast_to(_var_value(env, "t"), out.shape[-1:])[j]
            label, e, _ = self.outputs[start + r]
            source = to_source(substitute(e, self.values))
            raise ExprDomainError(f"{label} '{source}' is non-finite at t={float(t)!r}")


def _apply(ops, vals: list) -> None:
    """Run ``ops`` on the slot values ``vals``, dropping each intermediate
    after its last reader."""
    for s, op, a, b, free in ops:
        vals[s] = op(vals[a]) if b is None else op(vals[a], vals[b])
        for f in free:
            vals[f] = None


def _rows(vals: list, outputs, shape) -> np.ndarray:
    """The values of ``outputs`` stacked, each broadcast to ``shape``."""
    out = np.empty((len(outputs),) + tuple(shape))
    for r, (_, _, s) in enumerate(outputs):
        out[r] = vals[s]
    return out


def _touch(cache: dict, key, value, size: int):
    """``value``, stored as the newest entry of ``cache`` of ``size``."""
    cache.pop(key, None)
    cache[key] = value
    if len(cache) > size:
        del cache[next(iter(cache))]
    return value


# -- shapes: compiled once per process, bound per request -------------------------


#: how many shapes the process keeps compiled; the least recently bound goes first
SHAPES_KEPT = 16
_SHAPES: dict[tuple, "Shape"] = {}


def _kept(value, exponent: bool) -> bool:
    """A literal that stays in its shape: ``differentiate`` branches on an
    exponent (the power rule folds exponent - 1) and on 0 and 1."""
    return exponent or value == 0.0 or value == 1.0


def _shape_key(e: Expr, key: list, values: list, exponent: bool = False) -> None:
    """Append e's shape to ``key`` (kept literals by repr: -0.0 is not 0.0)
    and its lifted literals to ``values``, in prefix order."""
    if isinstance(e, Num):
        if _kept(e.value, exponent):
            key.append(repr(e.value))
        else:
            key.append(None)
            values.append(e.value)
    elif isinstance(e, Var):
        key.append(e.name)
    elif isinstance(e, BinOp):
        key.append(e.op)
        _shape_key(e.left, key, values)
        _shape_key(e.right, key, values, e.op == "^")
    elif isinstance(e, (Neg, Call)):
        key.append(getattr(e, "fn", "neg"))
        _shape_key(e.arg, key, values)
    else:
        raise TypeError(f"not an expression node: {e!r}")


def _rebuild(e: Expr, leaf, exponent: bool = False) -> Expr:
    """e with each leaf replaced by ``leaf(node, whether it is an exponent)``."""
    if isinstance(e, Neg):
        return Neg(_rebuild(e.arg, leaf))
    if isinstance(e, Call):
        return Call(e.fn, _rebuild(e.arg, leaf))
    if isinstance(e, BinOp):
        return BinOp(e.op, _rebuild(e.left, leaf), _rebuild(e.right, leaf, e.op == "^"))
    return leaf(e, exponent)


def _fold(e: Expr, values) -> float:
    """A Num or Param under ``values``, folded as ``differentiate`` folds."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e.key, int):
        return values[e.key]
    return _OPS[e.key[0]](*(_fold(a, values) for a in e.key[1:]))


def substitute(e: Expr, values) -> Expr:
    """e with each ``Param`` replaced by its literal under ``values``: the
    expression ``differentiate`` gives on the literals themselves."""
    return _rebuild(e, lambda leaf, _: Num(_fold(leaf, values)) if isinstance(leaf, Param) else leaf)


class Shape:
    """One compiled shape: ``derived`` from the lifted expressions under
    ``values``, the outcome of each test of a fold made meanwhile
    (``equals``), which other values must repeat (``hold``), and one
    ``Program`` with its ``Kernel``s."""

    def __init__(self, values):
        self.values, self.tests, self.derived = values, {}, None
        self.program, self.kernels = Program(), {}

    def equals(self, e: Param, value: float) -> bool:
        self.tests[e, value] = outcome = _fold(e, self.values) == value
        return outcome

    def hold(self, values) -> bool:
        return all((_fold(e, values) == value) is outcome for (e, value), outcome in self.tests.items())


class Binding:
    """A shape's kernels bound to one request's values."""

    def __init__(self, shape: Shape, values):
        self.shape, self.values = shape, tuple(values)
        self._bound: dict = {}

    def kernel(self, key, build: Callable[[Shape, object], Kernel]) -> Kernel:
        """Kernel ``key``, compiled by ``build(shape, key)`` once per shape."""
        bound = self._bound.get(key)
        if bound is None:
            kernel = self.shape.kernels.get(key)
            if kernel is None:
                kernel = self.shape.kernels[key] = build(self.shape, key)
                _log.debug("compiled kernel %s of a shape with %d parameters: %d slots",
                           "+".join(kernel.rows), len(self.values), len(self.shape.program.nodes))
            bound = self._bound[key] = kernel.bind(self.values)
        return bound


def bind_shape(trees, tag, derive: Callable[..., object]) -> Binding:
    """``trees`` bound to their shape, cached in the process or derived now
    by ``derive(tag, *lifted trees, shape)``, which passes the shape to
    ``differentiate`` as its guards.  The shape is ``tag`` and the trees
    with each literal lifted but exponents and values equal to 0 or 1.
    """
    key, values = [tag], []
    for e in trees:
        _shape_key(e, key, values)
    key = tuple(key)
    shape = _SHAPES.get(key)
    if shape is None or not shape.hold(values):
        shape, count = Shape(values), iter(range(len(values)))

        def lift(leaf, exponent):  # numbered in the order of _shape_key
            return Param(next(count)) if isinstance(leaf, Num) and not _kept(leaf.value, exponent) else leaf

        shape.derived = derive(tag, *(_rebuild(e, lift) for e in trees), shape)
    return Binding(_touch(_SHAPES, key, shape, SHAPES_KEPT), values)


# -- symbolic differentiation ---------------------------------------------------


def _is_num(e: Expr, value: float, guards: Shape | None) -> bool:
    """e is a literal equal to ``value`` (0 or 1, so never a lifted one); a
    fold is tested by ``guards``."""
    if isinstance(e, Num):
        return e.value == value
    return isinstance(e, Param) and not isinstance(e.key, int) and guards.equals(e, value)


def _fold_literals(op: str, *args: Expr) -> Expr | None:
    """op folded on literals: a Num or a Param fold; None on non-literals."""
    if all(isinstance(a, Num) for a in args):
        return Num(_OPS[op](*(a.value for a in args)))
    if all(isinstance(a, (Num, Param)) for a in args):
        return Param((op, *args))
    return None


def _add(a: Expr, b: Expr, g) -> Expr:
    if _is_num(a, 0.0, g):
        return b
    if _is_num(b, 0.0, g):
        return a
    return _fold_literals("+", a, b) or BinOp("+", a, b)


def _sub(a: Expr, b: Expr, g) -> Expr:
    if _is_num(b, 0.0, g):
        return a
    if _is_num(a, 0.0, g):
        return _neg(b)
    return _fold_literals("-", a, b) or BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    return _fold_literals("neg", a) or Neg(a)


def _mul(a: Expr, b: Expr, g) -> Expr:
    if _is_num(a, 0.0, g) or _is_num(b, 0.0, g):
        return Num(0.0)
    if _is_num(a, 1.0, g):
        return b
    if _is_num(b, 1.0, g):
        return a
    return _fold_literals("*", a, b) or BinOp("*", a, b)


def _div(a: Expr, b: Expr, g) -> Expr:
    if _is_num(a, 0.0, g):
        return Num(0.0)
    if _is_num(b, 1.0, g):
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr, g) -> Expr:
    if _is_num(b, 1.0, g):
        return a
    if _is_num(b, 0.0, g):
        return Num(1.0)
    return BinOp("^", a, b)


def differentiate(e: Expr, var: str, guards: Shape | None = None) -> Expr:
    """Symbolic partial derivative with light constant folding.

    Constant exponents use the power rule; a general f^g is rewritten as
    exp(g * log(f)) before differentiating.  ``guards`` tests folds of
    lifted literals (``Shape.equals``).
    """
    g = guards
    if isinstance(e, (Num, Param)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var, g))
    if isinstance(e, Call):
        du = differentiate(e.arg, var, g)
        if _is_num(du, 0.0, g):
            return Num(0.0)
        u = e.arg
        if e.fn == "exp":
            return _mul(Call("exp", u), du, g)
        if e.fn == "log":
            return _div(du, u, g)
        if e.fn == "sin":
            return _mul(Call("cos", u), du, g)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", u), du, g))
        if e.fn == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", u), g), g)
        raise ValueError(f"unknown function {e.fn!r}")
    if isinstance(e, BinOp):
        if e.op == "+":
            return _add(differentiate(e.left, var, g), differentiate(e.right, var, g), g)
        if e.op == "-":
            return _sub(differentiate(e.left, var, g), differentiate(e.right, var, g), g)
        if e.op == "*":
            return _add(
                _mul(differentiate(e.left, var, g), e.right, g),
                _mul(e.left, differentiate(e.right, var, g), g),
                g,
            )
        if e.op == "/":
            df, dg = differentiate(e.left, var, g), differentiate(e.right, var, g)
            if _is_num(dg, 0.0, g):
                return _div(df, e.right, g)
            num = _sub(_mul(df, e.right, g), _mul(e.left, dg, g), g)
            return _div(num, _mul(e.right, e.right, g), g)
        if e.op == "^":
            base, expo = e.left, e.right
            if isinstance(expo, Num):
                db = differentiate(base, var, g)
                if _is_num(db, 0.0, g):
                    return Num(0.0)
                return _mul(_mul(expo, _pow(base, Num(expo.value - 1.0), g), g), db, g)
            # general base^exponent via exp(exponent * log(base))
            rewritten = Call("exp", _mul(expo, Call("log", base), g))
            return differentiate(rewritten, var, g)
    raise TypeError(f"not an expression node: {e!r}")
