"""A small expression language for Lagrangians and constraint integrands.

Variables: t, z, x1..xn (state sampled at rho(t)), v1..vn (nabla derivative).
Operators: + - * / ^ (right-associative power), unary minus.  Functions:
exp, log, sin, cos, sqrt.  Constants pi and e fold to numbers at parse time.

Precedence, tightest first:  ^  >  unary -  >  * /  >  + -.

``parse`` reports syntax problems with the byte offset of the offending
token.  ``evaluate`` is strict about domains (log of non-positive, division
by zero, ...) and names the offending subtree; ``evaluate_many`` is the
vectorized numpy twin used in hot paths, with IEEE semantics (non-finite
values propagate and are checked by callers).

A ``Program`` lowers many expressions into one hash-consed program, and a
``Kernel`` evaluates a chosen set of them together (``evaluate_many``
dispatches on it): the values are bit for bit those of the tree walk, each
shared subtree is evaluated once per call and each subtree of t alone once
per t array, and the stacked result is checked for non-finite values once
per stage.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np


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


Expr = Union[Num, Var, Neg, BinOp, Call]

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
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, Call):
        return variables(e.arg)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    return set()


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Strict scalar evaluation with domain checks naming the subtree."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise MissingVariableError(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Call):
        x = evaluate(e.arg, env)
        try:
            if e.fn == "exp":
                return math.exp(x)
            if e.fn == "log":
                if x <= 0:
                    raise ExprDomainError(f"log of non-positive ({x!r}) in '{to_source(e)}'")
                return math.log(x)
            if e.fn == "sin":
                return math.sin(x)
            if e.fn == "cos":
                return math.cos(x)
            if e.fn == "sqrt":
                if x < 0:
                    raise ExprDomainError(f"sqrt of negative ({x!r}) in '{to_source(e)}'")
                return math.sqrt(x)
        except OverflowError:
            raise ExprDomainError(f"overflow in '{to_source(e)}'") from None
        raise ValueError(f"unknown function {e.fn!r}")
    if isinstance(e, BinOp):
        a = evaluate(e.left, env)
        b = evaluate(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise ExprDomainError(f"division by zero in '{to_source(e)}'")
            return a / b
        if e.op == "^":
            try:
                r = a**b
            except (OverflowError, ZeroDivisionError, ValueError):
                raise ExprDomainError(f"invalid power ({a!r})^({b!r}) in '{to_source(e)}'") from None
            if isinstance(r, complex):
                raise ExprDomainError(f"complex power ({a!r})^({b!r}) in '{to_source(e)}'")
            return r
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_many(e: Union[Expr, "Kernel"], env: Mapping[str, np.ndarray], z_sum=None) -> np.ndarray:
    """Vectorized evaluation over numpy arrays; non-finite values propagate.

    ``e`` may also be a compiled ``Kernel``; then ``z_sum`` turns its z
    integrand row into z (see ``Kernel.run``).
    """
    with np.errstate(all="ignore"):
        if isinstance(e, Kernel):
            return e.run(env, z_sum)
        return _eval_many(e, env)


# the numpy operation of every operator, shared by the tree walk and the kernel
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


def _eval_many(e: Expr, env) -> np.ndarray:
    if isinstance(e, Num):
        return np.asarray(e.value)
    if isinstance(e, Var):
        return _var_value(env, e.name)
    if isinstance(e, Neg):
        return -_eval_many(e.arg, env)
    if isinstance(e, Call):
        x = _eval_many(e.arg, env)
        if e.fn not in FUNCTIONS:
            raise ValueError(f"unknown function {e.fn!r}")
        return _OPS[e.fn](x)
    if isinstance(e, BinOp) and e.op in _BINARY:
        return _OPS[e.op](_eval_many(e.left, env), _eval_many(e.right, env))
    raise TypeError(f"not an expression node: {e!r}")


# -- compiled kernels -----------------------------------------------------------


#: what a slot's value varies with, ordered so an operation has its operands' maximum
_CONST, _T, _XV, _Z = range(4)


class Program:
    """One hash-consed program shared by every kernel of a problem.

    Lowering gives each distinct node one slot, interned by its operator and
    its operands' slots, so equal subtrees share a slot however they were
    built.  Slots are numbered operands first, so slot order is an
    evaluation order.  Subtrees without variables are folded at lowering
    with the numpy operations ``evaluate_many`` applies to their 0-d arrays,
    so a folded value is bit for bit the value of the tree walk; constants
    are interned by their bits, which keeps -0.0 apart from 0.0.
    Subtrees that read t alone are evaluated once per t array (``t_values``).
    """

    def __init__(self):
        self.nodes: list[tuple] = []  # (op, operand slots...), ("var", name) or ("const", value)
        self.kinds: list[int] = []  # _CONST, _T, _XV or _Z
        self._slots: dict[tuple, int] = {}
        self._lowered: dict[int, tuple[Expr, int]] = {}  # id(node) -> (node, slot)
        self._t_values: dict[bytes, dict[int, np.ndarray]] = {}

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
        else:
            if isinstance(e, BinOp) and e.op in _BINARY:
                key = (e.op, self.lower(e.left), self.lower(e.right))
            elif isinstance(e, Neg):
                key = ("neg", self.lower(e.arg))
            elif isinstance(e, Call) and e.fn in FUNCTIONS:
                key = (e.fn, self.lower(e.arg))
            elif isinstance(e, Call):
                raise ValueError(f"unknown function {e.fn!r}")
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

    def t_values(self, t: np.ndarray) -> dict[int, np.ndarray]:
        """The cache of t-only slot values on this t array."""
        return self._t_values.setdefault(t.tobytes(), {})


class Kernel:
    """Outputs of one ``Program`` evaluated together at one point.

    ``g_stage`` and ``l_stage`` are lists of (group, [(label, expression),
    ...]); each output is one row of the stacked result, in order, and
    ``rows[group]`` is the slice of a group's rows.  The first g-stage row
    is the z integrand; no g-stage output may read z.  With ``check``, a
    non-finite output raises ``ExprDomainError`` naming the first such
    output (in row order) by its label and source, and its first t.
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
        # vals[slot] in a call: constants now, variables and t-only values on entry
        self.template: list = [None] * (max(slots, default=-1) + 1)
        self.vars, self.z_slot = [], None
        self.t_ops, self.g_ops, self.l_ops = [], [], []
        for s in sorted(g_needed | l_needed):
            op, *args = nodes[s]
            if op == "const":
                self.template[s] = args[0]
            elif op == "var" and args[0] == "z":
                self.z_slot = s
            elif op == "var":
                self.vars.append((s, args[0]))
            else:
                ops = self.t_ops if kinds[s] == _T else self.g_ops if s in g_needed else self.l_ops
                ops.append((s, _OPS[op], args[0], args[1] if len(args) > 1 else None))
        # drop each intermediate after its last reader, as the tree walk does,
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

    def _needed(self, slots) -> set[int]:
        seen, todo = set(), list(slots)
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                op, *args = self.program.nodes[s]
                if op not in ("const", "var"):
                    todo += args
        return seen

    def run(self, env, z_sum=None) -> np.ndarray:
        """Evaluate every output on ``env``; call through ``evaluate_many``.

        The g stage runs first; then ``z_sum``, if given, maps the z
        integrand row to z, stored as ``env["z"]``; then the L stage.  The
        result has one row per output, broadcast to the shape of ``env``'s
        arrays (a leading batch axis carries through).  With ``check``, each
        stage's rows are tested once, the g stage's before the sum.
        """
        vals = self.template.copy()
        for s, name in self.vars:
            vals[s] = _var_value(env, name)
        if self.t_ops:
            cache = self.program.t_values(_var_value(env, "t"))
            for s, op, a, b in self.t_ops:
                if s not in cache:
                    cache[s] = op(vals[a]) if b is None else op(vals[a], vals[b])
                vals[s] = cache[s]
        out = np.empty((len(self.outputs),) + np.broadcast_shapes(*map(np.shape, env.values())))
        self._stage(self.g_ops, vals, out, 0, self.n_g, env)
        if z_sum is not None:
            env["z"] = z_sum(out[0])
        if self.z_slot is not None:
            vals[self.z_slot] = _var_value(env, "z")
        self._stage(self.l_ops, vals, out, self.n_g, len(self.outputs), env)
        return out

    def _stage(self, ops, vals, out, start, stop, env) -> None:
        for s, op, a, b, free in ops:
            vals[s] = op(vals[a]) if b is None else op(vals[a], vals[b])
            for f in free:
                vals[f] = None
        for r in range(start, stop):
            out[r] = vals[self.outputs[r][2]]
        if self.check and not np.isfinite(out[start:stop]).all():
            # the first output with a non-finite value, and its first grid column
            bad = ~np.isfinite(out[start:stop]).reshape(stop - start, -1, out.shape[-1])
            r = int(np.argmax(bad.any(axis=(1, 2))))
            j = int(np.argmax(bad[r].any(axis=0)))
            t = np.broadcast_to(_var_value(env, "t"), out.shape[-1:])[j]
            label, e, _ = self.outputs[start + r]
            raise ExprDomainError(f"{label} '{to_source(e)}' is non-finite at t={float(t)!r}")


# -- symbolic differentiation ---------------------------------------------------


def _is_num(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with light constant folding.

    Constant exponents use the power rule; a general f^g is rewritten as
    exp(g * log(f)) before differentiating.
    """
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Call):
        du = differentiate(e.arg, var)
        if _is_num(du, 0.0):
            return Num(0.0)
        u = e.arg
        if e.fn == "exp":
            return _mul(Call("exp", u), du)
        if e.fn == "log":
            return _div(du, u)
        if e.fn == "sin":
            return _mul(Call("cos", u), du)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", u), du))
        if e.fn == "sqrt":
            return _div(du, _mul(Num(2.0), Call("sqrt", u)))
        raise ValueError(f"unknown function {e.fn!r}")
    if isinstance(e, BinOp):
        if e.op == "+":
            return _add(differentiate(e.left, var), differentiate(e.right, var))
        if e.op == "-":
            return _sub(differentiate(e.left, var), differentiate(e.right, var))
        if e.op == "*":
            return _add(
                _mul(differentiate(e.left, var), e.right),
                _mul(e.left, differentiate(e.right, var)),
            )
        if e.op == "/":
            df, dg = differentiate(e.left, var), differentiate(e.right, var)
            if _is_num(dg, 0.0):
                return _div(df, e.right)
            num = _sub(_mul(df, e.right), _mul(e.left, dg))
            return _div(num, _mul(e.right, e.right))
        if e.op == "^":
            base, expo = e.left, e.right
            if isinstance(expo, Num):
                db = differentiate(base, var)
                if _is_num(db, 0.0):
                    return Num(0.0)
                return _mul(_mul(expo, _pow(base, Num(expo.value - 1.0))), db)
            # general base^exponent via exp(exponent * log(base))
            rewritten = Call("exp", _mul(expo, Call("log", base)))
            return differentiate(rewritten, var)
    raise TypeError(f"not an expression node: {e!r}")
