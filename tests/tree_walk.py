"""The tests' evaluation oracle: a numpy walk of an expression tree.

``tree_walk(e, env)`` evaluates ``e`` on the numpy arrays (or floats) of
``env`` with IEEE semantics: a non-finite value propagates, without a numpy
warning.  A compiled ``Kernel`` gives these values bit for bit, a NaN's sign
aside.  The walk applies its own table of numpy operations, so it does not
share the kernel's lowering, folding or operation table.
"""

import operator

import numpy as np

from nablats.expressions import BinOp, Call, MissingVariableError, Neg, Num, Var

_OPS = {
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


def tree_walk(e, env) -> np.ndarray:
    """The value of ``e`` on ``env``; a scalar env gives a 0-d array."""
    with np.errstate(all="ignore"):
        return _walk(e, env)


def _walk(e, env) -> np.ndarray:
    if isinstance(e, Num):
        return np.asarray(e.value)
    if isinstance(e, Var):
        try:
            return np.asarray(env[e.name], dtype=float)
        except KeyError:
            raise MissingVariableError(e.name) from None
    if isinstance(e, Neg):
        return -_walk(e.arg, env)
    if isinstance(e, Call):
        return _OPS[e.fn](_walk(e.arg, env))
    if isinstance(e, BinOp):
        return _OPS[e.op](_walk(e.left, env), _walk(e.right, env))
    raise TypeError(f"not an expression node: {e!r}")
