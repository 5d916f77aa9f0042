"""Exact maximizers of the benchmark's quadratic problems, by one linear solve.

The verify, brute-force and size-sweep problems all have the form

    L = exp(-rho*t) * (x' A x + v' B v) - c*z,     g = x1^2

with A and B negative definite and c >= 0, on a grid that mixes scattered
and dense-sample gaps.  The truncated objective at the last grid point is
then a quadratic form X' M X in the state values, so the free-terminal
maximizer solves one linear system.  The benchmark checks the program's
verdicts against these maximizers, not against the program's own solver.
"""

from __future__ import annotations

import numpy as np


def quadratic_form(points, scattered, rho, A, B, c):
    """Symmetric M with J(X) = X.ravel() @ M @ X.ravel(), X of shape (m, n).

    ``scattered[i]`` tells whether the gap from point i to point i+1 is an
    exact step (the integrand then reads x at the left end) or a sampled
    continuum stretch (it reads x at the right end).  With
    z_i = sum_{l<=i} w_l x1_rho(l)^2, the z term sums to
    -c * sum_l w_l (T - t_{l-1}) x1_rho(l)^2.
    """
    t = np.asarray(points, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    m, n = len(t), A.shape[0]
    M = np.zeros((m * n, m * n))
    T = t[-1]
    for i in range(1, m):
        w = t[i] - t[i - 1]
        e = np.exp(-rho * t[i])
        r = i - 1 if scattered[i - 1] else i
        rs, cur, prev = slice(r * n, r * n + n), slice(i * n, i * n + n), slice(i * n - n, i * n)
        M[rs, rs] += w * e * A
        Bw = e * B / w
        M[cur, cur] += Bw
        M[prev, prev] += Bw
        M[cur, prev] -= Bw
        M[prev, cur] -= Bw
        M[r * n, r * n] -= c * w * (T - t[i - 1])
    return M


def maximizer(M, x_a) -> np.ndarray:
    """Free-terminal maximizer of X' M X with X[0] = x_a, as an (m, n) array."""
    x_a = np.asarray(x_a, dtype=float)
    n = x_a.size
    free = M[n:, n:]
    rhs = -M[n:, :n] @ x_a
    X = np.concatenate([x_a, np.linalg.solve(free, rhs)])
    return X.reshape(-1, n)


def objective(M, X) -> float:
    flat = np.asarray(X, dtype=float).ravel()
    return float(flat @ M @ flat)
