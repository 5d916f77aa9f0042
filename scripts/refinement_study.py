#!/usr/bin/env python3
"""Classical-limit study: residual decay under sample refinement.

For the objective J = integral of -( (x^nabla)^2 + (x^rho)^2 ), whose
continuum extremal is x(t) = sinh(t), the script evaluates the pointwise
residual at the sampled extremal on sampled_interval(0, 1, n).  The row at
t_j of that residual is the derivative of the sampled objective in
x(t_{j-1}), divided by the step: the first-order condition of the sampled
problem.
On a uniform grid it is a centred second difference, so at the sampled
extremal it shrinks with the square of the step (a ratio near 4 per
halving).  The script also solves the pinned problem at one resolution and
compares the discrete optimum with the analytic extremal; that deviation
is O(h^2) too.
"""

import argparse
import math

import numpy as np

from nablats import (
    Problem,
    SolveOptions,
    Trajectory,
    direct_solve,
    residual_report,
    sampled_interval,
)


def residual_at_extremal(n: int) -> float:
    ts = sampled_interval(0.0, 1.0, n)
    p = Problem.from_strings(ts, 1, "-(v1^2) - x1^2", "0", [0.0])
    x = Trajectory.from_values(p, np.sinh(ts.points_array)[:, None])
    return residual_report(p, x).max_pointwise


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", default="16,32,64,128,256",
                    help="comma-separated sample counts (default %(default)s)")
    args = ap.parse_args()
    ns = [int(s) for s in args.resolutions.split(",") if s.strip()]

    print(f"{'n':>6} {'h':>10} {'max residual':>14} {'ratio':>8}")
    prev = None
    for n in ns:
        res = residual_at_extremal(n)
        ratio = "" if prev is None else f"{prev / res:8.2f}"
        print(f"{n:6d} {1.0 / n:10.5f} {res:14.4e} {ratio:>8}")
        prev = res

    n = 32
    ts = sampled_interval(0.0, 1.0, n)
    p = Problem.from_strings(ts, 1, "-(v1^2) - x1^2", "0", [0.0])
    opts = SolveOptions(
        T_trunc=1.0,
        terminal=(math.sinh(1.0),),
        grad_tol=1e-10,
        max_iters=60000,
    )
    traj = direct_solve(p, opts)
    dev = float(np.max(np.abs(traj.values[:, 0] - np.sinh(ts.points_array))))
    print(f"\npinned solve at n={n}: sup deviation from sinh = {dev:.4e} "
          f"(discretization bias, O(h^2))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
