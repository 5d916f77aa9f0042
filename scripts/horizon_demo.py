#!/usr/bin/env python3
"""Horizon study on a discounted quadratic instance.

Solves max J = integral of exp(-t) * (-(x^nabla)^2 - (x^rho)^2) over the
integer grid, truncated at a sequence of growing horizons, and tabulates
how the first-order quantities settle: the largest pointwise residual of
the optimality system, both terminal-pairing magnitudes, and the
objective.  The first pairing is x times the free end's own gradient
entry, so it vanishes to rounding at every truncated optimum; the second
shrinking toward zero is the numerical signature of the free-endpoint
condition at infinity.
"""

import argparse

from nablats import (
    Problem,
    SolveOptions,
    horizon_study,
    horizon_table_to_csv,
    integers,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cuts", default="5,10,15,20,25,30",
                    help="comma-separated truncation horizons (default %(default)s)")
    ap.add_argument("--out", default="horizon.csv", help="output CSV path")
    ap.add_argument("--grad-tol", type=float, default=1e-9)
    args = ap.parse_args()

    cuts = [float(s) for s in args.cuts.split(",") if s.strip()]
    T_max = int(max(cuts))
    ts = integers(0, T_max)
    p = Problem.from_strings(ts, 1, "exp(-t)*(-(v1^2)-x1^2)", "0", [1.0])
    opts = SolveOptions(
        T_trunc=float(T_max),
        grad_tol=args.grad_tol,
        max_iters=5000,
    )
    rows = horizon_study(p, cuts, opts)

    print(f"{'T_trunc':>8} {'max |EL|':>12} {'|trans_T1|':>12} "
          f"{'|trans_T2|':>12} {'objective':>18}")
    for r in rows:
        print(f"{r.T_trunc:8.1f} {r.max_el_residual:12.3e} {r.trans_T1:12.3e} "
              f"{r.trans_T2:12.3e} {r.objective:18.12f}")
    horizon_table_to_csv(rows, args.out)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
