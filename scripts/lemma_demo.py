#!/usr/bin/env python3
"""Showcase of the constructive variation for nonzero grid functions.

For each example function g, the constructor returns an admissible
variation eta (vanishing at both ends) whose backward-shifted pairing
integral with g is strictly positive — certifying that g is not the zero
residual.  Each grid geometry triggers a different construction case:

- SCATTERED_SPIKE  : isolated point; a single-coordinate spike pairs to
                     exactly g(t0)^2 * nu(t0).
- LEFT_DENSE_BUMP  : sampled stretch; a parabola-shaped bump over a
                     sign-constant window.
- RHO_DENSE_BUMP   : scattered point fed by a sampled stretch; the bump
                     sits one step behind the detected coefficient.
- BRIDGE           : same junction but with a dead backward neighbor; a
                     two-gap support picks up the mass.
"""

import numpy as np

from nablats import (
    GridFunction,
    construct_violating_variation,
    dubois_reymond_check,
    from_points,
    integers,
    sampled_interval,
    witness_value,
)


def show(title, ts, values):
    g = GridFunction.scalar(ts, values)
    var = construct_violating_variation(g)
    print(f"\n== {title}")
    print(f"   grid   : {ts.points}")
    print(f"   g      : {[float(v) for v in values]}")
    if var is None:
        print("   -> no witness (zero or undetectable at tolerance)")
        return
    value = float(witness_value(g, var.eta))
    print(f"   -> case {var.case_tag.name}: t0={var.t0}, "
          f"support=({var.support[0]}, {var.support[1]}), pairing={value!r}")


def main() -> int:
    ts_int = integers(0, 5)
    show("spike on the integer grid", ts_int, [0, 0, 0, 2.0, 0, 0])

    ts_dense = sampled_interval(0.0, 1.0, 8)
    ramp = [t - 0.5 for t in ts_dense.points]
    show("sign-changing ramp on a sampled interval", ts_dense, ramp)

    ts_mix = from_points(
        [0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0],
        ["d", "d", "d", "d", "s", "s"],
    )
    show("junction with live dense feed", ts_mix, [0, 0, 1, 1, 1, 5.0, 0])
    show("junction with dead backward neighbor", ts_mix, [0, 0, 0, 0, 0, 5.0, 0])

    # constancy check: h(t) = t is not constant, and the checker exhibits
    # a derivative-variation against it
    h = GridFunction.scalar(ts_int, list(ts_int.points))
    result = dubois_reymond_check(h)
    print("\n== constancy check on h(t) = t")
    print(f"   is_constant={result.is_constant}, spread={result.spread}, "
          f"variation case={result.variation.case_tag.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
