#!/usr/bin/env python3
"""Where a Newton solve spends its time, phase by phase.

Solves the n = 2 z-coupled problem of the ``solve_scattered`` benchmark
workload, max of exp(-0.1 t)(-(v1^2) - x1^2 - (v2^2) - x2^2 + 0.5 x1 x2)
- 0.01 z with g = x1^2 from x_a = (1, 0), over integers(0, m) truncated at
m, and prints ``SolveInfo.phase_seconds`` as a Markdown table: for each m in
``SIZES``, the iterations and band factorizations of the solve (the band of
this linear-quadratic problem is fixed, so it is factored once), then the
best of ``REPEATS`` solves in every phase, in milliseconds, summed over the
solve's iterations.  The search evaluates each iterate once: ``derivatives``
holds the start's joint call of the objective and the derivative pass, and
the pass of a step accepted after backtracking; ``line_search`` holds every
probe, the joint first probe included, whose pass the next iteration takes.

    PYTHONPATH=src python scripts/phase_table.py
"""

from nablats import Problem, SolveOptions, direct_solve, integers

L = "exp(-0.1*t)*(-(v1^2)-x1^2-(v2^2)-x2^2+0.5*x1*x2) - 0.01*z"
SIZES = (100, 400, 1600)
REPEATS = 3


def main() -> int:
    rows = []
    for m in SIZES:
        p = Problem.from_strings(integers(0, m), 2, L, "x1^2", [1.0, 0.0])
        opts = SolveOptions(T_trunc=float(m), grad_tol=1e-9)
        infos = [direct_solve(p, opts, with_info=True)[1] for _ in range(REPEATS)]
        phases = list(infos[0].phase_seconds)
        best = [min(info.phase_seconds[ph] for info in infos) * 1e3 for ph in phases]
        rows.append((m, infos[0].iterations, infos[0].factorizations, best))

    print("| m | iterations | factorizations | "
          + " | ".join(ph.replace("_", " ") for ph in phases) + " |")
    print("| --- " * (len(phases) + 3) + "|")
    for m, iterations, factorizations, best in rows:
        print(f"| {m} | {iterations} | {factorizations} | "
              + " | ".join(f"{v:.2f} ms" for v in best) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
