"""Self-test of the benchmark at a tiny size.

Clean outputs pass every check; a corrupted output is counted as a failed
request.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Grid  # noqa: E402


def tiny_mixed() -> Grid:
    pts = list(range(11)) + [10 + k / 12 for k in range(1, 13)] + list(range(12, 41))
    return Grid.explicit(pts, "s" * 10 + "d" * 12 + "s" * 29)


def tiny_solve() -> workloads.SolveWorkload:
    return workloads.SolveWorkload(
        Grid.integers(0, 12), workloads.COUPLED_L, 2, "x1^2", "max",
        ranges=[(0.06, 0.14), (0.5, 1.5), (-1.0, 1.0)], cuts=(6.0, 12.0))


def run_round(workload, tmp_path, tamper=None):
    client = workloads.Client(run.import_program(), tmp_path, tamper=tamper)
    workload.start(np.random.default_rng(0))
    workload.round(client)
    return client


def failures(client):
    return [(kind, problems) for kind, _, problems in client.records if problems]


def change_one_value(path, row, col):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) + 1e-3)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_clean_rounds_pass(tmp_path):
    solve = run_round(tiny_solve(), tmp_path)
    verify = run_round(workloads.VerifyWorkload([Grid.integers(0, 40), tiny_mixed()], lemmas=2, brute=1),
                       tmp_path)
    kinds = {kind for s in (solve, verify) for kind, _, _ in s.records}
    assert kinds == {"solve", "check_el", "check_el_finite", "compare", "lemma", "brute_force"}
    assert failures(solve) == [] and failures(verify) == []


def test_corrupted_trajectory_is_a_failure(tmp_path):
    def tamper(kind, paths):
        if not tampered:
            change_one_value(paths["trajectory"], row=5, col=1)
            tampered.append(kind)

    tampered = []
    client = run_round(tiny_solve(), tmp_path, tamper)
    assert len(client.records) == workloads.SOLVES_PER_ROUND
    assert [kind for kind, _ in failures(client)] == ["solve"]


def test_corrupted_residual_report_is_a_failure(tmp_path):
    def tamper(kind, paths):
        if kind == "check_el_finite":
            change_one_value(paths["report"], row=3, col=3)

    client = run_round(workloads.VerifyWorkload([Grid.integers(0, 40)], lemmas=1, brute=0),
                        tmp_path, tamper)
    assert [kind for kind, _ in failures(client)] == ["check_el_finite"]


def test_reference_objective_matches_program():
    nb = run.import_program()
    grid = tiny_mixed()
    rho, x_a = 0.1, (1.0, -0.5)
    M = reference.quadratic_form(grid.points, grid.scattered, rho, *workloads.COUPLED_FORM)
    X = reference.maximizer(M, x_a)
    p = nb.variational.Problem.from_strings(grid.timescale(nb), 2, workloads.COUPLED_L.format(rho=rho),
                                            "x1^2", x_a)
    J = nb.variational.evaluate_functional_partial(p, nb.variational.Trajectory.from_values(p, X),
                                                   grid.points[-1])
    assert abs(J - reference.objective(M, X)) <= 1e-12 * abs(J)
