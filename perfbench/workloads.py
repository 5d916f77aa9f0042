"""The benchmark's workloads: seeded inputs, timed requests and output checks.

Every request is one in-process ``nablats.cli.main(argv)`` call (or one
``nablats.solver.brute_force`` call) from a single client that waits for each
reply: a closed loop with one client.  Inputs are written before a request
and its outputs are checked after it, both outside the timed region.  A
check that fails, an exception and an unexpected exit code each count the
request as failed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference

#: pass/fail threshold written into every run file
TOLERANCE = 1e-6

# n=2, z-coupled quadratic problem of the solve_scattered and verify workloads
COUPLED_L = "exp(-{rho}*t)*(-(v1^2)-x1^2-(v2^2)-x2^2+0.5*x1*x2) - 0.01*z"
# its L as x'Ax + v'Bv under the discount, and c in -c*z (see reference.py)
COUPLED_FORM = ([[-1.0, 0.25], [0.25, -1.0]], -np.eye(2), 0.01)
# n=1 quartic minimization of the solve_stiff workload
STIFF_L = "exp(-{rho}*t)*((v1^2)+x1^2+0.1*x1^4)"
# n=1 z-coupled problem of the brute-force requests
BRUTE_L = "exp(-{rho}*t)*(-(v1^2)-x1^2) - 0.01*z"


class Grid:
    """A grid as a ``[timescale]`` section plus its points and gap kinds."""

    def __init__(self, section: str, points, scattered):
        self.section = section
        self.points = tuple(float(t) for t in points)
        self.scattered = tuple(scattered)

    @classmethod
    def integers(cls, a: int, b: int) -> "Grid":
        return cls(f"family = integers\na = {a}\nb = {b}", range(a, b + 1), [True] * (b - a))

    @classmethod
    def explicit(cls, points, kinds: str) -> "Grid":
        section = ("family = points\npoints = " + ", ".join(repr(float(t)) for t in points)
                   + "\ngap_kinds = " + ", ".join(kinds))
        return cls(section, points, [k == "s" for k in kinds])

    def timescale(self, nb):
        return nb.timescale.from_points(self.points, ["s" if k else "d" for k in self.scattered])

    @property
    def all_scattered(self) -> bool:
        return all(self.scattered)


def dense_then_integers() -> Grid:
    """20 dense-sample steps on [0, 2], then integer steps to 40 (59 points)."""
    dense = [k / 10 for k in range(21)]
    tail = list(range(3, 41))
    return Grid.explicit(dense + tail, "d" * 20 + "s" * 38)


def mixed_grid() -> Grid:
    """Integers 0..20, 60 dense-sample steps on [20, 25], integers 26..144 (200 points)."""
    pts = list(range(21)) + [20 + k / 12 for k in range(1, 61)] + list(range(26, 145))
    return Grid.explicit(pts, "s" * 20 + "d" * 60 + "s" * 119)


class Design:
    """Seeded parameter rows around a fixed Latin-hypercube design.

    The design puts ``size`` points in the parameter box, one in every
    1/size slice of each range, the same for every seed.  Each round visits
    all of them in seeded order, each moved by an offset of at most
    ``jitter`` of its slice, so no two rows are equal.  The offsets come from
    ``offsets`` when it is given, a stream that is the same for every seed,
    and otherwise from the seeded ``rng``; a round draws them per design
    point before it orders the points, so with ``offsets`` the seed changes
    the order and nothing else.  Values are rounded to 9 decimals so that
    the run file states them exactly.
    """

    def __init__(self, rng: np.random.Generator, ranges, size: int, jitter: float,
                 offsets: np.random.Generator | None = None):
        self.rng, self.ranges, self.size, self.jitter = rng, ranges, size, jitter
        self.offsets = offsets if offsets is not None else rng
        design = np.random.default_rng(0)  # the same points for every seed
        self.cells = [design.permutation(size) for _ in ranges]
        self._queue: list[tuple[float, ...]] = []

    def __call__(self) -> tuple[float, ...]:
        if not self._queue:
            shift = self.jitter * (self.offsets.random((self.size, len(self.ranges))) - 0.5)
            for i in self.rng.permutation(self.size):
                self._queue.append(tuple(
                    round(lo + (hi - lo) * float(cells[i] + 0.5 + shift[i, k]) / self.size, 9)
                    for k, ((lo, hi), cells) in enumerate(zip(self.ranges, self.cells))))
        return self._queue.pop()


class Client:
    """The single client of the closed loop: the program under test, the work
    directory, and every request's latency and check result."""

    def __init__(self, nablats, workdir: Path, tracer=None, tamper=None):
        self.nb = nablats
        self.workdir = workdir
        self.tracer = tracer
        self.speed = None  # a hostspeed.HostSpeed sampled after every request
        self.tamper = tamper  # test hook: tamper(kind, paths) runs before the checks
        self.records: list[tuple[str, float, list[str]]] = []
        self.notes = defaultdict(list)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def timed(self, fn, request=True):
        """Run ``fn``; returns (result, seconds, exception or None).

        A request (as opposed to a call made by a check) is traced when a
        tracer is attached, and followed by reference work when a host-speed
        sampler is attached.
        """
        gc.collect()
        tracer = self.tracer if request else None
        if tracer is not None:
            tracer.request_id += 1
            tracer.enabled = True
        start = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a crashing request is a failed request
            out, err = None, exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if request and self.speed is not None:
            self.speed.sample(seconds)
        return out, seconds, err

    def cli(self, argv, request=True):
        """One ``nablats.cli.main(argv)``; returns (code, stdout, seconds, exception)."""
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                return self.nb.cli.main(argv)

        code, seconds, err = self.timed(call, request)
        return code, stdout.getvalue(), seconds, err

    def record(self, kind: str, seconds: float, problems: list[str]) -> float:
        self.records.append((kind, seconds, problems))
        return seconds

    def check(self, kind: str, seconds: float, err, checker, *args) -> float:
        """Run ``checker(*args)`` unless the request raised; record the outcome."""
        if err is not None:
            return self.record(kind, seconds, [f"{kind} raised {err!r}"])
        try:
            problems = checker(*args)
        except Exception as exc:  # unreadable or malformed output
            problems = [f"{kind} output could not be checked: {exc!r}"]
        return self.record(kind, seconds, problems)

    def maybe_tamper(self, kind: str, **paths) -> None:
        if self.tamper is not None:
            self.tamper(kind, paths)


# -- inputs ----------------------------------------------------------------------


def write_config(path, grid: Grid, n, L, g, x_a, sense="max", solve="", outputs=None):
    outputs = outputs or {}
    text = (
        f"[timescale]\n{grid.section}\n\n"
        f"[problem]\nn = {n}\nL = \"{L}\"\ng = \"{g}\"\n"
        f"x_a = {', '.join(repr(float(v)) for v in x_a)}\nsense = {sense}\n\n"
        + (f"[solve]\n{solve}\n\n" if solve else "")
        + f"[report]\ntolerance = {TOLERANCE!r}\n"
        + "".join(f"{key} = {value}\n" for key, value in outputs.items())
    )
    Path(path).write_text(text)


def write_trajectory(path, grid: Grid, X) -> None:
    X = np.asarray(X, dtype=float)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t"] + [f"x{i}" for i in range(1, X.shape[1] + 1)])
        for t, row in zip(grid.points, X):
            wr.writerow([repr(t)] + [repr(float(v)) for v in row])


def write_function(path, grid: Grid, f) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "f"])
        for t, v in zip(grid.points, f):
            wr.writerow([repr(t), repr(float(v))])


def perturbed(X, rng: np.random.Generator) -> np.ndarray:
    """The exact maximizer moved on its first eighth: x1 shrunk, x2 shifted.

    Shrinking x1 lowers z for the rest of the grid, so with the -0.01*z term
    every later truncated objective of the candidate stays below that of the
    maximizer, and the tail margin has a definite sign.
    """
    Y = np.array(X, dtype=float)
    w = max(2, len(Y) // 8)
    j = np.arange(1, w)
    Y[1:w, 0] *= 1.0 - rng.uniform(0.02, 0.1)
    Y[1:w, 1] += rng.uniform(0.02, 0.1) * np.sin(rng.uniform(0.3, 1.0) * j + rng.uniform(0, 2 * np.pi))
    return Y


def lemma_function(m: int, rng: np.random.Generator) -> np.ndarray:
    """Zero except on a random window of 10 to 30 points, where it oscillates."""
    length = int(rng.integers(10, 31))
    j0 = int(rng.integers(3, m - 3 - length))
    k = np.arange(length)
    f = np.zeros(m)
    f[j0:j0 + length] = rng.uniform(0.5, 2.0) * np.sin(rng.uniform(0.8, 2.5) * k + rng.uniform(0, 2 * np.pi))
    return f


# -- output readers --------------------------------------------------------------


def summary(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [r for r in rows[1:] if r]


# -- checks ----------------------------------------------------------------------


def check_solve(s: Client, grid: Grid, n, L, g, x_a, sense, T_trunc, cuts, cfg, code, stdout,
                traj_path, horizon_path) -> list[str]:
    problems = []
    if code != 0:
        return [f"solve exited {code}"]
    info = summary(stdout)
    header, rows = read_rows(traj_path)
    X = np.array([[float(v) for v in r[1:]] for r in rows])
    if header != ["t"] + [f"x{i}" for i in range(1, n + 1)] or X.shape != (len(grid.points), n):
        return [f"trajectory CSV has header {header} and shape {X.shape}"]
    if [float(r[0]) for r in rows] != list(grid.points):
        problems.append("trajectory t column does not match the grid")
    if not np.all(np.isfinite(X)):
        return problems + ["trajectory CSV holds non-finite values"]
    var = s.nb.variational
    p = var.Problem.from_strings(grid.timescale(s.nb), n, L, g, x_a,
                                 var.Sense.MAX if sense == "max" else var.Sense.MIN)
    J = var.evaluate_functional_partial(p, var.Trajectory.from_values(p, X), T_trunc)
    printed = float(info["objective"])
    if printed != J:
        problems.append(f"printed objective {printed!r} != objective of the CSV {J!r}")
    J0 = var.evaluate_functional_partial(p, var.Trajectory.constant(p), T_trunc)
    if (J < J0) if sense == "max" else (J > J0):
        problems.append(f"objective {J!r} is worse than the initial guess {J0!r}")
    _, h_rows = read_rows(horizon_path)
    if len(h_rows) != len(cuts) or not all(math.isfinite(float(v)) for r in h_rows for v in r[:5]):
        problems.append(f"horizon table has {len(h_rows)} rows for {len(cuts)} cuts or non-finite values")
    converged = info.get("converged") == "true"
    s.notes["solve_converged"].append(converged)
    if converged:
        code, out, _, err = s.cli(["check-el", cfg, "--trajectory", traj_path, "--form", "pointwise"],
                                  request=False)
        if err is not None or code not in (0, 1):
            problems.append(f"check-el on the solution exited {code} ({err!r})")
        else:
            residual = float(summary(out)["max_residual"])
            s.notes["solve_residual"].append(residual)
            # on dense-sample gaps the residual is only O(h): recorded, not gated
            if grid.all_scattered and code != 0:
                problems.append(f"converged solve fails check-el: residual {residual!r}")
    return problems


def check_el(form, expect, stdout, code, report_path) -> list[str]:
    problems = []
    info = summary(stdout)
    _, rows = read_rows(report_path)
    if form == "integral":
        expected = max(float(r[3]) for r in rows if r[4] == "el_integral_spread")
    else:
        expected = max(abs(float(r[3])) for r in rows if r[4] == "el_pointwise")
    stat = float(info["max_residual"])
    if stat != expected:
        problems.append(f"check-el --form {form} printed {stat!r}, residual CSV gives {expected!r}")
    status = info.get("status")
    if code != (0 if status == "PASS" else 1) or status not in ("PASS", "FAIL"):
        problems.append(f"check-el exit {code} does not match status {status}")
    if expect is not None and status != expect:
        problems.append(f"check-el --form {form} gave {status} (residual {stat!r}), expected {expect}")
    return problems


def check_compare(expect_sign, stdout, code) -> list[str]:
    margin = float(summary(stdout)["margin"])
    if expect_sign < 0 and not (margin < 0 and code == 0):
        return [f"compare against the maximizer gave margin {margin!r}, exit {code}"]
    if expect_sign > 0 and not (margin > TOLERANCE and code == 1):
        return [f"compare of the maximizer against a worse candidate gave margin {margin!r}, exit {code}"]
    return []


def check_lemma(grid: Grid, zero, stdout, code) -> list[str]:
    if zero:
        return [] if code == 4 else [f"lemma on the zero function exited {code}"]
    if code != 0:
        return [f"lemma exited {code}: {stdout.strip()!r}"]
    info = summary(stdout)
    value, t0 = float(info["witness_value"]), float(info["t0"])
    lo, hi = (float(v) for v in info["support"].strip("()").split(","))
    problems = []
    if not value > 0:
        problems.append(f"witness value {value!r} is not positive")
    # a RHO_DENSE_BUMP ends at rho(t0), the left-dense predecessor of t0, so
    # that nothing couples across the jump into t0 (tests/test_fundamental.py)
    at_rho = info["case_tag"] == "RHO_DENSE_BUMP" and grid.points.index(t0) == grid.points.index(hi) + 1
    if not (lo <= t0 <= hi or at_rho):
        problems.append(f"t0 = {t0!r} lies outside the support ({lo!r}, {hi!r}) "
                        f"of a {info['case_tag']} variation")
    return problems


# -- workloads --------------------------------------------------------------------


SOLVE_OPTIONS = ("terminal = free\nmax_iters = 2000\ngrad_tol = 1e-9\n"
                   "gradient = analytic\nprecondition = true")


#: a round of a solve workload visits every point of its design once
SOLVES_PER_ROUND = 8


class SolveWorkload:
    """CLI ``solve`` requests on one grid; a round solves every design point.

    The seed sets the order of the requests; their offsets are the same for
    every seed.  The solver's iteration count, and with it a request's time,
    can jump under input changes as small as 1e-6, so seeded offsets would
    change how much work a run holds from one seed to the next.
    """

    def __init__(self, grid, L, n, g, sense, ranges, cuts):
        self.grid, self.L, self.n, self.g, self.sense = grid, L, n, g, sense
        self.ranges, self.cuts = ranges, cuts

    def start(self, rng):
        self.draws = Design(rng, self.ranges, SOLVES_PER_ROUND, jitter=0.5,
                            offsets=np.random.default_rng(0))

    def setup_config(self, path):
        rho, *x_a = (round((lo + hi) / 2, 6) for lo, hi in self.ranges)
        write_config(path, self.grid, self.n, self.L.format(rho=rho), self.g, x_a, self.sense,
                     solve=f"T_trunc = {self.cuts[-1]!r}\n{SOLVE_OPTIONS}")

    def round(self, s: Client, solves: int = SOLVES_PER_ROUND) -> float:
        spent = 0.0
        for _ in range(solves):
            rho, *x_a = self.draws()
            spent += solve_request(s, "solve", self.grid, self.L.format(rho=rho), self.n, self.g,
                                   x_a, self.sense, self.cuts)
        return spent


def solve_request(s, kind, grid, L, n, g, x_a, sense, cuts) -> float:
    cfg, traj, horizon = s.path("solve.ini"), s.path("solution.csv"), s.path("horizon.csv")
    T_trunc = cuts[-1]
    write_config(cfg, grid, n, L, g, x_a, sense,
                 solve=f"T_trunc = {T_trunc!r}\ntruncations = {', '.join(map(repr, cuts))}\n{SOLVE_OPTIONS}",
                 outputs=dict(trajectory_out=traj, horizon_out=horizon, report_out=s.path("solve_res.csv")))
    code, out, seconds, err = s.cli(["solve", cfg])
    s.maybe_tamper(kind, trajectory=traj, horizon=horizon)
    return s.check(kind, seconds, err, check_solve, s, grid, n, L, g, x_a, sense, T_trunc, cuts,
                   cfg, code, out, traj, horizon)


def solve_scattered() -> SolveWorkload:
    return SolveWorkload(
        Grid.integers(0, 120), COUPLED_L, 2, "x1^2", "max",
        ranges=[(0.06, 0.14), (0.5, 1.5), (-1.0, 1.0)], cuts=(40.0, 80.0, 120.0))


def solve_stiff() -> SolveWorkload:
    return SolveWorkload(
        dense_then_integers(), STIFF_L, 1, "0", "min",
        ranges=[(0.05, 0.15), (0.5, 2.5)], cuts=(40.0,))


class VerifyWorkload:
    """One round is a pass over the grids: check-el in three forms, compare both
    ways, ``lemmas`` lemma requests, then one all-zero lemma and ``brute``
    brute-force calls."""

    def __init__(self, grids, lemmas=6, brute=3):
        self.grids, self.lemmas, self.brute = grids, lemmas, brute
        self.rounds = 0

    def setup_config(self, path):
        write_config(path, self.grids[0], 2, COUPLED_L.format(rho=0.1), "x1^2", (1.0, -0.5))

    def start(self, rng):
        self.rng = rng
        self.draws = Design(rng, [(0.08, 0.12), (0.5, 1.5), (-1.0, 1.0)], len(self.grids), jitter=0.5)
        self.bf_draws = Design(rng, [(0.1, 0.5), (0.5, 1.5)], max(1, self.brute), jitter=0.5)

    def round(self, s: Client) -> float:
        spent = 0.0
        for i, grid in enumerate(self.grids):
            rho, *x_a = self.draws()
            star, cand, cfg = verify_inputs(s, grid, rho, x_a, self.rng)
            spent += verify_requests(s, grid, cfg, star, cand, self.rng, self.lemmas)
            if i == self.rounds % len(self.grids):
                fn = s.path("zero.csv")
                write_function(fn, grid, np.zeros(len(grid.points)))
                code, out, seconds, err = s.cli(["lemma", cfg, "--function", fn])
                spent += s.check("lemma", seconds, err, check_lemma, grid, True, out, code)
        self.rounds += 1
        for _ in range(self.brute):
            spent += brute_force_request(s, *self.bf_draws())
        return spent


def verify_inputs(s: Client, grid: Grid, rho, x_a, rng):
    """Run file, exact maximizer and perturbed candidate for the coupled problem."""
    M = reference.quadratic_form(grid.points, grid.scattered, rho, *COUPLED_FORM)
    X = reference.maximizer(M, x_a)
    cfg, star, cand = s.path("verify.ini"), s.path("star.csv"), s.path("candidate.csv")
    write_config(cfg, grid, 2, COUPLED_L.format(rho=rho), "x1^2", x_a,
                 outputs=dict(report_out=s.path("residuals.csv")))
    write_trajectory(star, grid, X)
    write_trajectory(cand, grid, perturbed(X, rng))
    return star, cand, cfg


def verify_requests(s, grid, cfg, star, cand, rng, lemmas) -> float:
    spent = 0.0
    report = s.path("residuals.csv")
    exact = "PASS" if grid.all_scattered else None
    for form in ("pointwise", "integral", "finite"):
        kind = "check_el_finite" if form == "finite" else "check_el"
        for traj, expect in ((star, exact), (cand, "FAIL")):
            if form == "finite" and traj == cand:
                continue
            code, out, seconds, err = s.cli(["check-el", cfg, "--trajectory", traj, "--form", form])
            s.maybe_tamper(kind, report=report)
            spent += s.check(kind, seconds, err, check_el, form, expect, out, code, report)
    for a, b, sign in ((cand, star, -1), (star, cand, 1)):
        code, out, seconds, err = s.cli(["compare", cfg, "--candidate", a, "--star", b])
        spent += s.check("compare", seconds, err, check_compare, sign, out, code)
    for _ in range(lemmas):
        fn = s.path("function.csv")
        write_function(fn, grid, lemma_function(len(grid.points), rng))
        code, out, seconds, err = s.cli(["lemma", cfg, "--function", fn])
        spent += s.check("lemma", seconds, err, check_lemma, grid, False, out, code)
    return spent


def brute_force_request(s: Client, rho, x_a) -> float:
    """brute_force on integers(0, 6) with 9 values per coordinate (9^6 assignments)."""
    var, solver = s.nb.variational, s.nb.solver
    grid = Grid.integers(0, 6)
    p = var.Problem.from_strings(grid.timescale(s.nb), 1, BRUTE_L.format(rho=rho), "x1^2", (x_a,))
    opts = solver.SolveOptions(T_trunc=6.0, gradient="analytic", precondition=True, grad_tol=1e-9)
    values = [round(v, 6) for v in np.linspace(0.0, x_a, 9)]
    best, seconds, err = s.timed(lambda: s.nb.solver.brute_force(p, opts, values))
    return s.check("brute_force", seconds, err, check_brute_force, s, p, opts, values, best)


def check_brute_force(s: Client, p, opts, values, best) -> list[str]:
    var = s.nb.variational
    ds = s.nb.solver.direct_solve(p, opts).values
    grid = np.asarray(values)
    rounded = grid[np.abs(ds[:, :, None] - grid).argmin(axis=2)]
    rounded[0] = p.x_a_array
    J_best = var.evaluate_functional_partial(p, best, opts.T_trunc)
    J_round = var.evaluate_functional_partial(p, var.Trajectory.from_values(p, rounded), opts.T_trunc)
    # the enumerator ranks assignments with its own summation order, so a
    # near-tie may differ from the correctly rounded objective in the last ulps
    if J_best < J_round - 1e-12 * max(1.0, abs(J_round)):
        return [f"brute force objective {J_best!r} < rounded direct_solve objective {J_round!r}"]
    return []


def verify() -> VerifyWorkload:
    return VerifyWorkload([Grid.integers(0, 200), mixed_grid()])


WORKLOADS = {"solve_scattered": solve_scattered, "solve_stiff": solve_stiff, "verify": verify}


# -- size sweep (traced runs only) -------------------------------------------------


SWEEP_SIZES = (100, 200, 400)
SWEEP_COMMANDS = ("solve", "check_el", "check_el_finite", "compare", "lemma")


def size_sweep(s: Client, rng) -> dict[str, list[tuple[int, float]]]:
    """Each command once per size on integers(0, m); returns command -> [(points, seconds)]."""
    timings = defaultdict(list)
    rho, x_a = 0.1, (1.0, -0.5)
    for m in SWEEP_SIZES:
        grid = Grid.integers(0, m)
        points = len(grid.points)
        timings["solve"].append((points, solve_request(
            s, "sweep.solve", grid, COUPLED_L.format(rho=rho), 2, "x1^2", x_a, "max", (float(m),))))
        star, cand, cfg = verify_inputs(s, grid, rho, x_a, rng)
        report = s.path("residuals.csv")
        for command, form in (("check_el", "pointwise"), ("check_el_finite", "finite")):
            code, out, seconds, err = s.cli(["check-el", cfg, "--trajectory", star, "--form", form])
            timings[command].append((points, s.check(
                "sweep." + command, seconds, err, check_el, form, "PASS", out, code, report)))
        code, out, seconds, err = s.cli(["compare", cfg, "--candidate", cand, "--star", star])
        timings["compare"].append((points, s.check(
            "sweep.compare", seconds, err, check_compare, -1, out, code)))
        fn = s.path("function.csv")
        write_function(fn, grid, lemma_function(points, rng))
        code, out, seconds, err = s.cli(["lemma", cfg, "--function", fn])
        timings["lemma"].append((points, s.check("sweep.lemma", seconds, err, check_lemma, grid, False, out, code)))
    return timings
