"""Command-line front end.

Subcommands (each takes a run-file path; see :mod:`nablats.config` for the
file format):

``quad CONFIG --from A --to B``
    Backward-rule integral of the ``[quad]`` expression over ``(A, B]`` on
    the configured grid; prints the value with 15 significant digits.

``check-el CONFIG --trajectory CSV [--form pointwise|integral|finite] [--Tprime T]``
    First-order residual report for a stored trajectory; writes the full
    residual CSV and passes or fails on the chosen residual family.  A
    ``pointwise`` row at t is the derivative in x at the grid point before t
    of the objective truncated at T', over the step to t: the condition
    ``solve`` zeros, one row for each state value between the pinned start
    and T'.
    ``finite`` is the finite-horizon residual at T', which is the pointwise
    residual with its tail integrals cut at T', so it gives the same
    statistic as ``pointwise``.

``solve CONFIG``
    Direct search on the truncated objective; writes the solution
    trajectory CSV and the horizon-by-horizon residual table.  Each
    horizon is solved once; the trajectory and summary are those of the
    solve at ``T_trunc``.

``lemma CONFIG --function CSV [--tol TOL]``
    Constructs an admissible variation whose pairing with the stored
    function is strictly positive, printing the construction case, its
    location, and the pairing value.  ``--tol`` (the zero threshold) is a
    finite number >= 0, as is the ``[report] tolerance`` of ``check-el``
    and ``compare``; any other value exits 2.

``compare CONFIG --candidate CSV --star CSV``
    Tail-margin comparison of two stored trajectories; fails when the
    candidate beats the reference by more than the report tolerance.

The forms above, ``COMMAND CONFIG`` followed by ``--option VALUE`` pairs with
each option name spelled out, are read directly from one table of the
subcommands (``_COMMANDS``).  Every other spelling argparse accepts
(unique-prefix abbreviations, ``--option=value``, options before CONFIG,
``--``, a value starting with ``-``) still works with the same results: it
goes to the argparse parser built from that table, which also prints help,
usage and every usage error.

Exit codes: 0 pass, 1 tolerance fail, 2 config/usage error (also an
expression nested past the recursion limit, or no memory left), 3
math/domain error, 4 no nonzero witness (function vanishes at tolerance or
its support is invisible to admissible variations).
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .calculus import GridFunction, nabla_integral
from .config import load_config
from .expressions import ExprDomainError, Kernel, Program, _touch, evaluate_many
from .fundamental import construct_violating_variation, default_tolerance
from .solver import NonFiniteObjectiveError, direct_solve, horizon_study, horizon_table_to_csv
from .variational import (
    CSVS_KEPT,
    _read_grid_csv,
    _write_bytes,
    residual_report,
    trajectory_from_csv,
    trajectory_to_csv,
    weak_max_compare,
)

#: exit codes, fixed interface
EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_TRIVIAL = 4

_DOMAIN_ERRORS = (
    ExprDomainError,
    NonFiniteObjectiveError,
    OverflowError,
    ZeroDivisionError,
)


def _fmt(v: float) -> str:
    """15 significant digits, positional."""
    return np.format_float_positional(
        float(v), precision=15, unique=False, fractional=False
    )


def _summary(pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {value}")


# -- subcommands --------------------------------------------------------------


def _cmd_quad(args) -> int:
    rc = load_config(args.config)
    ts = rc.timescale
    kernel = Kernel(Program(), [("f", [("integrand", rc.require_quad())])], [])
    vals = evaluate_many(kernel, {"t": ts.points_array})[0]
    value = nabla_integral(GridFunction.scalar(ts, vals), args.from_t, args.to_t)
    print(_fmt(float(value[0])))
    return EXIT_PASS


#: the last ``CSVS_KEPT`` reports of ``check-el`` (a check of a candidate
#: alternates with the maximizer's), as (problem, max_pointwise, max_spread,
#: CSV bytes), keyed on the problem object, repr(T') (the CSV writes it, so
#: -0.0 is not 0.0) and the trajectory's value bytes; every form reads one report
_REPORTS: dict[tuple, tuple] = {}


def _cmd_check_el(args) -> int:
    rc = load_config(args.config)
    p = rc.require_problem()
    x = trajectory_from_csv(p, args.trajectory)
    T_prime = float(args.Tprime if args.Tprime is not None else p.ts.points[-1])
    key = (id(p), repr(T_prime), x.values.tobytes())  # the entry holds p, so its id stays its own
    entry = _REPORTS.get(key)
    if entry is None:
        report = residual_report(p, x, T_prime)
        entry = (p, report.max_pointwise, report.max_spread, report.csv_bytes())
    _, max_pointwise, max_spread, data = _touch(_REPORTS, key, entry, CSVS_KEPT)
    _write_bytes(rc.report.report_out, data)
    # the finite-horizon residual at T' is the pointwise residual cut at T'
    stat = max_spread if args.form == "integral" else max_pointwise
    ok = stat <= rc.report.tolerance
    _summary(
        [
            ("form", args.form),
            ("T_prime", repr(T_prime)),
            ("max_residual", repr(stat)),
            ("tolerance", repr(rc.report.tolerance)),
            ("report", rc.report.report_out),
            ("status", "PASS" if ok else "FAIL"),
        ]
    )
    return EXIT_PASS if ok else EXIT_TOLERANCE


def _cmd_solve(args) -> int:
    rc = load_config(args.config)
    p = rc.require_problem()
    opts = rc.require_options()
    cuts = list(rc.truncations)
    # each horizon is solved once: T_trunc's own solve only when it is not a cut
    solved = None if opts.T_trunc in cuts else direct_solve(p, opts, with_info=True)
    rows = horizon_study(p, cuts, opts)
    traj, info = solved or next((r.solution, r.info) for r in rows if r.T_trunc == opts.T_trunc)
    trajectory_to_csv(traj, rc.report.trajectory_out)
    horizon_table_to_csv(rows, rc.report.horizon_out)
    _summary(
        [
            ("iterations", info.iterations),
            ("converged", "true" if info.converged else "false"),
            ("stop_reason", info.stop_reason),
            ("criterion", repr(info.grad_norm)),
            ("objective", repr(info.objective)),
            ("trajectory", rc.report.trajectory_out),
            ("horizon_table", rc.report.horizon_out),
        ]
    )
    return EXIT_PASS


def _cmd_lemma(args) -> int:
    rc = load_config(args.config)
    ts = rc.timescale
    g = GridFunction.scalar(ts, _read_grid_csv(ts, args.function, ["f"], "function"))
    tol = args.tol if args.tol is not None else default_tolerance(g)
    variation = construct_violating_variation(g, tol=tol)
    if variation is None:
        peak = float(np.max(np.abs(g.values)))
        if peak <= tol:
            print(f"function is zero at tolerance {tol!r} (max |f| = {peak!r})")
        else:
            print(
                "no witness: the remaining mass pairs to zero with every "
                f"admissible variation at tolerance {tol!r} (max |f| = {peak!r})"
            )
        return EXIT_TRIVIAL
    _summary(
        [
            ("case_tag", variation.case_tag.name),
            ("t0", repr(float(variation.t0))),
            ("witness_value", _fmt(variation.value)),
            ("support", f"({variation.support[0]!r}, {variation.support[1]!r})"),
        ]
    )
    return EXIT_PASS


def _cmd_compare(args) -> int:
    rc = load_config(args.config)
    p = rc.require_problem()
    candidate = trajectory_from_csv(p, args.candidate)
    star = trajectory_from_csv(p, args.star)
    margin = weak_max_compare(p, candidate, star)
    ok = margin <= rc.report.tolerance
    _summary(
        [
            ("margin", repr(margin)),
            ("tolerance", repr(rc.report.tolerance)),
            ("status", "PASS" if ok else "FAIL"),
        ]
    )
    return EXIT_PASS if ok else EXIT_TOLERANCE


# -- command table / entry point -----------------------------------------------


class _Option(NamedTuple):
    dest: str
    type: Callable[[str], object] = str
    required: bool = False
    default: object = None
    choices: Optional[tuple] = None
    help: Optional[str] = None


class _Command(NamedTuple):
    handler: Callable[..., int]
    help: str
    options: dict = {}  # option name -> _Option, in help order


#: the five subcommands, in help order; each takes the run file as its one
#: positional, ``config``, then its options
_COMMANDS = {
    "quad": _Command(_cmd_quad, "integrate the [quad] expression over (from, to]", {
        "--from": _Option("from_t", float, required=True, help="lower bound (grid point)"),
        "--to": _Option("to_t", float, required=True, help="upper bound (grid point)"),
    }),
    "check-el": _Command(_cmd_check_el, "residual report for a stored trajectory", {
        "--trajectory": _Option("trajectory", required=True, help="trajectory CSV (t,x1,...,xn)"),
        "--form": _Option("form", default="pointwise", choices=("pointwise", "integral", "finite"),
                          help="residual family for pass/fail"),
        "--Tprime": _Option("Tprime", float, help="verification horizon (grid point; default: last)"),
    }),
    "solve": _Command(_cmd_solve, "search the truncated objective and tabulate horizons"),
    "lemma": _Command(_cmd_lemma, "construct a positive-pairing variation for a stored function", {
        "--function": _Option("function", required=True, help="scalar function CSV (t,f)"),
        "--tol": _Option("tol", float, help="zero threshold (default: scale-dependent)"),
    }),
    "compare": _Command(_cmd_compare, "tail-margin comparison of two trajectories", {
        "--candidate": _Option("candidate", required=True, help="challenger trajectory CSV"),
        "--star": _Option("star", required=True, help="reference trajectory CSV"),
    }),
}


@functools.cache
def _build_parser():
    """The argparse parser of ``_COMMANDS``, built on the first argv that is not
    canonical and reused for the process."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nablats",
        description="Backward-difference calculus and infinite-horizon "
        "variational checks on time-scale grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("config")
        for flag, o in command.options.items():
            p.add_argument(flag, dest=o.dest, type=o.type, required=o.required,
                           default=o.default, choices=o.choices, help=o.help)
        p.set_defaults(handler=command.handler)
    return parser


def _read_canonical(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The attributes ``parse_args`` sets for ``COMMAND CONFIG (--option VALUE)...``,
    read from ``_COMMANDS``, or None for any other argv.

    Option names are exact, neither CONFIG nor a VALUE starts with ``-``, each
    VALUE converts and lies in its choices, every required option is given and
    a repeated option keeps its last value.  On such argv argparse sets exactly
    these attributes; everything else (abbreviations, ``--option=value``,
    options before CONFIG, ``-h``, ``--``, negative numbers, every error) is
    argparse's to read.
    """
    if len(argv) < 2 or len(argv) % 2 or not all(isinstance(arg, str) for arg in argv):
        return None
    command = _COMMANDS.get(argv[0])
    if command is None or argv[1].startswith("-"):
        return None
    values = {"command": argv[0], "config": argv[1]}
    for flag, value in zip(argv[2::2], argv[3::2]):
        o = command.options.get(flag)
        if o is None or value.startswith("-"):
            return None
        try:
            value = o.type(value)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[o.dest] = value
    for o in command.options.values():
        if o.dest not in values:
            if o.required:
                return None
            values[o.dest] = o.default
    return SimpleNamespace(**values, handler=command.handler)


def _parse_argv(argv: Sequence[str]):
    """The parsed request: read directly when canonical, else by argparse, which
    prints help, usage and errors and raises SystemExit."""
    args = _read_canonical(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize its code (0 for --help)
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename is not None else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # every nablats error that is not a domain error (config, grid,
        # problem, expression syntax, ...), malformed CSV cells and similar
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the last guard: the recursive walks of a very deep expression
        print("error: an expression is nested too deeply (each bracket, call, unary minus "
              "and term of a sum or product adds a level)", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
