"""INI run configuration for the command-line front end.

A run file is flat INI with these sections (all keys ``key = value``):

``[timescale]``
    ``family`` selects the grid builder: ``integers`` (keys ``a``, ``b``),
    ``uniform`` (``a``, ``b``, ``h``), ``sampled_interval`` (``a``, ``b``,
    ``n``), ``q_scale`` (``q``, ``t0``, ``count``), or ``points`` (explicit
    ``points`` list plus ``gap_kinds``, one of ``s``/``scattered`` or
    ``d``/``dense_sample`` per gap).

``[problem]``
    ``n`` state components, expressions ``L`` (running integrand) and ``g``
    (accumulator integrand), initial vector ``x_a`` (comma list of length
    ``n``) and ``sense`` (``max``/``min``, default ``max``).

``[solve]``
    Search options: ``T_trunc`` (required), ``terminal`` (``free`` or
    ``pinned: v1, ..., vn``), ``max_iters``, ``step_init``, ``grad_tol``
    (bound on the sup norm of the Newton step), and ``truncations`` (comma
    list of horizon cut points for the horizon table; defaults to just
    ``T_trunc``).  Every search takes Newton steps on the Hessian band with
    the analytic gradient; older files may still say ``gradient =
    analytic`` and ``precondition = true``, and any other value of either
    key is an error.

``[report]``
    ``tolerance`` (pass/fail threshold for residual and margin checks: a
    finite number >= 0, default 1e-6) and output paths ``trajectory_out``,
    ``horizon_out``, ``report_out``.

``[quad]``
    ``f``: an expression in ``t`` to integrate with the ``quad`` command.

Expression values may be surrounded by single or double quotes; quotes are
stripped.  Sections that a given subcommand does not use may be omitted.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

from .expressions import Expr, ExprSyntaxError, parse, variables
from .solver import FREE, PINNED, SolveOptions
from .timescale import (
    TimeScale,
    TimeScaleError,
    from_points,
    integers,
    q_scale,
    sampled_interval,
    uniform,
)
from .variational import Problem, ProblemError, Sense


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class ReportConfig:
    """Pass/fail tolerance and output file locations."""

    tolerance: float = 1e-6
    trajectory_out: str = "trajectory.csv"
    horizon_out: str = "horizon.csv"
    report_out: str = "residuals.csv"


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand may need, parsed and validated."""

    timescale: TimeScale
    problem: Optional[Problem]
    options: Optional[SolveOptions]
    truncations: tuple[float, ...]
    report: ReportConfig
    quad_f: Optional[Expr]

    def require_problem(self) -> Problem:
        if self.problem is None:
            raise ConfigError("this command needs a [problem] section")
        return self.problem

    def require_options(self) -> SolveOptions:
        if self.options is None:
            raise ConfigError("this command needs a [solve] section")
        return self.options

    def require_quad(self) -> Expr:
        if self.quad_f is None:
            raise ConfigError("this command needs a [quad] section with key 'f'")
        return self.quad_f


_MISSING = object()


def _strip_quotes(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in ("'", '"'):
        return v[1:-1]
    return v


def _get(cp: configparser.ConfigParser, section: str, key: str, default=_MISSING) -> str:
    try:
        return _strip_quotes(cp.get(section, key))
    except (configparser.NoSectionError, configparser.NoOptionError):
        if default is _MISSING:
            raise ConfigError(f"missing key '{key}' in section [{section}]") from None
        return default


def _float(cp, section, key, default=_MISSING) -> float:
    raw = _get(cp, section, key, default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None


def _int(cp, section, key, default=_MISSING) -> int:
    raw = _get(cp, section, key, default)
    if raw is default and default is not _MISSING:
        return raw
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _bool(cp, section, key, default: bool) -> bool:
    raw = _get(cp, section, key, None)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a boolean")


def _float_list(raw: str, where: str) -> list[float]:
    items = list(filter(str.strip, raw.split(",")))
    if not items:
        raise ConfigError(f"{where}: empty list")
    try:  # float() strips the whitespace that str.strip does
        return list(map(float, items))
    except ValueError:
        raise ConfigError(f"{where}: {raw!r} is not a comma-separated number list") from None


def _timescale(cp: configparser.ConfigParser) -> TimeScale:
    family = _get(cp, "timescale", "family").strip().lower()
    try:
        if family == "integers":
            return integers(_int(cp, "timescale", "a"), _int(cp, "timescale", "b"))
        if family == "uniform":
            return uniform(
                _float(cp, "timescale", "a"),
                _float(cp, "timescale", "b"),
                _float(cp, "timescale", "h"),
            )
        if family == "sampled_interval":
            return sampled_interval(
                _float(cp, "timescale", "a"),
                _float(cp, "timescale", "b"),
                _int(cp, "timescale", "n"),
            )
        if family == "q_scale":
            return q_scale(
                _float(cp, "timescale", "q"),
                _float(cp, "timescale", "t0"),
                _int(cp, "timescale", "count"),
            )
        if family == "points":
            pts = _float_list(_get(cp, "timescale", "points"), "[timescale] points")
            kinds = filter(None, map(str.strip, _get(cp, "timescale", "gap_kinds").split(",")))
            return from_points(pts, kinds)
    except TimeScaleError as exc:
        raise ConfigError(f"[timescale]: {exc}") from exc
    raise ConfigError(
        f"[timescale] family = {family!r} is not one of integers, uniform, "
        "sampled_interval, q_scale, points"
    )


def _problem(cp: configparser.ConfigParser, ts: TimeScale) -> Optional[Problem]:
    if not cp.has_section("problem"):
        return None
    n = _int(cp, "problem", "n")
    lagrangian = _get(cp, "problem", "L")
    z_integrand = _get(cp, "problem", "g", "0")
    x_a = _float_list(_get(cp, "problem", "x_a"), "[problem] x_a")
    sense_raw = _get(cp, "problem", "sense", "max").strip().lower()
    if sense_raw not in ("max", "min"):
        raise ConfigError(f"[problem] sense = {sense_raw!r} must be 'max' or 'min'")
    sense = Sense.MAX if sense_raw == "max" else Sense.MIN
    try:
        return Problem.from_strings(ts, n, lagrangian, z_integrand, x_a, sense)
    except (ProblemError, ExprSyntaxError) as exc:
        raise ConfigError(f"[problem]: {exc}") from exc


def _terminal(raw: str):
    lowered = raw.strip().lower()
    if lowered == "free":
        return FREE
    if lowered.startswith("pinned"):
        _, _, rest = raw.partition(":")
        values = _float_list(rest, "[solve] terminal pinned values")
        try:
            return PINNED(*values)
        except ValueError as exc:
            raise ConfigError(f"[solve] terminal: {exc}") from exc
    raise ConfigError(
        f"[solve] terminal = {raw!r} must be 'free' or 'pinned: v1, ..., vn'"
    )


def _options(cp: configparser.ConfigParser) -> tuple[Optional[SolveOptions], tuple[float, ...]]:
    if not cp.has_section("solve"):
        return None, ()
    T_trunc = _float(cp, "solve", "T_trunc")
    fields = dict(  # read first: a malformed value's ConfigError names its own section
        T_trunc=T_trunc,
        terminal_mode=_terminal(_get(cp, "solve", "terminal", "free")),
        max_iters=_int(cp, "solve", "max_iters", 2000),
        step_init=_float(cp, "solve", "step_init", 1.0),
        grad_tol=_float(cp, "solve", "grad_tol", 1e-6),
        gradient=_get(cp, "solve", "gradient", "analytic").strip().lower(),
        precondition=_bool(cp, "solve", "precondition", True),
    )
    try:
        opts = SolveOptions(**fields)
    except ValueError as exc:
        raise ConfigError(f"[solve]: {exc}") from exc
    raw_cuts = _get(cp, "solve", "truncations", None)
    cuts = (
        tuple(_float_list(raw_cuts, "[solve] truncations"))
        if raw_cuts is not None
        else (T_trunc,)
    )
    return opts, cuts


def _report(cp: configparser.ConfigParser) -> ReportConfig:
    if not cp.has_section("report"):
        return ReportConfig()
    tolerance = _float(cp, "report", "tolerance", 1e-6)
    if not 0.0 <= tolerance < math.inf:
        raise ConfigError(f"[report] tolerance = {tolerance!r} is not a finite number >= 0")
    return ReportConfig(
        tolerance=tolerance,
        trajectory_out=_get(cp, "report", "trajectory_out", "trajectory.csv"),
        horizon_out=_get(cp, "report", "horizon_out", "horizon.csv"),
        report_out=_get(cp, "report", "report_out", "residuals.csv"),
    )


def _quad(cp: configparser.ConfigParser) -> Optional[Expr]:
    if not cp.has_section("quad"):
        return None
    src = _get(cp, "quad", "f")
    try:
        expr = parse(src)
    except ExprSyntaxError as exc:
        raise ConfigError(f"[quad] f: {exc}") from exc
    extra = variables(expr) - {"t"}
    if extra:
        raise ConfigError(
            f"[quad] f may only use the variable 't'; found {sorted(extra)}"
        )
    return expr


#: the last run file's text and its validated config, reused while the text repeats
_LOADED: dict[str, RunConfig] = {}


def load_config(path) -> RunConfig:
    """Parse and validate a run file; raises ConfigError on any problem.

    The file is read whole and its text is the key of a one-entry cache: a
    file whose text repeats the last one loaded, at any path, returns the
    same ``RunConfig``, whose grid and problem binding were built then.  A
    file that fails to load leaves the entry as it was.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text, source = fh.read(), fh.name
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    rc = _LOADED.get(text)
    if rc is not None:
        return rc
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"bad INI syntax in {path!r}: {exc}") from exc
    if not cp.has_section("timescale"):
        raise ConfigError("config needs a [timescale] section")
    ts = _timescale(cp)
    problem = _problem(cp, ts)
    options, truncations = _options(cp)
    rc = RunConfig(
        timescale=ts,
        problem=problem,
        options=options,
        truncations=truncations,
        report=_report(cp),
        quad_f=_quad(cp),
    )
    _LOADED.clear()
    _LOADED[text] = rc
    return rc
