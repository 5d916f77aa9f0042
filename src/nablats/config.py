"""INI run configuration for the command-line front end.

A run file is flat INI with these sections (all keys ``key = value``):

``[timescale]``
    ``family`` selects the grid builder: ``integers`` (keys ``a``, ``b``),
    ``uniform`` (``a``, ``b``, ``h``), ``sampled_interval`` (``a``, ``b``,
    ``n``), ``q_scale`` (``q``, ``t0``, ``count``), or ``points`` (explicit
    ``points`` list plus ``gap_kinds``, one of ``s``/``scattered`` or
    ``d``/``dense``/``dense_sample`` per gap).

``[problem]``
    ``n`` state components, expressions ``L`` (running integrand) and ``g``
    (accumulator integrand, default ``0``), initial vector ``x_a`` (comma
    list of length ``n``) and ``sense`` (``max``/``min``).

``[solve]``
    Search options: ``T_trunc`` (required), ``terminal`` (exactly ``free``,
    or ``pinned`` and a colon followed by a comma list of the n finite end
    values, ``pinned: v1, ..., vn``; either word in any case),
    ``max_iters``, ``step_init``, ``grad_tol``
    (bound on the sup norm of the Newton step), and ``truncations`` (comma
    list of horizon cut points for the horizon table; defaults to just
    ``T_trunc``).  Every search takes Newton steps on the Hessian band with
    the analytic gradient; older files may still say ``gradient =
    analytic`` and ``precondition = true``, and any other value of either
    key is an error.

``[report]``
    ``tolerance`` (pass/fail threshold for residual and margin checks: a
    finite number >= 0) and output paths ``trajectory_out``,
    ``horizon_out``, ``report_out``.

``[quad]``
    ``f``: an expression in ``t`` to integrate with the ``quad`` command.

Each section's keys are declared in one table (``_FAMILIES`` per grid
family, ``_SECTIONS`` for the rest).  A section or key that the tables do
not declare is an error, and so is a key of another grid family; keys under ``[DEFAULT]`` count as keys of
every section, as configparser reads them.  An omitted optional key keeps
its field's default in ``Problem``, ``SolveOptions`` or ``ReportConfig``.
One pair of quotes around a value is stripped.  Sections that a given
subcommand does not use may be omitted.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Optional

from .expressions import Expr, ExprSyntaxError, parse, variables
from .solver import SolveOptions
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

    def __post_init__(self):
        if not 0.0 <= self.tolerance < math.inf:
            raise ConfigError(f"[report] tolerance = {self.tolerance!r} is not a finite number >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand may need, parsed and validated."""

    timescale: TimeScale
    problem: Optional[Problem]
    options: Optional[SolveOptions]
    truncations: tuple[float, ...]
    report: ReportConfig
    quad_f: Optional[Expr]
    #: what the CLI built from other input against this run file (``cli._memo``)
    memo: dict = field(default_factory=dict, compare=False, repr=False)

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


def _read(cp, section: str, key: str, required: bool = True) -> Optional[str]:
    """``key``'s value, without one pair of surrounding quotes; None when an
    optional key is absent."""
    try:
        v = cp.get(section, key).strip()
    except (configparser.NoSectionError, configparser.NoOptionError):
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section}]") from None
        return None
    return v[1:-1] if len(v) >= 2 and v[0] == v[-1] and v[0] in ("'", '"') else v


def _float_list(raw: str, where: str) -> list[float]:
    items = list(filter(str.strip, raw.split(",")))
    if not items:
        raise ConfigError(f"{where}: empty list")
    try:  # float() strips the whitespace that str.strip does
        return list(map(float, items))
    except ValueError:
        raise ConfigError(f"{where}: {raw!r} is not a comma-separated number list") from None


def _lowered(raw: str) -> str:
    return raw.strip().lower()


#: what a value of each plain kind must read as, for the error message
_NOUNS = {int: "an integer", float: "a number", bool: "a boolean"}


def _section(cp, section: str, keys: dict, required) -> dict:
    """The values that ``section`` sets, by key, each read in the order of
    ``keys`` (key: kind) as its kind: int, float, bool, list (a comma list of
    numbers), or a function of the text that raises its own ConfigError.  A
    key that ``keys`` does not declare is an error (``[DEFAULT]`` keys count
    as the section's own, as configparser reads them), and so is an absent
    key in ``required``; an absent optional key is left out."""
    declared = set(map(cp.optionxform, keys))
    for key in cp[section]:
        if key not in declared:
            raise ConfigError(f"unknown key '{key}' in section [{section}]; its keys are {', '.join(keys)}")
    values = {}
    for key, kind in keys.items():
        raw = _read(cp, section, key, key in required)
        if raw is None:
            continue
        if kind is list:
            values[key] = _float_list(raw, f"[{section}] {key}")
        elif kind not in _NOUNS:
            values[key] = kind(raw)
        else:
            try:
                values[key] = cp.BOOLEAN_STATES[_lowered(raw)] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"[{section}] {key} = {raw!r} is not {_NOUNS[kind]}") from None
    return values


def _gap_kinds(raw: str):
    return filter(None, map(str.strip, raw.split(",")))


#: each grid family: its builder and the keys of its arguments, in call order
_FAMILIES = {
    "integers": (integers, {"a": int, "b": int}),
    "uniform": (uniform, {"a": float, "b": float, "h": float}),
    "sampled_interval": (sampled_interval, {"a": float, "b": float, "n": int}),
    "q_scale": (q_scale, {"q": float, "t0": float, "count": int}),
    "points": (from_points, {"points": list, "gap_kinds": _gap_kinds}),
}


def _sense(raw: str) -> Sense:
    lowered = _lowered(raw)
    try:
        return Sense(lowered)
    except ValueError:
        raise ConfigError(f"[problem] sense = {lowered!r} must be 'max' or 'min'") from None


def _terminal(raw: str) -> Optional[tuple[float, ...]]:
    if _lowered(raw) == "free":
        return None
    head, colon, values = raw.partition(":")
    if colon and _lowered(head) == "pinned":
        return tuple(_float_list(values, "[solve] terminal pinned values"))
    raise ConfigError(f"[solve] terminal = {raw!r} must be 'free' or 'pinned: v1, ..., vn'")


def _quad_f(raw: str) -> Expr:
    try:
        expr = parse(raw)
    except ExprSyntaxError as exc:
        raise ConfigError(f"[quad] f: {exc}") from exc
    extra = variables(expr) - {"t"}
    if extra:
        raise ConfigError(f"[quad] f may only use the variable 't'; found {sorted(extra)}")
    return expr


#: the sections after [timescale]: each one's keys in reading order (key:
#: kind), and the keys it requires
_SECTIONS = {
    "problem": ({"n": int, "L": str, "g": str, "x_a": list, "sense": _sense}, {"n", "L", "x_a"}),
    "solve": ({"T_trunc": float, "terminal": _terminal, "max_iters": int, "step_init": float,
               "grad_tol": float, "gradient": _lowered, "precondition": bool, "truncations": list},
              {"T_trunc"}),
    "report": ({"tolerance": float, "trajectory_out": str, "horizon_out": str, "report_out": str}, set()),
    "quad": ({"f": _quad_f}, {"f"}),
}


def _fields(cp, section: str) -> Optional[dict]:
    """The values that ``section`` of ``_SECTIONS`` sets (``_section``); None
    when the run file has no such section."""
    return _section(cp, section, *_SECTIONS[section]) if cp.has_section(section) else None


def _timescale(cp: configparser.ConfigParser) -> TimeScale:
    family = _lowered(_read(cp, "timescale", "family"))
    if family not in _FAMILIES:
        raise ConfigError(f"[timescale] family = {family!r} is not one of {', '.join(_FAMILIES)}")
    build, keys = _FAMILIES[family]
    values = _section(cp, "timescale", {"family": str, **keys}, {"family", *keys})
    del values["family"]
    try:
        return build(*values.values())
    except TimeScaleError as exc:
        raise ConfigError(f"[timescale]: {exc}") from exc


def _problem(cp: configparser.ConfigParser, ts: TimeScale) -> Optional[Problem]:
    v = _fields(cp, "problem")
    if v is None:
        return None
    try:
        return Problem.from_strings(ts, v.pop("n"), v.pop("L"), v.pop("g", "0"), v.pop("x_a"), **v)
    except (ProblemError, ExprSyntaxError) as exc:
        raise ConfigError(f"[problem]: {exc}") from exc


def _options(cp: configparser.ConfigParser) -> tuple[Optional[SolveOptions], tuple[float, ...]]:
    fields = _fields(cp, "solve")
    if fields is None:
        return None, ()
    cuts = fields.pop("truncations", [fields["T_trunc"]])
    try:
        return SolveOptions(**fields), tuple(cuts)
    except ValueError as exc:
        raise ConfigError(f"[solve]: {exc}") from exc


#: the last run file's text and its validated config, reused while the text repeats
_LOADED: dict[str, RunConfig] = {}


def load_config(path) -> RunConfig:
    """Parse and validate a run file; raises ConfigError on any problem.

    The file is read whole and its text is the key of a one-entry cache: a
    file whose text repeats the last one loaded, at any path, returns the
    same ``RunConfig``, whose grid, problem binding and ``memo`` were built
    then.  A file that fails to load leaves the entry as it was.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text, source = fh.read(), fh.name
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    rc = _LOADED.get(text)
    if rc is not None:
        return rc
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text, source)
    except configparser.Error as exc:
        raise ConfigError(f"bad INI syntax in {path!r}: {exc}") from exc
    stray = [name for name in cp.sections() if name not in ("timescale", *_SECTIONS)]
    if stray:
        raise ConfigError(f"unknown section [{stray[0]}]; the sections are timescale, {', '.join(_SECTIONS)}")
    if not cp.has_section("timescale"):
        raise ConfigError("config needs a [timescale] section")
    ts = _timescale(cp)
    problem = _problem(cp, ts)
    options, truncations = _options(cp)
    report = ReportConfig(**(_fields(cp, "report") or {}))
    quad = _fields(cp, "quad")
    rc = RunConfig(
        timescale=ts,
        problem=problem,
        options=options,
        truncations=truncations,
        report=report,
        quad_f=None if quad is None else quad["f"],
    )
    _LOADED.clear()
    _LOADED[text] = rc
    return rc
