"""Backward-difference (nabla) calculus on time-scale grids, with a
verifier and direct solver for infinite-horizon variational problems.

Layers, bottom to top:

- :mod:`nablats.timescale` — finite grids mixing exact isolated points
  with sampled continuum stretches.
- :mod:`nablats.calculus` — nabla derivative/integral, integration by
  parts, exact running sums and tail infima of truncated integrals.
- :mod:`nablats.expressions` — a small arithmetic expression language
  with symbolic differentiation, used for integrands.
- :mod:`nablats.variational` — problem statements, first-order residuals
  (pointwise, integral-form; the finite-horizon residual at T' is the
  pointwise one cut at T'), transversality, and weak-maximality comparison.
- :mod:`nablats.fundamental` — constructive positive-pairing variations
  certifying that a nonzero residual is detectable, on the grid of the
  residual itself.
- :mod:`nablats.solver` — Newton search on truncated objectives, brute
  force oracle, horizon studies.
- :mod:`nablats.config` / :mod:`nablats.cli` — INI run files and the
  ``nablats`` command.
"""

from .calculus import (
    CalculusError,
    EmptyTailError,
    GridFunction,
    GridMismatchError,
    OutsideKappaError,
    ReversedBoundsError,
    integration_by_parts_residual,
    liminf_estimate,
    nabla_derivative_fn,
    nabla_integral,
)
from .config import ConfigError, ReportConfig, RunConfig, load_config
from .expressions import (
    Expr,
    ExprDomainError,
    ExprSyntaxError,
    differentiate,
    evaluate_many,
    parse,
    to_source,
    variables,
)
from .fundamental import (
    CaseTag,
    DuboisReymondResult,
    Variation,
    construct_violating_variation,
    default_tolerance,
    dubois_reymond_check,
    witness_value,
)
from .solver import (
    EnumerationGuardError,
    HorizonRow,
    NonFiniteObjectiveError,
    SolveInfo,
    SolveOptions,
    brute_force,
    direct_solve,
    free_coordinates,
    horizon_study,
    horizon_table_to_csv,
)
from .timescale import (
    GapKind,
    PointNotInScaleError,
    TimeScale,
    TimeScaleError,
    from_points,
    integers,
    q_scale,
    sampled_interval,
    uniform,
    union,
)
from .variational import (
    AdmissibilityError,
    Problem,
    ProblemError,
    ResidualReport,
    Sense,
    Trajectory,
    compute_z,
    el_report_indices,
    el_residual_pointwise,
    evaluate_functional_partial,
    finite_horizon_el_residual,
    residual_report,
    trajectory_from_csv,
    trajectory_to_csv,
    transversality_residual_T1,
    transversality_residual_T2,
    weak_max_compare,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "CalculusError",
    "CaseTag",
    "ConfigError",
    "DuboisReymondResult",
    "EmptyTailError",
    "EnumerationGuardError",
    "Expr",
    "ExprDomainError",
    "ExprSyntaxError",
    "GapKind",
    "GridFunction",
    "GridMismatchError",
    "HorizonRow",
    "NonFiniteObjectiveError",
    "OutsideKappaError",
    "PointNotInScaleError",
    "Problem",
    "ProblemError",
    "ReportConfig",
    "ResidualReport",
    "ReversedBoundsError",
    "RunConfig",
    "Sense",
    "SolveInfo",
    "SolveOptions",
    "TimeScale",
    "TimeScaleError",
    "Trajectory",
    "Variation",
    "brute_force",
    "compute_z",
    "construct_violating_variation",
    "default_tolerance",
    "differentiate",
    "direct_solve",
    "dubois_reymond_check",
    "el_report_indices",
    "el_residual_pointwise",
    "evaluate_functional_partial",
    "evaluate_many",
    "finite_horizon_el_residual",
    "free_coordinates",
    "from_points",
    "horizon_study",
    "horizon_table_to_csv",
    "integers",
    "integration_by_parts_residual",
    "liminf_estimate",
    "load_config",
    "nabla_derivative_fn",
    "nabla_integral",
    "parse",
    "q_scale",
    "residual_report",
    "sampled_interval",
    "to_source",
    "trajectory_from_csv",
    "trajectory_to_csv",
    "transversality_residual_T1",
    "transversality_residual_T2",
    "uniform",
    "union",
    "variables",
    "weak_max_compare",
    "witness_value",
]
