"""Spans around calls into nablats, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
wrapper, in its defining module and in every nablats module that imported it
by name (``cli``, ``solver``, ``variational``, ``config``, ``fundamental``).
A wrapper records one span: layer name, start, end, parent span and request
id.  A call to a layer from inside the same layer (recursion, or
``transversality_residual_T1`` and ``_T2`` sharing a name) is folded into the
outer span.  Spans stay in memory until ``write``.  ``layer_metrics`` turns
them into the per-layer table.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: layer name -> (defining module, public functions it covers)
LAYERS = {
    "timescale.build": ("timescale", ("integers", "uniform", "sampled_interval",
                                      "q_scale", "union", "from_points")),
    "config.load_config": ("config", ("load_config",)),
    "expressions.parse": ("expressions", ("parse",)),
    "expressions.differentiate": ("expressions", ("differentiate",)),
    "expressions.evaluate_many": ("expressions", ("evaluate_many",)),
    "calculus.nabla_derivative_fn": ("calculus", ("nabla_derivative_fn",)),
    "calculus.nabla_integral": ("calculus", ("nabla_integral",)),
    "calculus.liminf_estimate": ("calculus", ("liminf_estimate",)),
    "variational.compute_z": ("variational", ("compute_z",)),
    "variational.el_residual_pointwise": ("variational", ("el_residual_pointwise",)),
    "variational.finite_horizon_el_residual": ("variational", ("finite_horizon_el_residual",)),
    "variational.transversality": ("variational", ("transversality_residual_T1",
                                                   "transversality_residual_T2")),
    "variational.residual_report": ("variational", ("residual_report",)),
    "variational.evaluate_functional_partial": ("variational", ("evaluate_functional_partial",)),
    "variational.weak_max_compare": ("variational", ("weak_max_compare",)),
    "variational.trajectory_csv": ("variational", ("trajectory_to_csv", "trajectory_from_csv")),
    "fundamental.construct_violating_variation": ("fundamental", ("construct_violating_variation",)),
    "fundamental.witness_value": ("fundamental", ("witness_value",)),
    "solver.direct_solve": ("solver", ("direct_solve",)),
    "solver.horizon_study": ("solver", ("horizon_study",)),
    "solver.brute_force": ("solver", ("brute_force",)),
    "cli.main": ("cli", ("main",)),
}

#: per-layer metrics, in BENCHMARK.json order: name -> (unit, better)
_TIMED = [name for name in LAYERS if name != "cli.main"]
PER_LAYER = {}
for _name in _TIMED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    if _name != "fundamental.witness_value":
        PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "expressions.evaluate_many.elements": ("count", "lower"),
    "fundamental.witness_yield": ("ratio", "higher"),
    "solver.direct_solve.per_request": ("count", "lower"),
    "solver.iterations_per_solve": ("count", "lower"),
    "solver.converged_ratio": ("ratio", "higher"),
    "solver.evaluate_many_per_iteration": ("count", "lower"),
    "solver.brute_force.assignments_per_s": ("1/s", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "cli.solve.m_slope": ("1", "lower"),
    "cli.check_el.m_slope": ("1", "lower"),
    "cli.check_el_finite.m_slope": ("1", "lower"),
    "cli.compare.m_slope": ("1", "lower"),
    "cli.lemma.m_slope": ("1", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

_NAME, _START, _END, _PARENT, _REQUEST, _NOTE = range(6)


def _note_evaluate_many(args, out):
    return int(np.size(out))


def _note_direct_solve(args, out):
    if isinstance(out, tuple):  # with_info=True: the CLI's own solve
        info = out[1]
        return (info.iterations, info.converged)
    return None


def _note_variation(args, out):
    return out is not None


def _note_brute_force(args, out):
    from nablats.solver import free_coordinates

    p, opts, grid = args[:3]
    return len(set(float(v) for v in grid)) ** len(free_coordinates(p, opts))


_NOTES = {
    "expressions.evaluate_many": _note_evaluate_many,
    "solver.direct_solve": _note_direct_solve,
    "fundamental.construct_violating_variation": _note_variation,
    "solver.brute_force": _note_brute_force,
}


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self.request_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "nablats" or name.startswith("nablats.")]
        for layer, (home, names) in LAYERS.items():
            defining = sys.modules[f"nablats.{home}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(original, layer, _NOTES.get(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, layer, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and spans[stack[-1]][_NAME] == layer):
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[_NOTE] = note(args, out)
            return out

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, request, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "note": note}) + "\n")


def layer_metrics(spans, solve_requests: int) -> dict[str, float]:
    """The per-layer table (without the size sweep and overhead entries)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    # nearest enclosing direct_solve that reported its iterations, or -1
    solve_of = [-1] * len(spans)
    elements = 0
    for i, rec in enumerate(spans):
        name = rec[_NAME]
        calls[name] += 1
        self_s[name] += (rec[_END] - rec[_START]) - child[i]
        if name == "solver.direct_solve" and rec[_NOTE] is not None:
            solve_of[i] = i
        elif rec[_PARENT] >= 0:
            solve_of[i] = solve_of[rec[_PARENT]]
        if name == "expressions.evaluate_many":
            elements += rec[_NOTE]

    out = {}
    for name in _TIMED:
        out[f"{name}.calls"] = calls[name]
        if f"{name}.self_s" in PER_LAYER:
            out[f"{name}.self_s"] = self_s[name]
    out["cli.main.self_s"] = self_s["cli.main"]
    out["expressions.evaluate_many.elements"] = elements

    found = sum(1 for rec in spans
                if rec[_NAME] == "fundamental.construct_violating_variation" and rec[_NOTE])
    out["fundamental.witness_yield"] = _ratio(found, calls["fundamental.witness_value"])

    infos = [rec[_NOTE] for rec in spans
             if rec[_NAME] == "solver.direct_solve" and rec[_NOTE] is not None]
    iterations = sum(it for it, _ in infos)
    in_solves = sum(1 for i, rec in enumerate(spans)
                    if rec[_NAME] == "expressions.evaluate_many" and solve_of[i] >= 0)
    out["solver.direct_solve.per_request"] = _ratio(calls["solver.direct_solve"], solve_requests)
    out["solver.iterations_per_solve"] = _ratio(iterations, len(infos))
    out["solver.converged_ratio"] = _ratio(sum(1 for _, ok in infos if ok), len(infos))
    out["solver.evaluate_many_per_iteration"] = _ratio(in_solves, iterations)

    bf_time = sum(rec[_END] - rec[_START] for rec in spans if rec[_NAME] == "solver.brute_force")
    assignments = sum(rec[_NOTE] for rec in spans if rec[_NAME] == "solver.brute_force")
    out["solver.brute_force.assignments_per_s"] = _ratio(assignments, bf_time)
    return out


def _ratio(num, den) -> float:
    """num / den, and 0.0 where the workload has nothing to divide by."""
    return num / den if den else 0.0
