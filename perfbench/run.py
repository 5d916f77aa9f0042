"""nablats benchmark: CLI solve/verify latency on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole rounds of the workload, untraced, for about
``--seconds`` and prints the end-to-end metrics as wall times at a reference
host speed (see hostspeed.py), with the raw wall times beside them.
``--trace 1`` runs a round untraced and the same round with spans around
every call into nablats, then a size sweep; it prints the per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so runs do not depend on core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import spans as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: set-up repeats at the start and again at the end of a run, so that the
#: median spans the run rather than one moment of it
SETUP_REPEATS = 20
#: solve requests in each round of a traced run
TRACED_SOLVES = 3
#: ladder of tail percentiles; the highest that leaves 10 samples beyond it is reported
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def import_program():
    """Import nablats from this checkout's src/, or raise ImportError."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("nablats.cli")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nablats was imported from {module.__file__}, not from {SRC}")
    return sys.modules["nablats"]


def measure_setup(cfg: str, speed: hostspeed.HostSpeed) -> list[float]:
    """Import plus the first config load, grid build, parse and symbolic partials.

    Each repeat imports a fresh copy of nablats; objects made from an earlier
    copy keep working with it.  Reference work follows each repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "nablats" or n.startswith("nablats.")]:
            del sys.modules[name]
        start = time.perf_counter()
        nb = import_program()
        rc = nb.config.load_config(cfg)
        rc.require_problem().partials
        times.append(time.perf_counter() - start)
        speed.sample(times[-1])
    return times


def tail(samples):
    """(percentile, value) of the highest ladder percentile with >= 10 samples beyond it."""
    vals = sorted(samples)
    for pct in TAIL_LADDER:
        rank = max(1, -(-len(vals) * pct // 100))
        if len(vals) - rank >= 10:
            return pct, vals[int(rank) - 1]
    return None, None


def environment() -> str:
    return (f"machine {platform.machine()} {platform.processor() or platform.system()}, "
            f"nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {np.__version__}, BLAS threads 1, one process, one client")


def command_lines(records, factor):
    """Per-command latency lines at reference speed: (name, value, unit, note)."""
    by_kind = {}
    for kind, seconds, _ in records:
        by_kind.setdefault(kind, []).append(seconds * 1000 * factor)
    lines = []
    for kind in ("solve", "check_el", "check_el_finite", "compare", "lemma", "brute_force"):
        ms = by_kind.get(kind)
        if not ms:
            continue
        lines.append((f"{kind}_p50_ms", statistics.median(ms), "ms", f"n={len(ms)}"))
        pct, value = tail(ms)
        if pct is None:
            lines.append((f"{kind}_tail_ms", float("nan"), "ms", f"n={len(ms)}, too few samples"))
        else:
            lines.append((f"{kind}_tail_ms", value, "ms", f"p{pct:g}, n={len(ms)}"))
    return lines


def print_line(name, value, unit, note=""):
    print(f"{name:<44} {value:>14.6g} {unit:<6} {note}")


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    factory = workloads.WORKLOADS[workload]
    workdir = HERE / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_cfg = str(workdir / "setup.ini")
        factory().setup_config(setup_cfg)
        setup_speed = hostspeed.HostSpeed()
        setup = measure_setup(setup_cfg, setup_speed)
        nb = sys.modules["nablats"]
        client = workloads.Client(nb, workdir)
        print(f"# workload {workload}, seed {seed}, seconds {seconds:g}, trace {int(traced)}")
        print(f"# {environment()}")
        if traced:
            result = traced_run(client, factory, workload, seed)
        else:
            result = timed_run(client, factory, seed, seconds, setup_cfg, setup, setup_speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [(kind, problems) for kind, _, problems in client.records if problems]
    for kind, problems in failed[:20]:
        print(f"FAILED {kind}: {'; '.join(problems)}", file=sys.stderr)
    attempted = len(client.records)
    print_line("error_ratio", len(failed) / attempted, "ratio", f"{len(failed)} of {attempted} requests")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": result}


def timed_run(client, factory, seed, seconds, setup_cfg, setup, setup_speed) -> dict:
    wl = factory()
    wl.start(np.random.default_rng(seed))
    client.speed = hostspeed.HostSpeed()
    rounds = 0
    start = time.perf_counter()
    # whole rounds, and another only if half of one still fits in the time
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        wl.round(client)
        rounds += 1
    setup = setup + measure_setup(setup_cfg, setup_speed)
    records = client.records
    factor, setup_factor = client.speed.factor, setup_speed.factor
    busy = sum(sec for _, sec, _ in records)
    # geometric mean of all request latencies: a 2x change of one command
    # moves it by 2 to the power of the command's share of the requests,
    # whether that command takes 2 ms or 1 s
    mix_ms = math.exp(statistics.fmean(math.log(sec * 1000) for _, sec, _ in records))
    setup_s = statistics.median(setup)
    metrics = {
        "setup_s": (setup_s * setup_factor, "s",
                    f"median of {len(setup)}, {setup_speed.note()}; wall {setup_s:.6g} s"),
        "throughput_rps": (len(records) / (busy * factor), "1/s",
                           f"{len(records)} requests in {rounds} rounds, {busy:.3f} s busy, "
                           f"{client.speed.note()}; wall {len(records) / busy:.6g} 1/s"),
        "mix_gmean_ms": (mix_ms * factor, "ms", f"n={len(records)}; wall {mix_ms:.6g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
    }
    print("# times at reference speed: wall time x host factor (hostspeed.py)")
    for name, (value, unit, note) in metrics.items():
        print_line(name, value, unit, note)
    for name, value, unit, note in command_lines(client.records, factor):
        print_line(name, value, unit, note)
    converged = client.notes["solve_converged"]
    if converged:
        print_line("solve_converged_ratio", sum(converged) / len(converged), "ratio",
                   f"n={len(converged)}")
    residuals = client.notes["solve_residual"]
    if residuals:
        print_line("solve_check_el_max_residual", max(residuals), "1",
                   f"check-el pointwise on {len(residuals)} converged solutions")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def traced_run(client, factory, workload, seed) -> dict:
    """An untraced round, the same round traced, then the size sweep.

    Both rounds draw the same inputs from the seed.  On the solve workloads
    a round is cut to its first TRACED_SOLVES requests, which keeps a traced
    run within three minutes.
    """
    plain, traced_wl = factory(), factory()
    short = {"solves": TRACED_SOLVES} if isinstance(plain, workloads.SolveWorkload) else {}
    plain.start(np.random.default_rng(seed))
    traced_wl.start(np.random.default_rng(seed))
    tracer = tracing.Tracer()
    untraced = plain.round(client, **short)
    solve_before = sum(1 for kind, _, _ in client.records if kind == "solve")
    tracer.install()
    client.tracer = tracer
    traced = traced_wl.round(client, **short)
    client.tracer = None
    tracer.uninstall()
    solve_requests = sum(1 for kind, _, _ in client.records if kind == "solve") - solve_before

    metrics = tracing.layer_metrics(tracer.spans, solve_requests)
    sweep = workloads.size_sweep(client, np.random.default_rng(seed))
    for command in workloads.SWEEP_COMMANDS:
        pts, secs = zip(*sweep[command])
        metrics[f"cli.{command}.m_slope"] = float(np.polyfit(np.log(pts), np.log(secs), 1)[0])
        print(f"# sweep {command}: " + ", ".join(f"m={m} {s:.4f} s" for m, s in sweep[command]))
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    print(f"# tracing overhead: {traced:.4f} s traced vs {untraced:.4f} s untraced")
    for name, (unit, _) in tracing.PER_LAYER.items():
        print_line(name, metrics[name], unit)
    return {name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nablats" / "cli.py").is_file():
        print(f"error: no nablats sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
