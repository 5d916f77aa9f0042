"""The benchmark's tracer wraps nablats functions by name; every name it lists
must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves():
    names = [(home, fname) for home, fnames in _layers().values() for fname in fnames]
    # the brute-force note counts assignments through free_coordinates
    names.append(("solver", "free_coordinates"))
    for home, fname in names:
        module = importlib.import_module(f"nablats.{home}")
        assert callable(getattr(module, fname, None)), f"nablats.{home}.{fname}"
