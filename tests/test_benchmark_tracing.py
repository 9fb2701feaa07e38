"""The benchmark's tracer still matches the names and buckets it wraps.

`benchmark/tracing.py` replaces module attributes by timing wrappers and
sums `SolveReport.timings` buckets; a renamed function or bucket would
break the traced benchmark run without failing any solver test.
"""

import importlib
import importlib.util
from pathlib import Path

from pcover.generators import gen_gap_family
from pcover.pipeline import solve_partial_tbc

TRACING_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_call_sites_resolve():
    tracing = _load_tracing()
    missing = [(module_name, attr) for module_name, attr, _span in tracing.CALL_SITES
               if not hasattr(importlib.import_module(module_name), attr)]
    assert not missing


def test_solve_timings_have_every_bucket():
    tracing = _load_tracing()
    timings = solve_partial_tbc(gen_gap_family(1).instance).timings
    assert set(tracing.TIMING_BUCKETS) <= set(timings)
