"""The benchmark runs end to end: every workload, one case, traced and not.

`benchmark/smoke.py` checks that each run exits 0, reports correct output
and names exactly the metrics BENCHMARK.json lists.  Running it here makes
a solver change that breaks a workload, a metric name or the tracer fail
the test suite, not only the benchmark.  Its spans go to `.bench_out/`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "benchmark" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
