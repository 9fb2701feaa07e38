#!/usr/bin/env python3
"""Smoke check of the benchmark itself: one operation per workload.

    python3 benchmark/smoke.py

Runs every workload run.py knows (those in BENCHMARK.json and those kept
out of it, see NOTES.md) once untraced and once traced on its first case,
and fails unless the last output line is the result object with exactly
the metrics BENCHMARK.json names, each with its unit, and the run reports
correct output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.01", "--trace", str(trace), "--ops", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []
    import workloads

    unknown = {w["name"] for w in spec["workloads"]} - set(workloads.WORKLOADS)
    if unknown:
        errors.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    for workload in workloads.WORKLOADS:
        for trace, metrics in expected.items():
            result = run(workload, trace)
            where = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in metrics}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                errors.append(f"{where}: missing {missing}, extra {extra}, "
                              f"wrong unit {wrong}")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}")
    for line in errors:
        print(f"FAILED {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
