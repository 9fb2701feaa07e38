#!/usr/bin/env python3
"""pcover benchmark: one workload in one process, closed loop, one op at a time.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/` next to
this directory and from nowhere else.  With `--trace 0` the run sets up the
workload's inputs (timed, several times), then runs whole passes over its
cases until S seconds have passed and prints the end-to-end metrics.  With
`--trace 1` it alternates an untraced and a traced pass over the cases
until S seconds have passed and prints the per-layer metrics; spans go to
`.bench_out/`.  Times are in reference seconds (see speed.py).  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--ops K` keeps only the first K cases (the smoke check uses 1).
Workloads, metrics and the known defect are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_program() -> None:
    """Put `src/` first on the path; fail if pcover would come from elsewhere."""
    if not (SRC / "pcover" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program sources at {SRC / 'pcover'}")
    sys.path.insert(0, str(SRC))
    import pcover
    if Path(pcover.__file__).resolve().parent != SRC / "pcover":
        sys.exit(f"benchmark: pcover imported from {pcover.__file__}, not {SRC}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=None)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        ap.error("--seconds and --ops must be positive")
    return args


class Loop:
    """A closed loop over a workload's cases: outcomes and op intervals."""

    def __init__(self, w, speed):
        self.w = w
        self.speed = speed
        self.digests: dict[str, str] = {}
        self.solved: list[float] = []  # wall seconds of successful ops
        self.spent: list[float] = []   # wall seconds of every op
        self.ratios: list[float] = []
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run_op(self, case, operate) -> str:
        """One operation, checks included; returns a one-line outcome."""
        self.speed.maybe_sample()
        start = time.perf_counter()
        try:
            out = operate(case)
            verdict = self.w.check(case, out, self.digests)
        except Exception as exc:  # a failed op is tallied, the loop goes on
            self.spent.append(time.perf_counter() - start)
            self.failures.append(f"{case.label}: {type(exc).__name__} at "
                                 f"{self.w.raising_layer(exc)}: {exc}")
            return self.failures[-1]
        wall = time.perf_counter() - start
        self.spent.append(wall)
        if verdict.problems:
            self.problems.extend(f"{case.label}: {p}" for p in verdict.problems)
            return self.problems[-1]
        self.solved.append(wall)
        if verdict.lower_bound > 0:
            self.ratios.append(float(verdict.cost / verdict.lower_bound))
        return (f"{case.label}: cost {verdict.cost}, bound {verdict.lower_bound}, "
                f"{wall:.3f} s")

    def cycle(self, cases, seconds, operate) -> None:
        """Run whole passes over `cases` until `seconds` have passed.

        Whole passes keep every run's mix of inputs the same, whatever the
        machine's speed; the last pass may end after the deadline.
        """
        deadline = time.perf_counter() + seconds
        while True:
            for case in cases:
                self.run_op(case, operate)
            if time.perf_counter() >= deadline:
                break
        self.speed.maybe_sample()

    @property
    def attempted(self) -> int:
        return len(self.spent)

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.problems)


def _setup(setup, seed, repeats, speed):
    """Build the inputs `repeats` times.

    Returns the inputs, the median wall time, and that time in reference
    seconds, scaled by the reference samples taken just before and just
    after the set-ups: the run's later samples describe the loop.
    """
    first = len(speed.durations)
    speed.burst()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        inputs = setup(seed)
        times.append(time.perf_counter() - start)
    speed.burst()
    wall = statistics.median(times)
    return inputs, wall, wall * speed.factor(first)


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, not below p50."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _probe(w, probes, loop) -> None:
    """Run each defect probe once, outside the measured loop.

    A probe that raises is the known defect and is only printed; a probe
    that returns a wrong answer fails the run like any other operation.
    """
    probe_loop = Loop(w, loop.speed)
    for case in probes:
        print(f"defect probe {probe_loop.run_op(case, w.operate)}")
    loop.problems += probe_loop.problems


def end_to_end(w, speed, args) -> tuple[dict, Loop]:
    inputs, setup_wall, setup_s = _setup(w.WORKLOADS[args.workload], args.seed,
                                         SETUP_REPEATS, speed)
    loop = Loop(w, speed)
    loop.cycle(inputs.cases[:args.ops], args.seconds, w.operate)
    _probe(w, inputs.probes, loop)

    if not loop.solved:
        raise SystemExit("benchmark: no operation succeeded")
    factor = speed.factor()
    raw = loop.solved
    raw_busy = sum(loop.spent)
    times = [t * factor for t in raw]
    busy = raw_busy * factor
    n = len(times)
    tail, pct, beyond = _tail(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "solved_per_s": (n / busy, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "cost_over_lb": (statistics.fmean(loop.ratios), "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"times in reference seconds; reference sample median "
          f"{statistics.median(speed.durations) * 1000:.2f} ms over "
          f"{len(speed.durations)} samples (wall figures in brackets)")
    print(f"setup_s          {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups, "
          f"{len(inputs.cases)} cases) [{setup_wall:.4f}]")
    print(f"solved_per_s     {n / busy:.4f} 1/s ({n} solved in {busy:.2f} s of "
          f"loop time) [{n / raw_busy:.4f}]")
    print(f"op_p50_s         {statistics.median(times):.4f} s (n={n}) "
          f"[{statistics.median(raw):.4f}]")
    print(f"op_tail_s        {tail:.4f} s (p{pct:.1f}, n={n}, {beyond} beyond) "
          f"[{_tail(raw)[0]:.4f}]")
    print(f"ops_failed_share {loop.failed / loop.attempted:.4f} "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    print(f"cost_over_lb     {metrics['cost_over_lb'][0]:.4f} "
          f"(mean over {len(loop.ratios)} ops with a positive bound)")
    print(f"peak_rss_mb      {peak_mb:.1f} MB")
    return metrics, loop


def traced(w, tracing, speed, args) -> tuple[dict, Loop]:
    inputs = w.WORKLOADS[args.workload](args.seed)
    cases = inputs.cases[:args.ops]
    tracer = tracing.Tracer()
    untraced_loop, traced_loop = Loop(w, speed), Loop(w, speed)
    passes = 0
    traced_wall = 0.0  # the traced ops' wall time, which the spans account for
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < args.seconds:
        for case in cases:
            untraced_loop.run_op(case, w.operate)
        with tracer.installed():
            run_op = tracer.wrap(traced_loop.run_op, tracing.OP_SPAN)
            before = dict(tracer.counts)
            for case in cases:
                tracer.op += 1
                speed.maybe_sample()  # outside the op's span
                mark = time.perf_counter()
                line = run_op(case, w.operate)
                traced_wall += time.perf_counter() - mark
                if passes == 0 and len(cases) <= 16:
                    delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                             if not k.startswith("timings.") and v != before.get(k, 0)}
                    before = dict(tracer.counts)
                    print(f"traced {line} {delta}")
        passes += 1
    speed.sample()

    untraced_s = sum(untraced_loop.spent) * speed.factor()
    traced_s = traced_wall * speed.factor()
    metrics = tracing.per_layer_metrics(tracer, passes, untraced_s, traced_s, traced_wall)
    totals = tracing.SpanTotals(tracer.spans)
    print(f"{passes} untraced + {passes} traced passes of {len(cases)} ops; per pass "
          f"in reference seconds: untraced {untraced_s / passes:.4f} s, traced "
          f"{traced_s / passes:.4f} s; spans below in wall seconds")
    print(f"{'span':44} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for name in sorted(totals.busy, key=lambda n: -totals.self_time[n]):
        print(f"{name:44} {totals.calls[name] / passes:9.1f} "
              f"{totals.busy[name] / passes:10.4f} {totals.self_time[name] / passes:10.4f}")
    print(f"self times sum to {totals.total_self() / passes:.4f} s of "
          f"{traced_wall / passes:.4f} s traced loop wall per pass; unaccounted "
          f"{(traced_wall - totals.total_self()) / passes:.4f} s")
    gap, bucket_total = totals.timings_gap(tracer.counts)
    if bucket_total:
        print(f"SolveReport.timings buckets {bucket_total / passes:.4f} s per pass; "
              f"traced spans differ by {gap / passes:.4f} s")
    probes, budget = tracer.counts["threshold.probes"], tracer.counts["threshold.probe_budget"]
    print(f"threshold.probes_per_budget {probes}/{budget} over {passes} passes")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")

    loop = Loop(w, speed)
    for part in (untraced_loop, traced_loop):
        loop.spent += part.spent
        loop.failures += part.failures
        loop.problems += part.problems
    _probe(w, inputs.probes, loop)
    return metrics, loop


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import speed
    import tracing
    import workloads as w

    if args.workload not in w.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(w.WORKLOADS)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    meter = speed.Speedometer()
    if args.trace:
        metrics, loop = traced(w, tracing, meter, args)
    else:
        metrics, loop = end_to_end(w, meter, args)
    for line in loop.failures + loop.problems:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
