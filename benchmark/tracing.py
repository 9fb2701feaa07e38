"""Outside-in tracing of pcover's layers for the benchmark's traced run.

The program carries no tracing of its own.  For a traced pass the benchmark
replaces public functions by timing wrappers at the names their callers look
up: the modules import each other with `from .x import y`, so a wrapper must
sit in the caller's namespace (`pcover.threshold.kolen`, not
`pcover.kolen.kolen`).  Modules are reached through `importlib`, because
`pcover/__init__` rebinds the attribute `pcover.kolen` to the function.

Spans are kept in memory as [name, start, end, parent, op] and written out
when the run ends.  A span's self time is its duration minus its children's;
spans nest, so children never overlap.  Counts come from return values.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

OP_SPAN = "bench.op"

# (module whose global name is replaced, attribute, span name)
CALL_SITES = (
    ("pcover.formats", "parse_instance", "formats.parse_instance"),
    ("pcover.formats", "parse_decomposition", "formats.parse_decomposition"),
    ("pcover.formats", "render_payload", "formats.render_payload"),
    ("pcover.pipeline", "solve_partial_tbc", "pipeline.solve_partial_tbc"),
    ("pcover.pipeline", "solve_rho_separable", "pipeline.solve_rho_separable"),
    ("pcover.pipeline", "audit_corpus_entry", "pipeline.audit_corpus_entry"),
    ("pcover.pipeline", "lemma_witness_check", "pipeline.lemma_witness_check"),
    ("pcover.pipeline", "brute_force_prize_collecting",
     "pipeline.brute_force_prize_collecting"),
    ("pcover.pipeline", "standard_greedy_form", "tb.standard_greedy_form"),
    ("pcover.kolen", "is_gamma_free", "tb.is_gamma_free"),
    ("pcover.pipeline", "permute_instance", "model.permute_instance"),
    ("pcover.pipeline", "find_threshold", "threshold.find_threshold"),
    ("pcover.threshold", "lower_envelope_breakpoints",
     "threshold.lower_envelope_breakpoints"),
    ("pcover.threshold", "kolen", "kolen.kolen.probe"),
    ("pcover.pipeline", "kolen", "kolen.kolen.direct"),
    ("pcover.pipeline", "audit_optimality", "kolen.audit_optimality"),
    ("pcover.pipeline", "build_merger_graph", "merger.build_merger_graph"),
    ("pcover.pipeline", "merge", "merger.merge"),
    ("pcover.pipeline", "audit_merge_bound", "merger.audit_merge_bound"),
    ("pcover.pipeline", "solve_lp", "lp.solve_lp"),
    ("pcover.pipeline", "solve_dual", "lp.solve_dual"),
)

# SolveReport.timings buckets of solve_partial_tbc and the spans inside them.
TIMING_BUCKETS = {
    "greedy_form": ("tb.standard_greedy_form", "model.permute_instance"),
    "threshold": ("threshold.find_threshold",),
    "merge": ("kolen.audit_optimality", "merger.build_merger_graph",
              "pipeline.lemma_witness_check", "merger.merge",
              "merger.audit_merge_bound"),
}


def _count_sgf(counts, args, result):
    counts[f"tb.mode.{result.mode}"] += 1


def _count_threshold(counts, args, result):
    counts["threshold.probes"] += result.kolen_calls
    budget = importlib.import_module("pcover.threshold").kolen_call_budget
    counts["threshold.probe_budget"] += budget(args[0])


def _count_graph(counts, args, result):
    counts["merger.graph_vertices"] += len(result.vertices)
    counts["merger.graph_edges"] += len(result.edges)


def _count_merge(counts, args, result):
    _final, trace = result
    counts["merger.merge.recursive_calls"] += len(trace.calls)
    counts["merger.splits"] += len(trace.splits)


def _count_timings(counts, args, result):
    for bucket in TIMING_BUCKETS:
        counts[f"timings.{bucket}"] += result.timings[bucket]


HOOKS = {
    "tb.standard_greedy_form": _count_sgf,
    "threshold.find_threshold": _count_threshold,
    "merger.build_merger_graph": _count_graph,
    "merger.merge": _count_merge,
    "pipeline.solve_partial_tbc": _count_timings,
}


class Tracer:
    """Span and count recorder; `installed()` wraps the call sites."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, span in CALL_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


class SpanTotals:
    """Busy time, self time and call count per span name."""

    def __init__(self, spans):
        children = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                children[parent] += end - start
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        # busy time of spans that run inside a solve_partial_tbc span
        self.in_tbc = defaultdict(float)
        tbc = "pipeline.solve_partial_tbc"
        for idx, (name, start, end, parent, _op) in enumerate(spans):
            dur = end - start
            self.busy[name] += dur
            self.self_time[name] += dur - children[idx]
            self.calls[name] += 1
            while parent >= 0 and spans[parent][0] != tbc:
                parent = spans[parent][3]
            if parent >= 0:
                self.in_tbc[name] += dur

    def total_self(self) -> float:
        return sum(self.self_time.values())

    def timings_gap(self, counts) -> tuple[float, float]:
        """(sum of |bucket - traced spans|, sum of buckets) over the
        SolveReport.timings buckets of solve_partial_tbc."""
        gap = total = 0.0
        for bucket, names in TIMING_BUCKETS.items():
            reported = counts[f"timings.{bucket}"]
            gap += abs(reported - sum(self.in_tbc[n] for n in names))
            total += reported
        return gap, total


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better, value from (totals, counts, context)).  Times and
# counts are reported per pass over the workload's cases; ratios as they are.
PER_LAYER = (
    ("tb.standard_greedy_form.busy_s", "s", "lower",
     lambda t, c, x: t.busy["tb.standard_greedy_form"]),
    ("tb.standard_greedy_form.calls", "count", "lower",
     lambda t, c, x: t.calls["tb.standard_greedy_form"]),
    ("tb.mode.identity", "count", "higher", lambda t, c, x: c["tb.mode.identity"]),
    ("tb.mode.blocks", "count", "higher", lambda t, c, x: c["tb.mode.blocks"]),
    ("tb.mode.elimination", "count", "lower", lambda t, c, x: c["tb.mode.elimination"]),
    ("tb.mode.exhaustive", "count", "lower", lambda t, c, x: c["tb.mode.exhaustive"]),
    ("tb.is_gamma_free.busy_s", "s", "lower", lambda t, c, x: t.busy["tb.is_gamma_free"]),
    ("model.permute_instance.busy_s", "s", "lower",
     lambda t, c, x: t.busy["model.permute_instance"]),
    ("threshold.find_threshold.busy_s", "s", "lower",
     lambda t, c, x: t.busy["threshold.find_threshold"]),
    ("threshold.find_threshold.self_s", "s", "lower",
     lambda t, c, x: t.self_time["threshold.find_threshold"]),
    ("threshold.lower_envelope_breakpoints.calls", "count", "lower",
     lambda t, c, x: t.calls["threshold.lower_envelope_breakpoints"]),
    ("threshold.lower_envelope_breakpoints.busy_s", "s", "lower",
     lambda t, c, x: t.busy["threshold.lower_envelope_breakpoints"]),
    ("threshold.probes", "count", "lower", lambda t, c, x: c["threshold.probes"]),
    ("threshold.probes_per_budget", "ratio", "lower",
     lambda t, c, x: _ratio(c["threshold.probes"], c["threshold.probe_budget"])),
    ("kolen.kolen.probe_busy_s", "s", "lower", lambda t, c, x: t.busy["kolen.kolen.probe"]),
    ("kolen.kolen.probe_calls", "count", "lower", lambda t, c, x: t.calls["kolen.kolen.probe"]),
    ("kolen.kolen.direct_busy_s", "s", "lower", lambda t, c, x: t.busy["kolen.kolen.direct"]),
    ("kolen.kolen.direct_calls", "count", "lower",
     lambda t, c, x: t.calls["kolen.kolen.direct"]),
    ("kolen.audit_optimality.busy_s", "s", "lower",
     lambda t, c, x: t.busy["kolen.audit_optimality"]),
    ("kolen.audit_optimality.calls", "count", "lower",
     lambda t, c, x: t.calls["kolen.audit_optimality"]),
    ("merger.build_merger_graph.busy_s", "s", "lower",
     lambda t, c, x: t.busy["merger.build_merger_graph"]),
    ("merger.graph_vertices", "count", "lower", lambda t, c, x: c["merger.graph_vertices"]),
    ("merger.graph_edges", "count", "lower", lambda t, c, x: c["merger.graph_edges"]),
    ("merger.merge.busy_s", "s", "lower", lambda t, c, x: t.busy["merger.merge"]),
    ("merger.merge.recursive_calls", "count", "lower",
     lambda t, c, x: c["merger.merge.recursive_calls"]),
    ("merger.splits", "count", "lower", lambda t, c, x: c["merger.splits"]),
    ("merger.audit_merge_bound.busy_s", "s", "lower",
     lambda t, c, x: t.busy["merger.audit_merge_bound"]),
    ("lp.solve_lp.busy_s", "s", "lower", lambda t, c, x: t.busy["lp.solve_lp"]),
    ("lp.solve_lp.calls", "count", "lower", lambda t, c, x: t.calls["lp.solve_lp"]),
    ("lp.solve_dual.busy_s", "s", "lower", lambda t, c, x: t.busy["lp.solve_dual"]),
    ("lp.solve_dual.calls", "count", "lower", lambda t, c, x: t.calls["lp.solve_dual"]),
    ("pipeline.solve_partial_tbc.self_s", "s", "lower",
     lambda t, c, x: t.self_time["pipeline.solve_partial_tbc"]),
    ("pipeline.solve_rho_separable.self_s", "s", "lower",
     lambda t, c, x: t.self_time["pipeline.solve_rho_separable"]),
    ("pipeline.audit_corpus_entry.self_s", "s", "lower",
     lambda t, c, x: t.self_time["pipeline.audit_corpus_entry"]),
    ("pipeline.lemma_witness_check.busy_s", "s", "lower",
     lambda t, c, x: t.busy["pipeline.lemma_witness_check"]),
    ("pipeline.brute_force_prize_collecting.busy_s", "s", "lower",
     lambda t, c, x: t.busy["pipeline.brute_force_prize_collecting"]),
    ("pipeline.brute_force_prize_collecting.calls", "count", "lower",
     lambda t, c, x: t.calls["pipeline.brute_force_prize_collecting"]),
    ("formats.parse_instance.busy_s", "s", "lower",
     lambda t, c, x: t.busy["formats.parse_instance"]),
    ("formats.render_payload.busy_s", "s", "lower",
     lambda t, c, x: t.busy["formats.render_payload"]),
    ("bench.op.self_s", "s", "lower", lambda t, c, x: t.self_time[OP_SPAN]),
    ("trace.ops", "count", "higher", lambda t, c, x: t.calls[OP_SPAN]),
    ("trace.overhead_share", "ratio", "lower",
     lambda t, c, x: _ratio(x["traced_s"], x["untraced_s"]) - 1.0),
    ("trace.unaccounted_s", "s", "lower",
     lambda t, c, x: x["traced_wall"] - t.total_self()),
    ("trace.timings_gap_share", "ratio", "lower",
     lambda t, c, x: _ratio(*t.timings_gap(c))),
)


def per_layer_metrics(tracer: Tracer, passes: int, untraced_s: float,
                      traced_s: float, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as (value per pass, unit).

    `untraced_s` and `traced_s` are the passes' op time in reference
    seconds; `traced_wall` is the traced ops' wall time, which the spans
    account for.
    """
    totals = SpanTotals(tracer.spans)
    context = {"untraced_s": untraced_s, "traced_s": traced_s,
               "traced_wall": traced_wall}
    out = {}
    for name, unit, _better, value in PER_LAYER:
        v = value(totals, tracer.counts, context)
        out[name] = (v if unit == "ratio" else v / passes, unit)
    return out
