"""The benchmark's tracer still matches the names and buckets it wraps.

`benchmark/tracing.py` replaces module attributes by timing wrappers and
sums `SolveReport.timings` buckets; a renamed function or bucket would
break the traced benchmark run without failing any solver test.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from pcover.generators import (gen_gap_family, gen_random_tree_instance,
                               reduce_multicut)
from pcover.merger import build_merger_graph, merge
from pcover.pipeline import solve_partial_tbc, to_greedy_form
from pcover.threshold import find_threshold

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


def test_traced_call_sites_are_reached(monkeypatch):
    # A call site that resolves but is bypassed (a caller that no longer
    # looks the name up in the module) would read 0 in the traced run.
    tracing = _load_tracing()
    counts = Counter()
    for module_name, attr, span in tracing.CALL_SITES:
        if module_name not in ("pcover.threshold", "pcover.pipeline"):
            continue
        module = importlib.import_module(module_name)

        def counting(*args, _fn=getattr(module, attr), _span=span, **kwargs):
            counts[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    pipeline = importlib.import_module("pcover.pipeline")
    pipeline.solve_partial_tbc(gen_gap_family(1).instance)
    for span in ("threshold.lower_envelope_breakpoints", "kolen.kolen.probe",
                 "kolen.audit_optimality", "threshold.find_threshold",
                 "pipeline.solve_partial_tbc"):
        assert counts[span] > 0, span


def test_traced_lp_call_sites_are_reached_once(monkeypatch):
    # A rho solve runs one simplex (`solve_lp`) and certifies its tableau
    # duals (`solve_dual`); both names are traced call sites.
    tracing = _load_tracing()
    counts = Counter()
    for module_name, attr, span in tracing.CALL_SITES:
        if span not in ("lp.solve_lp", "lp.solve_dual"):
            continue
        module = importlib.import_module(module_name)

        def counting(*args, _fn=getattr(module, attr), _span=span, **kwargs):
            counts[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    pipeline = importlib.import_module("pcover.pipeline")
    pipeline.solve_rho_separable(*reduce_multicut(gen_random_tree_instance(1)))
    assert counts == Counter({"lp.solve_lp": 1, "lp.solve_dual": 1})


def test_merge_hooks_count_the_graph_and_the_trace():
    # The hooks read MergerGraph and MergeTrace; their counts must be those
    # of a direct build and merge on the same input.
    tracing = _load_tracing()
    instance = gen_gap_family(2).instance
    tracer = tracing.Tracer()
    with tracer.installed():
        importlib.import_module("pcover.pipeline").solve_partial_tbc(instance)
    work, _ = to_greedy_form(instance)
    low, high = find_threshold(work).merge_pair(work.target)
    graph = build_merger_graph(work, low.pruned, high.pruned, low.positive, high.positive)
    _, trace = merge(graph, low.pruned, high.pruned, work)
    assert trace.splits
    names = ("merger.graph_vertices", "merger.graph_edges",
             "merger.merge.recursive_calls", "merger.splits")
    assert {name: tracer.counts[name] for name in names} == dict(zip(names, (
        len(graph.vertices), len(graph.edges), len(trace.calls), len(trace.splits))))
