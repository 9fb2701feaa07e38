"""Merger graph construction and the combining procedures."""

import tracemalloc
from fractions import Fraction as F

import pytest

from merger_reference import (absolute_benefits, reference_cost_bound,
                              relative_benefit)
from pcover.errors import InternalInvariantError
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.merger import (MergeContext, MergeTrace, audit_cost_bound,
                           audit_merge_bound, build_merger_graph, merge)
from pcover.lp import dual_value
from pcover.model import Cover, cover_cost, covered_profit, make_instance
from pcover.pipeline import to_greedy_form
from pcover.threshold import find_threshold


def _threshold_dl(work, thr):
    """DL of a bracketing threshold run: its dual at the threshold multiplier."""
    y = [yi.value for yi in thr.at_star.dual.y]
    return dual_value(work, y, thr.lambda_star)


THREE_SET = make_instance([[1, 0, 1], [0, 1, 1]], [1, 1, 1], [1, 1], 0)


def three_set_graph():
    # Both elements have positive dual in both runs: masks 0b11.
    return build_merger_graph(THREE_SET, Cover.of([2]), Cover.of([0, 1]),
                              0b11, 0b11)


def test_empty_graph_when_covers_equal():
    cover = Cover.of([0])
    g = build_merger_graph(THREE_SET, cover, cover, 0b11, 0b11)
    assert g.vertices == () and g.edges == () and g.roots == ()


def test_single_vertex_graph():
    g = build_merger_graph(THREE_SET, Cover.of([]), Cover.of([0]), 0, 0b01)
    assert g.vertices == (0,)
    assert g.edges == ()
    assert g.roots == (0,)


def test_hand_built_domination_edges():
    g = three_set_graph()
    assert g.edges == ((2, 0), (2, 1))
    assert g.roots == (2,)
    assert g.children[2] == (0, 1)
    assert g.subtrees[2] == 0b111


def test_in_degree_two_fails_loudly():
    # Two later sets both dominating an earlier one from the same side
    # would need in-degree two on the earlier set.
    inst = make_instance([[1, 1, 0], [1, 0, 1]], [1, 1, 1], [1, 1], 0)
    with pytest.raises(InternalInvariantError, match="two dominators"):
        build_merger_graph(inst, Cover.of([1, 2]), Cover.of([0]), 0b11, 0b11)


def test_absolute_benefits_examples():
    disjoint = make_instance([[1, 0], [0, 1]], [1, 1], [2, 3], 0)
    assert absolute_benefits(disjoint, Cover.of([0, 1])) == {0: F(2), 1: F(3)}

    identical = make_instance([[1, 1]], [1, 1], [5], 0)
    assert absolute_benefits(identical, Cover.of([0, 1])) == {0: F(0), 1: F(0)}

    nested = make_instance([[1, 1], [0, 1]], [1, 1], [1, 1], 0)
    assert absolute_benefits(nested, Cover.of([0, 1])) == {0: F(0), 1: F(1)}


def test_relative_benefit_signs():
    g = three_set_graph()
    benefits = {0: F(2), 1: F(3), 2: F(5)}
    # single-vertex subtrees; covers are masks, bit j for set j
    assert relative_benefit(g, 0, 0, benefits) == 2
    assert relative_benefit(g, 0, 0b1, benefits) == -2
    # subtree with mixed membership
    assert relative_benefit(g, 2, 0b1, benefits) == 5 + 3 - 2


def test_merge_single_set_fixture():
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    thr = find_threshold(inst)
    low, high = thr.merge_pair(inst.target)
    g = build_merger_graph(inst, low.pruned, high.pruned, low.positive, high.positive)
    final, trace = merge(g, low.pruned, high.pruned, inst)
    assert final.sets == (0,)
    assert trace.splits == []
    assert cover_cost(inst, final) == 1


def test_merge_returns_lower_cover_when_already_feasible():
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    cover = Cover.of([0])
    g = build_merger_graph(inst, cover, cover, 0b11, 0b11)
    final, trace = merge(g, cover, cover, inst)
    assert final == cover
    assert trace.immediate == "lower cover already feasible"


def test_merge_on_corpus_runs():
    for seed in range(30):
        work, _ = to_greedy_form(corpus_instance(seed))
        thr = find_threshold(work)
        if thr.exact_hit is not None:
            continue
        low, high = thr.merge_pair(work.target)
        g = build_merger_graph(work, low.pruned, high.pruned, low.positive, high.positive)
        final, trace = merge(g, low.pruned, high.pruned, work)
        assert covered_profit(work, final) >= work.target
        assert final.as_set() <= low.pruned.as_set() | high.pruned.as_set()
        dl = _threshold_dl(work, thr)
        audit = audit_merge_bound(trace, work, dl)
        assert audit.ok
        # determinism
        final2, _ = merge(g, low.pruned, high.pruned, work)
        assert final2 == final


def test_merge_gap_family_exercises_splits():
    fam = gen_gap_family(1)
    work, _ = to_greedy_form(fam.instance)
    thr = find_threshold(work)
    assert thr.exact_hit is None
    low, high = thr.merge_pair(work.target)
    g = build_merger_graph(work, low.pruned, high.pruned, low.positive, high.positive)
    final, trace = merge(g, low.pruned, high.pruned, work)
    assert len(trace.splits) >= 1
    for record in trace.splits:
        if record.children_processed >= 2:
            assert record.offset_before >= 3 * min(record.offset_infeasible,
                                                   record.offset_feasible)
    dl = _threshold_dl(work, thr)
    assert audit_merge_bound(trace, work, dl).ok


def test_increase_immediate_exit_via_public_wrapper():
    # Adding the root alone reaches the target: first exit branch.
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    thr = find_threshold(inst)
    low, high = thr.merge_pair(inst.target)
    g = build_merger_graph(inst, low.pruned, high.pruned, low.positive, high.positive)
    ctx = MergeContext(g, inst, inst.target, Cover.of([0]).mask())
    assert ctx.increase(0, 0) == 0b1


def test_decrease_precondition_enforced():
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    thr = find_threshold(inst)
    low, high = thr.merge_pair(inst.target)
    g = build_merger_graph(inst, low.pruned, high.pruned, low.positive, high.positive)
    ctx = MergeContext(g, inst, inst.target, Cover.of([0]).mask())
    with pytest.raises(InternalInvariantError, match="precondition"):
        ctx.decrease(0, 0)  # empty cover is not feasible


def test_split_fixture_bound_arithmetic():
    # Hand-checked single-set fixture numbers: dl = 1/2, cost 1, c_max 1.
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    trace = MergeTrace(target=F(1), final=Cover.of([0]))
    audit = audit_merge_bound(trace, inst, F(1, 2))
    assert audit.ok
    k1 = audit.per_k[0]
    assert k1 == (1, F(2), True)  # 2 * 1/2 + 1 * 1


def test_tampered_cover_breaks_bound():
    inst = make_instance([[1] * 12], [1] * 12, [1], 1)
    trace = MergeTrace(target=F(1), final=Cover.of(range(12)))
    audit = audit_merge_bound(trace, inst, F(1, 10))
    assert not audit.ok
    # the first k that breaks: 12 > 2 * 1/10 + 1 * 1
    assert (audit.failed_clause, audit.detail) == ("k = 1", "cost 12 above bound 6/5")


def test_merge_memory_peak_on_gap_family():
    # Covers, sides and subtrees are int masks: building the graph and
    # merging on greedy-form gap q = 4 (512 vertices) stays under 450 KB.
    work, _ = to_greedy_form(gen_gap_family(4).instance)
    low, high = find_threshold(work).merge_pair(work.target)
    args = (work, low.pruned, high.pruned, low.positive, high.positive)
    tracemalloc.start()
    try:
        graph = build_merger_graph(*args)
        _, trace = merge(graph, low.pruned, high.pruned, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.vertices) == 512 and len(trace.splits) == 4
    assert peak < 450_000, peak


def test_cost_bound_on_ints_matches_the_fraction_bounds():
    # The bounds come out as the same Fractions, each k is decided as a
    # Fraction comparison would decide it, and the tightest k is the first
    # with the smallest bound; costs straddle the bounds and ties occur.
    rng = Lcg(3)
    cases = [(F(12), F(1, 10), F(1)), (F(2), F(1, 2), F(1)), (F(0), F(0), F(0))]
    for _ in range(300):
        base, c_max = rng.rational() * rng.below(3), rng.rational()
        bound = (1 + F(1, 3 ** rng.below(10))) * base + (1 + rng.below(10)) * c_max
        cases.append((bound + (rng.below(3) - 1) * F(1, 1 + rng.below(50)), base, c_max))
    outcomes = set()
    for cost, base, c_max in cases:
        audit = audit_cost_bound(cost, base, c_max)
        per_k, tightest = reference_cost_bound(cost, base, c_max)
        assert audit.per_k == per_k and audit.tightest_k == tightest
        assert audit.ok == all(holds for _, _, holds in per_k)
        outcomes.add((audit.ok, tightest))
    assert len(outcomes) > 5, outcomes
