"""The mask-based merger graph and the scaled-int merge recursion, refereed
against the pair loop and the Fraction recursion in merger_reference."""

from fractions import Fraction as F

import pytest

from merger_reference import (absolute_benefits, reference_build_merger_graph,
                              reference_merge, relative_benefit)
from pcover.arith import DeltaRational
from pcover.errors import InternalInvariantError
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.kolen import DualSolution
from pcover.merger import MergeContext, build_merger_graph, merge
from pcover.model import (Cover, Instance, PermutationPair, bit_indices,
                          make_instance, permute_instance)
from pcover.pipeline import to_greedy_form
from pcover.threshold import find_threshold


def assert_same_merge(instance):
    """Graph and trace of the bracketing pair equal the reference's; returns
    the split count (None when the threshold run hits the target)."""
    work, _ = to_greedy_form(instance)
    thr = find_threshold(work)
    if thr.exact_hit is not None:
        return None
    low, high = thr.merge_pair(work.target)
    graph = build_merger_graph(work, low.pruned, high.pruned,
                               low.positive, high.positive)
    reference = reference_build_merger_graph(work, low.pruned, high.pruned,
                                             low.dual, high.dual)
    assert graph.edges == reference.edges
    assert graph.parent == reference.parent
    assert graph.roots == reference.roots
    assert graph.subtrees == reference.subtrees
    assert graph == reference
    final, trace = merge(graph, low.pruned, high.pruned, work)
    ref_final, ref_trace = reference_merge(reference, low.pruned, high.pruned, work)
    assert final == ref_final
    assert trace == ref_trace
    return len(trace.splits)


def _lcg_shuffle(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def test_merge_matches_reference_on_corpus():
    for seed in range(200):
        assert_same_merge(corpus_instance(seed))


@pytest.mark.parametrize("q", [1, 2, 3])
def test_merge_matches_reference_on_gap_family(q):
    fam = gen_gap_family(q)
    assert assert_same_merge(fam.instance) == q
    for seed in range(1, 4):
        rng = Lcg(seed)
        perm = PermutationPair(_lcg_shuffle(fam.instance.n, rng),
                               _lcg_shuffle(fam.instance.m, rng))
        assert_same_merge(permute_instance(fam.instance, perm))


@pytest.mark.parametrize("q", [1, 2])
def test_merge_matches_reference_with_target_denominator(q):
    # Profits in sevenths and a target in thirds: the recursion's scale is
    # 21, not the profits' 7, and these targets reach the split path.
    inst = gen_gap_family(q).instance
    profits = tuple(p / 7 for p in inst.profits)
    splits = 0
    for k in range(1, int(3 * sum(profits)) + 1):
        if k % 3:
            splits += assert_same_merge(
                Instance(inst.row_masks, inst.costs, profits, F(k, 3))) or 0
    assert splits > 0


def test_two_dominators_named_as_the_pair_loop_names_them():
    # Vertex 0 is dominated by 3 and 5, vertex 1 by 2 and 4; an ascending
    # scan over (dominator, vertex) meets vertex 1's second dominator first.
    inst = make_instance([[1, 0, 0, 1, 0, 0], [1, 0, 0, 0, 0, 1],
                          [0, 1, 1, 0, 0, 0], [0, 1, 0, 0, 1, 0]],
                         [1] * 6, [1] * 4, 0)
    dual = DualSolution(tuple(DeltaRational(1) for _ in range(4)), DeltaRational(0), ())
    covers = (inst, Cover.of([2, 3, 4, 5]), Cover.of([0, 1]))
    messages = []
    for build, positives in ((build_merger_graph, (0b1111, 0b1111)),
                             (reference_build_merger_graph, (dual, dual))):
        with pytest.raises(InternalInvariantError) as raised:
            build(*covers, *positives)
        messages.append(str(raised.value))
    assert messages == ["vertex 1 has two dominators: 2 and 4"] * 2


def _merge_inputs():
    """Gap q = 1..4, canonical and under Lcg shuffles 1..3, then corpus
    seeds 0..599."""
    for q in (1, 2, 3, 4):
        base = gen_gap_family(q).instance
        yield base
        for seed in range(1, 4):
            rng = Lcg(seed)
            yield permute_instance(base, PermutationPair(
                _lcg_shuffle(base.n, rng), _lcg_shuffle(base.m, rng)))
    for seed in range(600):
        yield corpus_instance(seed)


def test_int_benefits_equal_the_fraction_table_and_the_subtree_walk(monkeypatch):
    # Each merge's int benefits are absolute_benefits times L, and every
    # benefit(j, D) it asks for equals the walk over the whole subtree.
    contexts, asked = [], []
    build, benefit = MergeContext.__init__, MergeContext.benefit

    def recording_build(self, graph, instance, target, union):
        build(self, graph, instance, target, union)
        contexts.append((self, union))

    def checked_benefit(self, j, D):
        value = benefit(self, j, D)
        assert value == relative_benefit(self.graph, j, D, self.benefits), (j, D)
        asked.append(j)
        return value

    monkeypatch.setattr(MergeContext, "__init__", recording_build)
    monkeypatch.setattr(MergeContext, "benefit", checked_benefit)
    for instance in _merge_inputs():
        work, _ = to_greedy_form(instance)
        thr = find_threshold(work)
        if thr.exact_hit is not None:
            continue
        low, high = thr.merge_pair(work.target)
        graph = build_merger_graph(work, low.pruned, high.pruned,
                                   low.positive, high.positive)
        merge(graph, low.pruned, high.pruned, work)
    assert len(contexts) > 100 and len(asked) > 1000
    for ctx, union in contexts:
        table = absolute_benefits(ctx.instance, Cover(bit_indices(union)))
        assert ctx.benefits == [table.get(j, 0) * ctx.scale
                                for j in range(ctx.instance.m)]
        for v in ctx.graph.vertices:
            assert ctx.subtree_benefits[v] == sum(
                ctx.benefits[u] for u in bit_indices(ctx.graph.subtrees[v]))
