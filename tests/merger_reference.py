"""Direct reference implementations of the merge layer.

`reference_build_merger_graph` tests every ordered pair of vertices for
domination, O(V^2) pairs, through the elements of positive dual it reads
off the decoded duals.  `FractionMergeContext` and `reference_merge`
run the combining recursion with every coverage summed as Fractions, bit
by bit, through `model.covered_profit`, on covers held as frozensets; sets
become masks only in the `MergerGraph` they build, and `members` reads a
subtree mask back.  `absolute_benefits` (the Fraction benefit table) and
`relative_benefit` (a walk over every member of the subtree) are the
definitions the int benefits of `merger.MergeContext` are checked
against, and `reference_cost_bound` is the cost-bound audit in Fractions.
The tests referee the mask-based graph build and the scaled-int
recursion against them; nothing in `src` imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from kolen_reference import reference_positive_mask
from pcover.errors import InputError, InternalInvariantError
from pcover.merger import CallRecord, MergerGraph, MergeTrace, SplitRecord
from pcover.model import Cover, bit_indices, cover_cost, covered_profit


def members(mask):
    return frozenset(bit_indices(mask))


def mask_of(indices):
    return sum(1 << j for j in indices)


def absolute_benefits(instance, union_cover):
    """Per-set profit of elements only that set covers within the union."""
    table = {j: Fraction(0) for j in union_cover.sets}
    union_mask = mask_of(union_cover.sets)
    for profit, mask in zip(instance.profits, instance.row_masks):
        owners = mask & union_mask
        if owners and not owners & (owners - 1):  # exactly one owner
            table[owners.bit_length() - 1] += profit
    return table


def relative_benefit(graph, j, D, benefits):
    """Signed coverage change of flipping the subtree at j against the
    cover mask D, in the units of `benefits` (indexed by set), summed over
    every member of the subtree."""
    sub = graph.subtrees[j]
    return (sum(map(benefits.__getitem__, bit_indices(sub & ~D)))
            - sum(map(benefits.__getitem__, bit_indices(sub & D))))


def reference_build_merger_graph(instance, pruned_minus, pruned, dual_minus, dual):
    """The graph from the decoded duals: each run's elements of positive
    dual are read off its DeltaRationals, not taken from the kernel."""
    minus_set = pruned_minus.as_set()
    plus_set = pruned.as_set()
    minus_only = frozenset(minus_set - plus_set)
    plus_only = frozenset(plus_set - minus_set)
    vertices = tuple(sorted(minus_only | plus_only))
    pos_minus = reference_positive_mask(dual_minus.y)
    pos_plus = reference_positive_mask(dual.y)

    def dominates(pos_mask, j1, j2):
        return j1 > j2 and bool(instance.col_masks[j1] & instance.col_masks[j2] & pos_mask)

    edges = []
    parent = {}
    for j1 in vertices:
        for j2 in vertices:
            if j1 in minus_only and j2 in plus_only:
                hit = dominates(pos_minus, j1, j2)
            elif j1 in plus_only and j2 in minus_only:
                hit = dominates(pos_plus, j1, j2)
            else:
                continue
            if hit:
                if j2 in parent:
                    raise InternalInvariantError(
                        f"vertex {j2} has two dominators: {parent[j2]} and {j1}")
                parent[j2] = j1
                edges.append((j1, j2))

    children = {v: tuple(sorted(b for a, b in edges if a == v)) for v in vertices}
    roots = tuple(v for v in vertices if v not in parent)
    subtrees = {}

    def collect(v):
        sub = frozenset({v}).union(*(collect(c) for c in children[v]))
        subtrees[v] = sub
        return sub

    for r in roots:
        collect(r)
    if len(subtrees) != len(vertices):
        raise InternalInvariantError("merger graph contains a cycle")
    return MergerGraph(vertices=vertices, minus_only=mask_of(minus_only),
                       plus_only=mask_of(plus_only), edges=tuple(sorted(edges)),
                       parent=parent, children=children, roots=roots,
                       subtrees={v: mask_of(sub) for v, sub in subtrees.items()})


class FractionMergeContext:
    """The combining recursion on Fractions: coverage by `covered_profit`."""

    def __init__(self, graph, instance, target, benefits):
        self.graph = graph
        self.instance = instance
        self.target = target
        self.benefits = benefits
        self.trace = MergeTrace(target=target)

    def coverage(self, D) -> Fraction:
        return covered_profit(self.instance, Cover.of(D))

    def benefit(self, j, D) -> Fraction:
        total = Fraction(0)
        for v in members(self.graph.subtrees[j]):
            total += -self.benefits[v] if v in D else self.benefits[v]
        return total

    def flip(self, D, j):
        after = D ^ members(self.graph.subtrees[j])
        gain = self.coverage(after) - self.coverage(D)
        expected = self.benefit(j, D)
        if gain != expected:
            raise InternalInvariantError(
                f"coverage change {gain} of subtree {j} disagrees with "
                f"relative benefit {expected}")
        return after

    def check_alternating(self, D):
        split_so_far = set(self.trace.split_vertices)
        for a, b in self.graph.edges:
            in_a, in_b = a in D, b in D
            if not in_a and not in_b:
                raise InternalInvariantError(f"edge ({a}, {b}) has no endpoint in D")
            if in_a and in_b and not ({a, b} & split_so_far):
                raise InternalInvariantError(
                    f"edge ({a}, {b}) fully inside D without a prior split")

    def pick_cheaper(self, first, second):
        ca = cover_cost(self.instance, Cover.of(first))
        cb = cover_cost(self.instance, Cover.of(second))
        if ca != cb:
            return first if ca < cb else second
        return first if tuple(sorted(first)) <= tuple(sorted(second)) else second

    def increase(self, j, D):
        P = self.target
        pD = self.coverage(D)
        b = self.benefit(j, D)
        self.trace.calls.append(CallRecord("increase", j, pD, b))
        if not (pD <= P < pD + b):
            raise InternalInvariantError(
                f"increase({j}) precondition broken: p(D)={pD}, benefit={b}, P={P}")
        self.check_alternating(D)
        with_j = D | {j}
        if self.coverage(with_j) >= P:
            return with_j
        kids = self.graph.children[j]
        for c in kids:
            if pD + self.benefit(c, D) > P:
                return self.increase(c, D)
        entry_offset = abs(pD - P)
        current = with_j
        remaining = list(kids)
        processed = 0
        last = None
        while self.coverage(current) <= P:
            if not remaining:
                raise InternalInvariantError(f"split at {j} exhausted its children")
            best = max(remaining, key=lambda c: (self.benefit(c, current), -c))
            current = self.flip(current, best)
            remaining.remove(best)
            processed += 1
            last = best
        feasible = current
        infeasible = feasible ^ members(self.graph.subtrees[last])
        self.record_split(j, processed, entry_offset, infeasible, feasible)
        if P - self.coverage(infeasible) < self.coverage(feasible) - P:
            other = self.increase(last, infeasible)
        else:
            other = self.decrease(last, feasible)
        return self.pick_cheaper(feasible, other)

    def decrease(self, j, D):
        P = self.target
        pD = self.coverage(D)
        b = self.benefit(j, D)
        self.trace.calls.append(CallRecord("decrease", j, pD, b))
        if not (pD >= P > pD + b):
            raise InternalInvariantError(
                f"decrease({j}) precondition broken: p(D)={pD}, benefit={b}, P={P}")
        self.check_alternating(D)
        flipped_plus_j = (D ^ members(self.graph.subtrees[j])) | {j}
        if self.coverage(flipped_plus_j) >= P:
            return flipped_plus_j
        kids = self.graph.children[j]
        for c in kids:
            if pD + self.benefit(c, D) < P:
                return self.decrease(c, D)
        entry_offset = abs(pD - P)
        current = D | {j}
        remaining = list(kids)
        processed = 0
        last = None
        while self.coverage(current) >= P:
            if not remaining:
                raise InternalInvariantError(f"split at {j} exhausted its children")
            best = min(remaining, key=lambda c: (self.benefit(c, current), c))
            current = self.flip(current, best)
            remaining.remove(best)
            processed += 1
            last = best
        infeasible = current
        feasible = infeasible ^ members(self.graph.subtrees[last])
        self.record_split(j, processed, entry_offset, infeasible, feasible)
        if 0 < self.coverage(feasible) - P < P - self.coverage(infeasible):
            other = self.increase(last, infeasible)
        else:
            other = self.decrease(last, feasible)
        return self.pick_cheaper(feasible, other)

    def record_split(self, j, processed, entry_offset, infeasible, feasible):
        self.trace.split_vertices.append(j)
        off_in = abs(self.coverage(infeasible) - self.target)
        off_fe = abs(self.coverage(feasible) - self.target)
        self.trace.splits.append(SplitRecord(j, processed, entry_offset, off_in, off_fe))
        if processed >= 2 and entry_offset < 3 * min(off_in, off_fe):
            raise InternalInvariantError(
                f"multi-child split at {j} shrank the offset only from "
                f"{entry_offset} to {min(off_in, off_fe)}")


def reference_merge(graph, pruned_minus, pruned, instance):
    """`merger.merge` with the recursion in `FractionMergeContext`."""
    P = instance.target
    union = Cover.of(pruned_minus.as_set() | pruned.as_set())
    run = FractionMergeContext(graph, instance, P, absolute_benefits(instance, union))
    trace = run.trace
    if covered_profit(instance, pruned_minus) >= P:
        trace.immediate = "lower cover already feasible"
        trace.final = pruned_minus
        return pruned_minus, trace
    if covered_profit(instance, pruned) < P:
        raise InputError(f"upper cover misses the target: "
                         f"{covered_profit(instance, pruned)} < {P}")
    D = frozenset(pruned_minus.as_set())
    for r in sorted(graph.roots, key=lambda r: min(members(graph.subtrees[r]))):
        flipped = run.flip(D, r)
        if run.coverage(flipped) <= P:
            D = flipped
            trace.root_flips += 1
        else:
            trace.final = Cover.of(run.increase(r, D))
            return trace.final, trace
    if D != frozenset(pruned.as_set()) or run.coverage(D) < P:
        raise InternalInvariantError("all roots flipped without reaching the upper cover")
    trace.immediate = "all roots flipped (exact boundary)"
    trace.final = Cover.of(D)
    return trace.final, trace


def reference_cost_bound(cost, base, c_max):
    """`merger.audit_cost_bound`'s per_k and tightest k, in Fractions."""
    per_k = []
    for k in range(1, 11):
        bound = (1 + Fraction(1, 3 ** (k - 1))) * base + k * c_max
        per_k.append((k, bound, cost <= bound))
    holding = [(bound, k) for k, bound, holds in per_k if holds]
    return tuple(per_k), min(holding)[1] if holding else None
