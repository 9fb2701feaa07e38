"""Combining the two bracketing covers through the merger graph.

The two pruned covers produced just below and just above the threshold
multiplier are structurally related: directed domination edges between
their symmetric difference form a forest of out-branchings.  An edge
joins two sets through an element of positive dual, and each run hands
its elements of positive dual over as the int mask
`KolenResult.positive`, so the graph decodes no dual.  Walking that
forest, `merge` flips whole subtrees while the working cover stays short
of the target, then hands over to the mutually recursive
`MergeContext.increase` / `decrease` pair, which either finish cheaply or
split a subtree, paying one extra set but shrinking the coverage offset at
least threefold.  `MergeContext` is the one way into that recursion.
A set of set indices (a cover, a side of the graph, a subtree) is one int
mask, bit j for set j: a flip is an XOR, and a `Cover` is built only for
the result.

Every structural fact the analysis relies on is asserted at runtime:
graph shape, alternating edge occupancy, entry preconditions, the
coverage-change identity at each subtree flip, and the factor-3 offset
decay at multi-child splits.  The recursion compares exact ints, the
profits, target and benefits scaled by L (the lcm of the profit
denominators and the target's denominator) and the costs scaled by L_c
(`Instance.scaled_costs`); its trace and messages are Fractions in
original units.  The benefits come from `Instance.scaled_profits()` in one
pass over the row masks, with one benefit total per subtree, so a
subtree's relative benefit walks only the members the cover holds; the
flip identity compares it with the coverage change.  Coverage is one OR
of the cover's column masks summed by `model.ScaledCoverage` (one popcount
per distinct profit), kept once per distinct cover mask.  `merge` checks
its entry and its result with that same coverage against the scaled
target, which decides exactly the predicates on Fractions; the final
cost bound is re-checked by `audit_merge_bound`, and the solve's
`feasible` audit re-checks the cover on the input's Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_

from .errors import InputError, InternalInvariantError
from .model import Cover, Instance, ScaledCoverage, bit_indices, cover_cost


@dataclass(frozen=True)
class MergerGraph:
    """Forest of out-branchings over the symmetric difference of two covers.

    Sets of set indices are int masks, bit j for set j: `minus_only` and
    `plus_only` tag each vertex's side, and `subtrees[j]` holds j and its
    descendants.  Every edge joins opposite sides and points from the
    larger to the smaller set index.
    """

    vertices: tuple[int, ...]
    minus_only: int
    plus_only: int
    edges: tuple[tuple[int, int], ...]
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    roots: tuple[int, ...]
    subtrees: dict[int, int]


def build_merger_graph(instance: Instance,
                       pruned_minus: Cover, pruned: Cover,
                       positive_minus: int, positive: int) -> MergerGraph:
    """Construct and validate the merger graph of the two pruned covers.

    `positive_minus` and `positive` are the masks of the elements of
    positive dual in the runs that produced `pruned_minus` and `pruned`
    (`KolenResult.positive`).  Set j1 dominates j2 when j1 > j2, they lie
    on opposite sides, and they share an element of positive dual in the
    run of j1's side.  Each vertex's dominators are read off one OR of the
    row masks of its positive-dual elements, found in the vertex's
    `Instance.set_elements()`, and only the lowest two dominators are
    extracted, so the build takes O(nnz) mask operations.
    Every edge decreases, so one ascending scan builds each subtree mask
    from its children's, which come first.

    Fails loudly (InternalInvariantError) on in-degree two or an edge that
    does not decrease; either would contradict the forest guarantee and
    signals an upstream bug, not bad input.
    """
    minus_mask, plus_mask = pruned_minus.mask(), pruned.mask()
    minus_only = minus_mask & ~plus_mask
    plus_only = plus_mask & ~minus_mask
    vertices = bit_indices(minus_only | plus_only)

    edges = []
    parent: dict[int, int] = {}
    conflicts = []
    members, row_masks = instance.set_elements(), instance.row_masks
    for j2 in vertices:
        if plus_only >> j2 & 1:
            side, pos = minus_only, positive_minus
        else:
            side, pos = plus_only, positive
        sets = 0
        for i in members[j2]:
            if pos >> i & 1:
                sets |= row_masks[i]
        dominators = sets & side & -1 << (j2 + 1)  # above j2
        if dominators:
            low = dominators & -dominators
            first, rest = low.bit_length() - 1, dominators ^ low
            if rest:
                conflicts.append(((rest & -rest).bit_length() - 1, j2, first))
            else:
                parent[j2] = first
                edges.append((first, j2))
    if conflicts:
        # The conflict an ascending scan over (dominator, vertex) meets first.
        second, j2, first = min(conflicts)
        raise InternalInvariantError(
            f"vertex {j2} has two dominators: {first} and {second}")

    children: dict[int, list[int]] = {v: [] for v in vertices}
    for j1, j2 in edges:  # ascending in j2, so each child list is sorted
        if j1 <= j2:
            raise InternalInvariantError(f"edge ({j1}, {j2}) does not decrease")
        children[j1].append(j2)

    subtrees: dict[int, int] = {}
    for v in vertices:  # children have smaller indices: already built
        subtrees[v] = reduce(or_, map(subtrees.__getitem__, children[v]), 1 << v)

    return MergerGraph(vertices=vertices, minus_only=minus_only,
                       plus_only=plus_only, edges=tuple(sorted(edges)),
                       parent=parent,
                       children={v: tuple(c) for v, c in children.items()},
                       roots=tuple(v for v in vertices if v not in parent),
                       subtrees=subtrees)


@dataclass(frozen=True)
class SplitRecord:
    root: int
    children_processed: int
    offset_before: Fraction
    offset_infeasible: Fraction
    offset_feasible: Fraction


@dataclass(frozen=True)
class CallRecord:
    kind: str
    vertex: int
    coverage: Fraction
    benefit: Fraction


@dataclass
class MergeTrace:
    """Everything needed to audit a merge run after the fact."""

    target: Fraction
    calls: list[CallRecord] = field(default_factory=list)
    splits: list[SplitRecord] = field(default_factory=list)
    split_vertices: list[int] = field(default_factory=list)
    root_flips: int = 0
    immediate: str = ""
    final: Cover | None = None


class MergeContext:
    """Shared state for one combining run: graph, instance, target, benefits.

    The recursion runs on ints: profits, the target and the benefits are
    scaled by L, the lcm of the profit denominators and the target's
    denominator, and costs by L_c, the lcm of the cost denominators, so
    int equality and order are exactly those of the Fractions.  Every
    value that leaves the context (trace records and error messages) is a
    Fraction in original units.

    `union` is the mask of the sets of both covers.  A set's benefit is
    the scaled profit of the elements that it alone covers within the
    union, read off the row masks in one pass; each subtree keeps the
    total of its members' benefits, built children first, so the
    relative benefit of a subtree against a cover walks only the members
    the cover holds.

    `increase` and `decrease` mutate nothing outside the trace; covers are
    passed and returned as int masks of set indices.
    """

    def __init__(self, graph: MergerGraph, instance: Instance, target: Fraction,
                 union: int):
        self.graph = graph
        self.instance = instance
        l_p, profits = instance.scaled_profits()
        self.scale = lcm(l_p, target.denominator)
        factor = self.scale // l_p
        if factor != 1:
            profits = [p * factor for p in profits]
        self.scaled_coverage = ScaledCoverage(instance, profits)
        self.costs = instance.scaled_costs()[1]
        self.target = target.numerator * (self.scale // target.denominator)
        self.benefits = benefits = [0] * instance.m
        for p, row in zip(profits, instance.row_masks):
            owners = row & union
            if owners and not owners & (owners - 1):  # exactly one owner
                benefits[owners.bit_length() - 1] += p
        self.subtree_benefits = totals = {}
        for v in graph.vertices:  # children have smaller indices: already built
            totals[v] = benefits[v] + sum(map(totals.__getitem__, graph.children[v]))
        self.trace = MergeTrace(target=target)
        self._coverage: dict[int, int] = {}

    def unscaled(self, value: int) -> Fraction:
        return Fraction(value, self.scale)

    def coverage(self, D: int) -> int:
        """Scaled profit covered by D, summed once per distinct cover."""
        if D not in self._coverage:
            elements = reduce(or_, map(self.instance.col_masks.__getitem__,
                                       bit_indices(D)), 0)
            self._coverage[D] = self.scaled_coverage(elements)
        return self._coverage[D]

    def cost(self, D: int) -> int:
        """Cost of D scaled by L_c (`Instance.scaled_costs`), for comparison."""
        return sum(map(self.costs.__getitem__, bit_indices(D)))

    def benefit(self, j: int, D: int) -> int:
        """Signed coverage change of flipping the subtree at j against D:
        its total benefit, less twice that of the members D holds."""
        inside = self.graph.subtrees[j] & D
        total = self.subtree_benefits[j]
        if not inside:
            return total
        return total - 2 * sum(map(self.benefits.__getitem__, bit_indices(inside)))

    def flip(self, D: int, j: int) -> int:
        """Symmetric difference with the subtree at j, identity-checked."""
        after = D ^ self.graph.subtrees[j]
        gain = self.coverage(after) - self.coverage(D)
        expected = self.benefit(j, D)
        if gain != expected:
            raise InternalInvariantError(
                f"coverage change {self.unscaled(gain)} of subtree {j} disagrees "
                f"with relative benefit {self.unscaled(expected)}")
        return after

    def check_alternating(self, D: int) -> None:
        inside = format(D, f"0{self.instance.m}b")[::-1]  # inside[j]: bit j of D
        split = reduce(or_, (1 << v for v in self.trace.split_vertices), 0)
        for a, b in self.graph.edges:
            in_a, in_b = inside[a] == "1", inside[b] == "1"
            if not in_a and not in_b:
                raise InternalInvariantError(f"edge ({a}, {b}) has no endpoint in D")
            if in_a and in_b and not (split >> a | split >> b) & 1:
                raise InternalInvariantError(
                    f"edge ({a}, {b}) fully inside D without a prior split")

    def pick_cheaper(self, first: int, second: int) -> int:
        # Costs add up, so the sets both covers hold cancel out.
        common = first & second
        ca, cb = self.cost(first ^ common), self.cost(second ^ common)
        if ca != cb:
            return first if ca < cb else second
        return first if bit_indices(first) <= bit_indices(second) else second

    def _enter(self, kind: str, j: int, D: int) -> tuple[int, int]:
        """Record the call and return (p(D), benefit of j against D)."""
        pD = self.coverage(D)
        b = self.benefit(j, D)
        self.trace.calls.append(
            CallRecord(kind, j, self.unscaled(pD), self.unscaled(b)))
        return pD, b

    def _precondition_broken(self, kind: str, j: int, pD: int, b: int):
        return InternalInvariantError(
            f"{kind}({j}) precondition broken: p(D)={self.unscaled(pD)}, "
            f"benefit={self.unscaled(b)}, P={self.unscaled(self.target)}")

    def increase(self, j: int, D: int) -> int:
        P = self.target
        pD, b = self._enter("increase", j, D)
        if not (pD <= P < pD + b):
            raise self._precondition_broken("increase", j, pD, b)
        self.check_alternating(D)

        with_j = D | 1 << j
        if self.coverage(with_j) >= P:
            return with_j

        kids = self.graph.children[j]
        for c in kids:
            if pD + self.benefit(c, D) > P:
                return self.increase(c, D)

        # Split: add j, then flip children subtrees by descending benefit
        # until coverage crosses the target.
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
        infeasible = feasible ^ self.graph.subtrees[last]
        self._record_split("increase", j, processed, entry_offset, infeasible, feasible)
        if P - self.coverage(infeasible) < self.coverage(feasible) - P:
            other = self.increase(last, infeasible)
        else:
            other = self.decrease(last, feasible)
        return self.pick_cheaper(feasible, other)

    def decrease(self, j: int, D: int) -> int:
        P = self.target
        pD, b = self._enter("decrease", j, D)
        if not (pD >= P > pD + b):
            raise self._precondition_broken("decrease", j, pD, b)
        self.check_alternating(D)

        flipped_plus_j = (D ^ self.graph.subtrees[j]) | 1 << j
        if self.coverage(flipped_plus_j) >= P:
            return flipped_plus_j

        kids = self.graph.children[j]
        for c in kids:
            if pD + self.benefit(c, D) < P:
                return self.decrease(c, D)

        entry_offset = abs(pD - P)
        current = D | 1 << j
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
        feasible = infeasible ^ self.graph.subtrees[last]
        self._record_split("decrease", j, processed, entry_offset, infeasible, feasible)
        # A feasible side that covers exactly P admits only decrease: the
        # precondition of increase(last, infeasible) needs P < p(feasible).
        if 0 < self.coverage(feasible) - P < P - self.coverage(infeasible):
            other = self.increase(last, infeasible)
        else:
            other = self.decrease(last, feasible)
        return self.pick_cheaper(feasible, other)

    def _record_split(self, kind: str, j: int, processed: int,
                      entry_offset: int, infeasible: int, feasible: int) -> None:
        self.trace.split_vertices.append(j)
        off_in = abs(self.coverage(infeasible) - self.target)
        off_fe = abs(self.coverage(feasible) - self.target)
        record = SplitRecord(j, processed, self.unscaled(entry_offset),
                             self.unscaled(off_in), self.unscaled(off_fe))
        self.trace.splits.append(record)
        if processed >= 2 and entry_offset < 3 * min(off_in, off_fe):
            raise InternalInvariantError(
                f"multi-child split at {j} shrank the offset only from "
                f"{self.unscaled(entry_offset)} to {self.unscaled(min(off_in, off_fe))}")


def merge(graph: MergerGraph, pruned_minus: Cover, pruned: Cover,
          instance: Instance) -> tuple[Cover, MergeTrace]:
    """Produce a feasible cover inside the union of the two pruned covers.

    Precondition: covered(pruned_minus) < P <= covered(pruned).  If the
    lower cover already reaches the target it is returned unchanged.
    """
    P = instance.target
    low, high = pruned_minus.mask(), pruned.mask()
    union = low | high
    run = MergeContext(graph, instance, P, union)
    trace = run.trace

    if run.coverage(low) >= run.target:
        trace.immediate = "lower cover already feasible"
        trace.final = pruned_minus
        return pruned_minus, trace
    if run.coverage(high) < run.target:
        raise InputError(f"upper cover misses the target: "
                         f"{run.unscaled(run.coverage(high))} < {P}")

    D = low
    # Roots in the order of their subtrees' lowest bits (smallest members).
    for r in sorted(graph.roots, key=lambda r: graph.subtrees[r] & -graph.subtrees[r]):
        flipped = run.flip(D, r)
        if run.coverage(flipped) > run.target:
            D = run.increase(r, D)
            break
        D = flipped
        trace.root_flips += 1
    else:
        if D != high:
            raise InternalInvariantError(
                "all roots flipped but D differs from the upper cover")
        trace.immediate = "all roots flipped (exact boundary)"

    if run.coverage(D) < run.target:
        raise InternalInvariantError("merge returned an infeasible cover")
    if D & ~union:
        raise InternalInvariantError("merge returned sets outside the union")
    trace.final = Cover(bit_indices(D))
    return trace.final, trace


@dataclass(frozen=True)
class MergeBoundAudit:
    ok: bool
    per_k: tuple[tuple[int, Fraction, bool], ...]  # (k, bound, holds)
    tightest_k: int | None
    failed_clause: str | None = None  # "k = K" for the first K that breaks
    detail: str = ""


def audit_cost_bound(cost: Fraction, base: Fraction,
                     c_max: Fraction) -> MergeBoundAudit:
    """Check cost <= (1 + 3**(1-k)) * base + k * c_max for k = 1..10.

    The paper's bound for partial TB cover, with base the LP value (or
    rho times it on a rho-separable matrix).  Exact: the three values go
    over their common denominator d as ints, and with t = 3**(k-1) the
    bound times t d is the int (t + 1) base + t k c_max, so each k is
    decided, and the bounds are ordered, by cross-multiplying ints; each
    bound is built as a Fraction once, for `per_k`.  Reports the k with the
    smallest right-hand side among those that hold.
    """
    d = lcm(cost.denominator, base.denominator, c_max.denominator)
    c, b, c_top = (v.numerator * (d // v.denominator) for v in (cost, base, c_max))
    top = 3 ** 9
    per_k = []
    failed = None
    tightest = None
    tightest_bound = None  # the bound times 3**9 d
    for k in range(1, 11):
        t = 3 ** (k - 1)
        scaled = (t + 1) * b + t * k * c_top  # the bound times t d
        bound = Fraction(scaled, t * d)
        holds = c * t <= scaled
        per_k.append((k, bound, holds))
        if not holds and failed is None:
            failed = (k, bound)
        if holds and (tightest_bound is None or scaled * (top // t) < tightest_bound):
            tightest_bound = scaled * (top // t)
            tightest = k
    if failed is None:
        return MergeBoundAudit(True, tuple(per_k), tightest)
    return MergeBoundAudit(False, tuple(per_k), tightest, f"k = {failed[0]}",
                           f"cost {cost} above bound {failed[1]}")


def audit_merge_bound(trace: MergeTrace, instance: Instance,
                      dual_value_dl) -> MergeBoundAudit:
    """`audit_cost_bound` on the merged cover, with base DL."""
    if trace.final is None:
        raise InputError("trace has no final cover")
    return audit_cost_bound(cover_cost(instance, trace.final),
                            Fraction(dual_value_dl), instance.max_cost())
