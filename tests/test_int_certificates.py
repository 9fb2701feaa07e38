"""The certificate predicates decide their clauses on ints over common
denominators of their own (`arith.common_scale`).  These tests referee them
against the DeltaRational and plain-sum references, on points nudged to
just inside and just across every clause, with denominators that do not
divide each other: data in sevenths and the duals of exact simplex runs."""

import importlib
from dataclasses import replace
from fractions import Fraction as F

from kolen_reference import reference_audit_optimality, with_pruned
from lp_reference import (reference_is_dual_feasible,
                          reference_is_primal_feasible)
from pcover import model
from pcover.arith import DeltaRational
from pcover.generators import (Lcg, corpus_instance, gen_gap_family,
                               gen_random_tree_instance, reduce_multicut)
from pcover.kolen import DualSolution, KolenResult, audit_optimality, kolen
from pcover.lp import is_dual_feasible, is_primal_feasible, solve_lp
from pcover.model import Cover, Instance, bit_indices
from pcover.pipeline import (build_merger_graph, lemma_witness_check,
                             solve_partial_tbc, to_greedy_form)

kolen_module = importlib.import_module("pcover.kolen")  # pcover.kolen is the function

# A decimal nudge and one whose denominator shares no factor with the data.
NUDGES = (F(1, 10 ** 6), F(1, 7 ** 12 * 11))


def sevenths(instance, rng):
    """The same matrix with costs and profits in sevenths, one profit in
    ninths so that the profit denominators differ."""
    costs = tuple(F(1 + rng.below(40), 7) for _ in range(instance.m))
    profits = [F(rng.below(30), 7) for _ in range(instance.n)]
    if profits:
        profits[-1] = F(1 + rng.below(30), 9)
    coverable = sum((p for p, mask in zip(profits, instance.row_masks) if mask), F(0))
    return Instance(instance.row_masks, costs, tuple(profits), coverable * F(3, 5))


def sevenths_instances(count):
    rng = Lcg(77)
    for seed in range(count):
        work, _ = to_greedy_form(corpus_instance(seed))
        yield sevenths(work, rng)


def multicut_points():
    """(instance, x, r, y, lam) of the simplex optimum of multicut seeds 1..20."""
    for seed in range(1, 21):
        instance, _ = reduce_multicut(gen_random_tree_instance(seed))
        lp = solve_lp(instance)
        yield instance, lp.x, lp.r, lp.y, lp.lam


# --- the LP predicates -------------------------------------------------------


def nudged_primal(instance, x, r):
    """(x, r) at the point, and moved to or across each primal clause:
    arity, x >= 0, r >= 0, a covering row, and the budget row."""
    yield x, r
    yield x[:-1], r
    yield x, r + (F(0),)
    for nudge in NUDGES:
        if x:
            yield (-nudge,) + x[1:], r
        if r:
            yield x, r[:-1] + (-nudge,)
        for i, mask in enumerate(instance.row_masks):
            slack = sum((x[j] for j in bit_indices(mask)), r[i]) - 1
            if r[i] - slack >= 0:  # row i moved to exactly 1, then below it
                for shift in (slack, slack + nudge):
                    yield x, r[:i] + (r[i] - shift,) + r[i + 1:]
                break
        budget = sum(instance.profits, F(0)) - instance.target
        spent = sum((p * v for p, v in zip(instance.profits, r)), F(0))
        i = max(range(instance.n), key=instance.profits.__getitem__, default=None)
        if i is not None and instance.profits[i] > 0:
            for extra in (budget - spent, budget - spent + nudge):
                yield x, r[:i] + (r[i] + extra / instance.profits[i],) + r[i + 1:]


def nudged_dual(instance, y, lam):
    """(y, lam) at the point, and moved to or across each dual clause:
    lam >= 0, y >= 0, a set's cost row, and a cap y_i <= lam p_i."""
    y = list(y)
    yield y, lam
    for nudge in NUDGES:
        yield y, -nudge
        if y:
            yield [-nudge] + y[1:], lam
        for j, mask in enumerate(instance.col_masks):
            members = bit_indices(mask)
            if members:
                slack = instance.costs[j] - sum((y[i] for i in members), F(0))
                i = members[-1]
                for shift in (slack, slack + nudge):
                    yield y[:i] + [y[i] + shift] + y[i + 1:], lam
                break
        for i in range(instance.n):
            cap = lam * instance.profits[i]
            if y[i] < cap:
                for at in (cap, cap + nudge):
                    yield y[:i] + [at] + y[i + 1:], lam
                break


def assert_lp_predicates_match(points):
    outcomes = {"primal": set(), "dual": set()}
    for instance, x, r, y, lam in points:
        for xv, rv in nudged_primal(instance, x, r):
            ok = is_primal_feasible(instance, xv, rv)
            assert ok == reference_is_primal_feasible(instance, xv, rv)
            outcomes["primal"].add(ok)
        for yv, lv in nudged_dual(instance, y, lam):
            ok = is_dual_feasible(instance, yv, lv)
            assert ok == reference_is_dual_feasible(instance, yv, lv)
            outcomes["dual"].add(ok)
    assert outcomes == {"primal": {True, False}, "dual": {True, False}}


def test_lp_predicates_match_reference_on_simplex_duals():
    assert_lp_predicates_match(multicut_points())


def test_lp_predicates_match_reference_in_sevenths():
    points = []
    for instance in sevenths_instances(60):
        report = solve_partial_tbc(instance)
        work, thr = report.work, report.threshold
        lp = solve_lp(work)
        points.append((work, lp.x, lp.r, lp.y, lp.lam))
        y = [yi.value for yi in (thr.exact_hit or thr.at_star).dual.y]
        points.append((work, lp.x, lp.r, y, thr.lambda_star))
    assert_lp_predicates_match(points)


# --- the optimality audit ----------------------------------------------------


def redistributed(instance, run, y):
    """The run with duals y and residuals recomputed from them, so the
    residual match holds whatever y is."""
    residuals = []
    for c, mask in zip(instance.costs, instance.col_masks):
        fresh = DeltaRational(c)
        for i in bit_indices(mask):
            fresh = fresh - y[i]
        residuals.append(fresh)
    return KolenResult(run.pruned, run.tight,
                       DualSolution(tuple(y), run.dual.lam, tuple(residuals)),
                       run.positive, run.covered)


def nudged_runs(instance, run, rng):
    """The run, and runs tampered towards each clause of the audit: a dual
    or a residual off by a nudge, the pruned cover grown or shrunk, and
    dual moved between two elements (by a nudge, all of it, or its delta
    part), with residuals recomputed so that only the later clauses see it."""
    yield run
    y, residuals = list(run.dual.y), list(run.dual.residuals)
    n, m = instance.n, instance.m
    for nudge in NUDGES:
        i = rng.below(n)
        yield KolenResult(run.pruned, run.tight, DualSolution(
            tuple(y[:i] + [y[i] + nudge] + y[i + 1:]), run.dual.lam, run.dual.residuals),
            run.positive, run.covered)
        if m:
            j = rng.below(m)
            moved = residuals[:j] + [residuals[j] - DeltaRational(0, nudge)] + residuals[j + 1:]
            yield KolenResult(run.pruned, run.tight,
                              DualSolution(run.dual.y, run.dual.lam, tuple(moved)),
                              run.positive, run.covered)
    extra = sorted(run.tight.as_set() - run.pruned.as_set())
    if extra:
        yield with_pruned(instance, run, Cover.of(run.pruned.sets + (extra[0],)))
    if run.pruned.sets:
        yield with_pruned(instance, run, Cover(run.pruned.sets[:-1]))
    for _ in range(6):
        source, sink = rng.below(n), rng.below(n)
        for amount in (NUDGES[1], y[source], y[source] + NUDGES[0], DeltaRational(0, 1)):
            moved = list(y)
            moved[source] = moved[source] - amount
            moved[sink] = moved[sink] + amount
            yield redistributed(instance, run, moved)


def audit_kind(audit):
    """The clause letter, or for clause (d) its kind of failure."""
    if audit.ok:
        return "ok"
    if audit.failed_clause == "d":
        return "d: " + audit.detail.rsplit(" at ", 1)[0]
    return audit.failed_clause


def test_audit_matches_reference_across_every_clause():
    rng = Lcg(5)
    kinds = set()
    instances = list(sevenths_instances(120))
    instances += [to_greedy_form(gen_gap_family(q).instance)[0] for q in (1, 2)]
    for instance in instances:
        if not instance.n:
            continue
        thr = solve_partial_tbc(instance).threshold
        lams = [DeltaRational(thr.lambda_star, side) for side in (-1, 0, 1)
                if side >= 0 or thr.lambda_star > 0]
        lams.append(DeltaRational(thr.lambda_star + F(1, 3), F(5, 7)))
        for lam in lams:
            for run in nudged_runs(instance, kolen(instance, lam), rng):
                got = audit_optimality(instance, lam, run)
                assert got == reference_audit_optimality(instance, lam, run)
                kinds.add(audit_kind(got))
    assert kinds == {"ok", "a", "b", "c", "d: residual mismatch",
                     "d: negative residual", "d: negative dual",
                     "d: dual above cap"}


# --- the coverage witness ---------------------------------------------------


def reference_lemma_witness_check(instance, graph, below, above):
    """`pipeline.lemma_witness_check` with one Fraction product and one
    Fraction comparison per element."""
    lam = above.dual.lam.value
    edges = set(graph.edges)
    for i in range(instance.n):
        if above.dual.y[i].value >= lam * instance.profits[i]:
            continue
        sets_i = [j for j in range(instance.m) if instance.row_masks[i] >> j & 1]
        if not any(j1 == j2 or (j1, j2) in edges or (j2, j1) in edges
                   for j1 in sets_i if j1 in above.pruned.as_set()
                   for j2 in sets_i if j2 in below.pruned.as_set()):
            return False
    return True


def with_dual_value(run, i, value):
    y = list(run.dual.y)
    y[i] = DeltaRational(value, y[i].delta)
    return KolenResult(run.pruned, run.tight,
                       DualSolution(tuple(y), run.dual.lam, run.dual.residuals),
                       run.positive, run.covered)


def test_lemma_witness_matches_reference():
    outcomes = set()
    instances = [to_greedy_form(gen_gap_family(q).instance)[0] for q in (1, 2, 3)]
    instances += list(sevenths_instances(120))
    for instance in instances:
        thr = solve_partial_tbc(instance).threshold
        if thr.exact_hit is not None:
            continue
        low, high = thr.merge_pair(instance.target)
        graph = build_merger_graph(instance, low.pruned, high.pruned,
                                   low.positive, high.positive)
        lam = high.dual.lam.value
        under = [i for i, yi in enumerate(high.dual.y)
                 if yi.value < lam * instance.profits[i]]
        aboves = [high]
        for i in under[:1]:  # an under-capped dual moved to its cap, and just below
            cap = lam * instance.profits[i]
            aboves += [with_dual_value(high, i, cap),
                       with_dual_value(high, i, cap - NUDGES[1])]
        for g in (graph, replace(graph, edges=())):
            for above in aboves:
                ok = lemma_witness_check(instance, g, low, above)
                assert ok == reference_lemma_witness_check(instance, g, low, above)
                outcomes.add(ok)
    assert outcomes == {True, False}


# --- independence from the kernel -----------------------------------------


def test_checker_reads_no_kernel_scaling(monkeypatch):
    # The int predicates scale the instance's Fractions themselves: with the
    # kernel's scaling refused, each still decides its certificate.
    work, _ = to_greedy_form(gen_gap_family(2).instance)
    report = solve_partial_tbc(work)
    thr = report.threshold
    low, high = thr.merge_pair(work.target)
    graph = build_merger_graph(work, low.pruned, high.pruned, low.positive, high.positive)
    lp = solve_lp(corpus_instance(3))

    def refuse(*args, **kwargs):
        raise AssertionError("the checker read kernel scaling")

    monkeypatch.setattr(Instance, "scaled_profits", refuse)
    monkeypatch.setattr(Instance, "scaled_costs", refuse)
    monkeypatch.setattr(model, "_scaled", refuse)
    monkeypatch.setattr(kolen_module, "_packed_dual_update", refuse)
    for run in (low, high):
        assert audit_optimality(work, run.dual.lam, run).ok
    assert lemma_witness_check(work, graph, low, high)
    y = [yi.value for yi in thr.at_star.dual.y]
    assert is_dual_feasible(work, y, thr.lambda_star)
    instance = corpus_instance(3)
    assert is_primal_feasible(instance, lp.x, lp.r)
    assert is_dual_feasible(instance, lp.y, lp.lam)
