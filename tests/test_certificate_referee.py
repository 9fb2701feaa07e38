"""The LP certificate predicates and the prize-collecting value, refereed
against the plain-sum versions in lp_reference and kolen_reference."""

from fractions import Fraction as F

from kolen_reference import reference_prize_collecting_value
from lp_reference import (reference_dual_value, reference_is_dual_feasible,
                          reference_is_primal_feasible,
                          reference_mixed_cover_point)
from pcover.arith import DeltaRational
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.kolen import kolen, prize_collecting_value
from pcover.lp import (dual_value, is_dual_feasible, is_primal_feasible,
                       mixed_cover_point)
from pcover.model import Instance, bit_indices
from pcover.pipeline import CORPUS_LAMBDAS, solve_partial_tbc

NUDGE = F(1, 10 ** 6)


def solve_point(instance):
    """(work, covers, y, lambda*) of a solve: the greedy-form instance, the
    covers its LP certificate mixes and the threshold dual."""
    report = solve_partial_tbc(instance)
    work, thr = report.work, report.threshold
    if thr.exact_hit is not None:
        covers = (thr.exact_hit.pruned,)
    else:
        covers = tuple(run.pruned for run in thr.merge_pair(work.target))
    y = [yi.value for yi in (thr.exact_hit or thr.at_star).dual.y]
    return work, covers, y, thr.lambda_star


def nudged_primal(instance, x, r):
    """(x, r) pairs moved to just inside or just across one constraint."""
    yield x, r
    for i, mask in enumerate(instance.row_masks):
        short = 1 - sum((x[j] for j in bit_indices(mask)), r[i]) - NUDGE
        if r[i] + short >= 0:  # row i exactly 1/10**6 short of 1
            yield x, r[:i] + (r[i] + short,) + r[i + 1:]
            yield x, r[:i] + (r[i] + short + NUDGE,) + r[i + 1:]
            break
    budget = sum(instance.profits, F(0)) - instance.target
    spent = sum((p * v for p, v in zip(instance.profits, r)), F(0))
    i = max(range(instance.n), key=instance.profits.__getitem__, default=None)
    if i is not None and instance.profits[i] > 0:
        for extra in (budget - spent, budget - spent + NUDGE):
            moved = r[i] + extra / instance.profits[i]
            yield x, r[:i] + (moved,) + r[i + 1:]


def nudged_dual(instance, y, lam):
    """y vectors with one entry at its cap, or 1/10**6 above it."""
    y = list(y)
    yield y
    for i in range(instance.n):
        cap = lam * instance.profits[i]
        if y[i] < cap:
            yield y[:i] + [cap] + y[i + 1:]
            yield y[:i] + [cap + NUDGE] + y[i + 1:]
            break


def assert_same_certificate(instance, covers, y, lam, outcomes):
    point = mixed_cover_point(instance, *covers)
    assert point == reference_mixed_cover_point(instance, *covers)
    for x, r in nudged_primal(instance, point.x, point.r):
        ok = is_primal_feasible(instance, x, r)
        assert ok == reference_is_primal_feasible(instance, x, r)
        outcomes["primal"].add(ok)
    for yv in nudged_dual(instance, y, lam):
        ok = is_dual_feasible(instance, yv, lam)
        assert ok == reference_is_dual_feasible(instance, yv, lam)
        outcomes["dual"].add(ok)
        assert dual_value(instance, yv, lam) == reference_dual_value(instance, yv, lam)


def assert_both_outcomes(instances):
    outcomes = {"primal": set(), "dual": set()}
    for instance in instances:
        assert_same_certificate(*solve_point(instance), outcomes)
    assert outcomes == {"primal": {True, False}, "dual": {True, False}}


def sevenths(instance, rng):
    """The same matrix with costs and profits in sevenths."""
    costs = tuple(F(1 + rng.below(40), 7) for _ in range(instance.m))
    profits = tuple(F(rng.below(30), 7) for _ in range(instance.n))
    coverable = sum((p for p, mask in zip(profits, instance.row_masks) if mask), F(0))
    return Instance(instance.row_masks, costs, profits, coverable * F(3, 5))


def test_lp_predicates_match_reference_on_corpus():
    assert_both_outcomes(corpus_instance(seed) for seed in range(200))


def test_lp_predicates_match_reference_on_gap_family():
    assert_both_outcomes(gen_gap_family(q).instance for q in (1, 2))


def test_lp_predicates_match_reference_in_sevenths():
    rng = Lcg(7)
    assert_both_outcomes(sevenths(corpus_instance(seed), rng) for seed in range(60))


def test_prize_collecting_value_matches_reference_on_corpus():
    for seed in range(200):
        work = solve_partial_tbc(corpus_instance(seed)).work
        for lam in CORPUS_LAMBDAS:
            for side in (-1, 0, 1):
                if side < 0 and lam == 0:
                    continue  # a negative multiplier is rejected
                at = DeltaRational(lam, side)
                run = kolen(work, at)
                assert prize_collecting_value(work, at, run) == \
                    reference_prize_collecting_value(work, at, run)
