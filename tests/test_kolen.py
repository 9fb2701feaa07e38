"""Primal-dual prize-collecting solver and its optimality audit."""

from fractions import Fraction as F

import pytest

from pcover.arith import DeltaRational
from pcover.errors import InputError
from kolen_reference import reference_audit_optimality, reference_positive_mask
from pcover.kolen import (DualSolution, KolenResult, audit_optimality, kolen,
                          prize_collecting_value)
from pcover.model import Cover, covered_element_mask, covered_profit, make_instance
from pcover.pipeline import brute_force_prize_collecting, to_greedy_form
from pcover.generators import corpus_instance

TWO_BY_TWO = make_instance([[1, 1], [0, 1]], [2, 3], [1, 1], 0)


def test_dual_update_zero_multiplier():
    dual = kolen(TWO_BY_TWO, 0).dual
    assert all(y == DeltaRational(0) for y in dual.y)
    assert [r.value for r in dual.residuals] == [2, 3]


def test_dual_update_worked_example():
    dual = kolen(TWO_BY_TWO, 10).dual
    assert [y.value for y in dual.y] == [2, 1]
    assert all(r == 0 for r in dual.residuals)


def test_element_in_no_set_gets_penalty_cap():
    inst = make_instance([[0]], [1], [2], 0)
    dual = kolen(inst, 3).dual
    assert dual.y[0] == DeltaRational(6)


def test_dual_update_requires_gamma_free():
    bad = make_instance([[1, 1], [1, 0]], [1, 1], [1, 1], 0)
    with pytest.raises(InputError, match="greedy standard form"):
        kolen(bad, 1)


def test_reverse_delete_single_set():
    inst = make_instance([[1]], [1], [1], 0)
    pruned = kolen(inst, 5).pruned
    assert pruned.sets == (0,)


def test_reverse_delete_domination_worked_example():
    pruned = kolen(TWO_BY_TWO, 10).pruned
    assert pruned.sets == (1,)  # the later set dominates through element 0


def test_reverse_delete_disjoint_tight_sets_survive():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 0)
    res = kolen(inst, 10)
    assert res.pruned.sets == (0, 1)


def test_kolen_zero_multiplier_empty_cover():
    res = kolen(TWO_BY_TWO, 0)
    assert res.pruned.sets == ()
    assert res.tight.sets == ()


def test_kolen_worked_example_matches_brute_force():
    res = kolen(TWO_BY_TWO, 10)
    assert res.pruned.sets == (1,)
    value = prize_collecting_value(TWO_BY_TWO, 10, res)
    assert value == DeltaRational(3)
    assert brute_force_prize_collecting(TWO_BY_TWO, 10) == 3


def test_kolen_large_multiplier_covers_everything_coverable():
    for seed in range(5):
        work, _ = to_greedy_form(corpus_instance(seed))
        lam = 2 * max((work.costs[j] / work.profits[i]
                       for i in range(work.n) if work.profits[i] > 0
                       for j in work.element_sets()[i]), default=F(1))
        res = kolen(work, lam)
        assert covered_profit(work, res.pruned) == work.coverable_profit()


def test_audit_passes_on_honest_runs():
    for lam in (0, F(1, 3), 1, 7):
        res = kolen(TWO_BY_TWO, lam)
        assert audit_optimality(TWO_BY_TWO, lam, res).ok


def test_audit_catches_redundant_tight_set():
    # Tamper: put both tight sets in the pruned cover; they share element 0
    # whose dual is positive, and the extra cost already breaks clause (a).
    res = kolen(TWO_BY_TWO, 10)
    tampered = KolenResult(pruned=Cover.of([0, 1]), tight=res.tight, dual=res.dual,
                           positive=res.positive, covered=0b11)
    report = audit_optimality(TWO_BY_TWO, 10, tampered)
    assert (report.ok, report.failed_clause, report.detail) == (
        False, "a", "cost+penalty 5 != dual total 3")


def test_audit_catches_uncovered_below_cap():
    # Tamper: drop the only pruned set; both penalties now count in (a).
    res = kolen(TWO_BY_TWO, 10)
    tampered = KolenResult(pruned=Cover.of([]), tight=res.tight, dual=res.dual,
                           positive=res.positive, covered=0)
    report = audit_optimality(TWO_BY_TWO, 10, tampered)
    assert (report.ok, report.failed_clause, report.detail) == (
        False, "a", "cost+penalty 20 != dual total 3")


ONE_SET_ONE_ELEMENT = make_instance([[1]], [2], [1], 0)
ONE_SET_TWO_ELEMENTS = make_instance([[1], [1]], [2], [1, 1], 0)
TWO_DISJOINT_SETS = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 0)


# Hand-built duals, each passing every clause before the one it breaks:
# (instance, lambda, pruned sets, y, stored residuals, clause, detail).
SABOTAGED = (
    (ONE_SET_ONE_ELEMENT, 10, [0], [1], [1],
     "a", "cost+penalty 2 != dual total 1"),
    (TWO_BY_TWO, 10, [0, 1], [2, 3], [0, -2],
     "b", "element 0 with positive dual covered 2 times"),
    (TWO_DISJOINT_SETS, DeltaRational(2, -1), [0], [DeltaRational(2, -1), 1],
     [DeltaRational(-1, 1), 0],
     "c", "uncovered element 1 has dual 1 below cap 2-1d"),
    (TWO_BY_TWO, 10, [1], [2, 1], [0, 1],
     "d", "residual mismatch at set 1"),
    (TWO_BY_TWO, 10, [1], [3, 0], [-1, 0],
     "d", "negative residual at set 0"),
    (ONE_SET_TWO_ELEMENTS, 5, [0], [3, -1], [0],
     "d", "negative dual at element 1"),
    (ONE_SET_TWO_ELEMENTS, DeltaRational(F(1, 2), 1), [0], [2, 0], [0],
     "d", "dual above cap at element 0"),
)


@pytest.mark.parametrize("instance, lam, pruned, y, residuals, clause, detail",
                         SABOTAGED, ids=["a", "b", "c", "d-mismatch", "d-residual",
                                         "d-negative-dual", "d-above-cap"])
def test_audit_names_each_clause(instance, lam, pruned, y, residuals, clause, detail):
    dual = DualSolution(tuple(map(DeltaRational.of, y)), DeltaRational.of(lam),
                        tuple(map(DeltaRational.of, residuals)))
    run = KolenResult(pruned=Cover.of(pruned), tight=Cover.of(pruned), dual=dual,
                      positive=reference_positive_mask(dual.y),
                      covered=covered_element_mask(instance, Cover.of(pruned)))
    report = audit_optimality(instance, lam, run)
    assert (report.ok, report.failed_clause, report.detail) == (False, clause, detail)
    assert report == reference_audit_optimality(instance, lam, run)


def test_formal_multiplier_runs():
    lam_minus = DeltaRational(F(1, 2), -1)
    inst = make_instance([[1], [1]], [1], [1, 1], 1)
    res = kolen(inst, lam_minus)
    assert res.tight.sets == ()
    res_plus = kolen(inst, DeltaRational(F(1, 2), +1))
    assert res_plus.pruned.sets == (0,)
    # value components agree across the two perturbed runs
    assert [y.value for y in res.dual.y] == [y.value for y in res_plus.dual.y]


def test_exactness_property_random_corpus():
    lambdas = (F(0), F(1, 4), F(1, 2), F(1), F(2), F(10))
    for seed in range(30):
        work, _ = to_greedy_form(corpus_instance(seed))
        for lam in lambdas:
            res = kolen(work, lam)
            value = prize_collecting_value(work, lam, res)
            assert value.delta == 0
            assert value.value == brute_force_prize_collecting(work, lam)
            assert audit_optimality(work, lam, res).ok


def test_monotone_tight_inclusion_under_formal_perturbation():
    # Tight sets of the run just below a multiplier sit inside the tight
    # sets of the concrete run at that multiplier.
    for seed in range(20):
        work, _ = to_greedy_form(corpus_instance(seed))
        for lam in (F(1, 2), F(1), F(3)):
            below = kolen(work, DeltaRational(lam, -1))
            at = kolen(work, lam)
            assert below.tight.as_set() <= at.tight.as_set()
            # and the value components of the perturbed duals match the
            # concrete ones (the linear-in-delta structure)
            assert [y.value for y in below.dual.y] == [y.value for y in at.dual.y]
