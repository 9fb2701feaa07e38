"""The packed-int Kolen kernel and the resumed symbolic pass, refereed
against the direct DeltaRational implementations in kolen_reference."""

import importlib
from dataclasses import replace
from fractions import Fraction as F

import pytest

from kolen_reference import reference_dual_lines, reference_kolen
from pcover import threshold
from pcover.arith import DeltaRational
from pcover.errors import AuditError
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.kolen import DualSolution, dual_update, kolen, reverse_delete
from pcover.model import make_instance
from pcover.pipeline import CORPUS_LAMBDAS, solve_partial_tbc, to_greedy_form
from pcover.threshold import find_threshold

kolen_module = importlib.import_module("pcover.kolen")  # pcover.kolen is the function

ODD_DELTAS = (DeltaRational(F(3, 7), F(-5, 2)), DeltaRational(F(1, 3), F(7, 4)),
              DeltaRational(F(0), F(2, 9)))


def assert_same_run(instance, lam):
    y, residuals, tight, pruned = reference_kolen(instance, lam)
    run = kolen(instance, lam)
    assert run.tight == tight
    assert run.pruned == pruned
    assert run.dual.y == y
    assert run.dual.residuals == residuals
    assert run.dual.lam == DeltaRational.of(lam)
    dual = dual_update(instance, lam)
    assert (dual.y, dual.residuals) == (y, residuals)
    assert reverse_delete(instance, tight, dual) == pruned


def threshold_lambdas(instance):
    thr = find_threshold(instance)
    return [DeltaRational(thr.lambda_star, side) for side in (-1, 0, 1)
            if side >= 0 or thr.lambda_star > 0]


def fractional_instances(count):
    """Gamma-free instances with fractional costs and profits, zero
    profits and empty rows, from corpus matrices in greedy order."""
    rng = Lcg(2024)
    out = []
    for seed in range(count):
        work, _ = to_greedy_form(corpus_instance(seed))
        rows = [list(row) for row in work.rows]
        at = rng.below(len(rows) + 1)
        rows.insert(at, [0] * work.m)  # an empty row keeps the matrix gamma-free
        costs = [F(rng.below(20), 1 + rng.below(6)) for _ in range(work.m)]
        profits = [F(rng.below(4) and rng.below(15), 1 + rng.below(5))
                   for _ in rows]
        coverable = sum((p for p, row in zip(profits, rows) if any(row)), F(0))
        out.append(make_instance(rows, costs, profits, coverable * F(2, 3)))
    return out


def test_kernel_matches_reference_on_corpus():
    for seed in range(200):
        work, _ = to_greedy_form(corpus_instance(seed))
        for lam in CORPUS_LAMBDAS + tuple(threshold_lambdas(work)):
            assert_same_run(work, lam)


def test_kernel_matches_reference_on_gap_family():
    for q in (1, 2):
        work, _ = to_greedy_form(gen_gap_family(q).instance)
        for lam in (F(0), F(1, 3), F(1), F(5, 2)) + tuple(threshold_lambdas(work)):
            assert_same_run(work, lam)


def test_kernel_matches_reference_on_fractional_data():
    for inst in fractional_instances(60):
        for lam in CORPUS_LAMBDAS + ODD_DELTAS + tuple(threshold_lambdas(inst)):
            assert_same_run(inst, lam)


def test_kernel_matches_reference_at_non_unit_deltas():
    for seed in range(40):
        work, _ = to_greedy_form(corpus_instance(seed))
        for lam in ODD_DELTAS:
            assert_same_run(work, lam)


def test_kernel_dual_is_decoded_on_first_read():
    work, _ = to_greedy_form(gen_gap_family(1).instance)
    run = kolen(work, F(1, 2))
    assert not isinstance(run._dual, DualSolution)
    first = run.dual
    assert isinstance(first, DualSolution) and run.dual is first


class RestartPass:
    """The symbolic pass restarted: every round runs from element 0."""

    def __init__(self, instance):
        self.instance = instance

    def advance(self, lo, hi):
        return reference_dual_lines(self.instance, lo, hi,
                                    threshold.lower_envelope_breakpoints)


def counted_search(monkeypatch, instance, symbolic_pass):
    """find_threshold with the given pass; returns (result, envelope calls,
    rounds)."""
    counts = {"envelope": 0, "rounds": 0}
    envelope = threshold.lower_envelope_breakpoints

    def counting_envelope(lines, interval):
        counts["envelope"] += 1
        return envelope(lines, interval)

    class CountingPass(symbolic_pass):
        def advance(self, lo, hi):
            counts["rounds"] += 1
            return super().advance(lo, hi)

    with monkeypatch.context() as patch:
        patch.setattr(threshold, "lower_envelope_breakpoints", counting_envelope)
        patch.setattr(threshold, "_SymbolicPass", CountingPass)
        result = find_threshold(instance)
    return result, counts["envelope"], counts["rounds"]


def search_instances():
    for seed in range(200):
        yield to_greedy_form(corpus_instance(seed))[0]
    for q in (1, 2):
        yield to_greedy_form(gen_gap_family(q).instance)[0]
    yield from fractional_instances(40)


def test_resumed_pass_matches_restart_reference(monkeypatch):
    saved = 0
    for inst in search_instances():
        got, calls, rounds = counted_search(monkeypatch, inst, threshold._SymbolicPass)
        ref, ref_calls, ref_rounds = counted_search(monkeypatch, inst, RestartPass)
        assert got.lambda_star == ref.lambda_star
        assert got.kolen_calls == ref.kolen_calls
        assert got.interval == ref.interval
        assert got.agreed_lines == ref.agreed_lines
        assert (got.exact_hit is None) == (ref.exact_hit is None)
        assert rounds == ref_rounds
        assert calls <= inst.n + rounds
        saved += ref_calls - calls
    assert saved > 0


def test_sabotaged_kernel_residual_fails_the_audit(monkeypatch):
    packed_update = kolen_module._packed_dual_update

    def one_wrong_residual(instance, lam):
        packed = packed_update(instance, lam)
        residuals = list(packed.residuals)
        j = max((j for j, r in enumerate(residuals) if r > 0), default=None)
        if j is None:
            return packed
        residuals[j] += 1  # still positive, so tight sets and pruning stay
        return replace(packed, residuals=residuals)

    instance = gen_gap_family(1).instance
    solve_partial_tbc(instance)
    monkeypatch.setattr(kolen_module, "_packed_dual_update", one_wrong_residual)
    with pytest.raises(AuditError, match="dual_optimality"):
        solve_partial_tbc(instance)
