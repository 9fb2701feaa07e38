"""The packed-int Kolen kernel, the resumed symbolic pass and the
optimality audit, refereed against the direct DeltaRational
implementations in kolen_reference."""

import importlib
import inspect
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from dense import rows_of
from kolen_reference import (reference_audit_optimality, reference_decode,
                             reference_dual_lines, reference_kolen,
                             reference_positive_mask, with_pruned)
from pcover import arith, lp, model, pipeline, threshold
from pcover.arith import DeltaRational, common_scale, fraction_sum
from pcover.errors import AuditError, InternalInvariantError
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.kolen import (DualSolution, KolenResult, LinePrefix,
                          audit_optimality, kolen)
from pcover.merger import MergeContext
from pcover.model import (Cover, Instance, PermutationPair, bit_indices,
                          make_instance, permute_instance)
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
    assert run.positive == reference_positive_mask(y)


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
        rows = [list(row) for row in rows_of(work)]
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


def kernel_prefix(instance, lines):
    """Fraction dual lines of the first elements as the `LinePrefix` the
    probes resume from: int pairs over (L_c, L_p), every set's residual
    after them, the mask of the nonzero lines, the sets with a member
    after the prefix, and the other sets whose residual line is zero."""
    l_c, l_p = instance.scaled_costs()[0], instance.scaled_profits()[0]
    y = tuple(((a * l_c).numerator, (b * l_p).numerator) for a, b in lines)
    residuals = []
    suffix_sets = []
    for j, (c, mask) in enumerate(zip(instance.scaled_costs()[1], instance.col_masks)):
        members = bit_indices(mask)
        if any(k >= len(y) for k in members):
            suffix_sets.append(j)
        members = [k for k in members if k < len(y)]
        residuals.append((c - sum(y[k][0] for k in members),
                          -sum(y[k][1] for k in members)))
    positive = sum(1 << k for k, line in enumerate(y) if line != (0, 0))
    outside_tight = tuple(j for j, line in enumerate(residuals)
                          if line == (0, 0) and j not in suffix_sets)
    return LinePrefix(y, tuple(residuals), positive, tuple(suffix_sets), outside_tight)


class RestartPass:
    """The symbolic pass restarted: every round runs from element 0."""

    def __init__(self, instance):
        self.instance = instance

    def advance(self, lo, hi):
        outcome = reference_dual_lines(self.instance, lo, hi,
                                       threshold.lower_envelope_breakpoints)
        if outcome[0] == "agree":
            raise InternalInvariantError("full agreement inside the bracketing interval")
        _, _element, bps, lines = outcome
        return bps, kernel_prefix(self.instance, lines)


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


def test_envelope_runs_once_per_round(monkeypatch):
    # Only a split element's candidate lines cross inside the interval, so
    # the pass computes one lower envelope per round.
    works = list(search_instances())
    works += [to_greedy_form(gen_gap_family(q).instance)[0] for q in (3, 4)]
    total = 0
    for inst in works:
        _result, calls, rounds = counted_search(monkeypatch, inst, threshold._SymbolicPass)
        assert calls == rounds
        total += rounds
    assert total > len(works)


def shuffled(instance, seed):
    """The instance with rows, then columns, put in a Fisher-Yates order
    drawn from one `Lcg(seed)` stream (the benchmark's `relabel`)."""
    rng = Lcg(seed)

    def fisher_yates(n):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    rows = fisher_yates(instance.n)
    return permute_instance(instance, PermutationPair(rows, fisher_yates(instance.m)))


def test_resumed_probes_match_runs_from_element_zero(monkeypatch):
    # Every probe resumes after the round's agreed lines; its covers and its
    # decoded dual must be those of the run from element 0.
    probes = []

    def refereed(instance, lam, prefix=None):
        run = kolen(instance, lam, prefix)
        ref = kolen(instance, lam)
        assert (run.pruned, run.tight) == (ref.pruned, ref.tight)
        assert run.dual == ref.dual
        assert run.positive == ref.positive == reference_positive_mask(run.dual.y)
        probes.append(0 if prefix is None else len(prefix.y))
        return run

    monkeypatch.setattr(threshold, "kolen", refereed)
    works = [to_greedy_form(corpus_instance(seed))[0] for seed in range(600)]
    for q in (1, 2, 3, 4):
        gap = gen_gap_family(q).instance
        works += [to_greedy_form(inst)[0]
                  for inst in [gap] + [shuffled(gap, seed) for seed in range(1, 6)]]
    works += fractional_instances(40)
    for work in works:
        find_threshold(work)
    assert sum(1 for start in probes if start > 0) > len(works)


def kept_packed_runs(instance):
    """The packed, not yet decoded, runs that the threshold search keeps."""
    thr = find_threshold(instance)
    runs = (thr.exact_hit, thr.below, thr.at_or_above, thr.at_star)
    return [run._dual for run in runs
            if run is not None and not isinstance(run._dual, DualSolution)]


def decode_instances():
    works = [to_greedy_form(corpus_instance(seed))[0] for seed in range(600)]
    for q in (1, 2, 3, 4):
        gap = gen_gap_family(q).instance
        works += [to_greedy_form(inst)[0]
                  for inst in [gap] + [shuffled(gap, seed) for seed in range(1, 6)]]
    return works


def test_kept_run_decodes_match_reference_decode():
    # decode evaluates the prefix's lines only when a kept run is read, and
    # unpacks each distinct value once; the reference does neither.
    works = decode_instances()
    decoded = resumed = 0
    for work in works:
        for packed in kept_packed_runs(work):
            assert packed.decode() == reference_decode(packed)
            decoded += 1
            resumed += packed.prefix is not None
    assert decoded > len(works) and resumed > len(works)


def test_decode_unpacks_each_distinct_value_once(monkeypatch):
    built = []
    of_fractions = DeltaRational.of_fractions.__func__

    def counted(cls, value, delta):
        built.append(1)
        return of_fractions(cls, value, delta)

    works = [to_greedy_form(gen_gap_family(q).instance)[0] for q in (1, 2, 3, 4)]
    works += [to_greedy_form(corpus_instance(seed))[0] for seed in range(100)]
    shared = 0
    for work in works:
        for packed in kept_packed_runs(work):
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(DeltaRational, "of_fractions", classmethod(counted))
                dual = packed.decode()
            values = dual.y + dual.residuals
            distinct = {(x.value, x.delta) for x in values}
            assert len(built) <= len(distinct)
            shared += len(values) - len(built)
    assert shared > 0


def audit_outcome(audit):
    return (audit.ok, audit.failed_clause, audit.detail)


def moved_dual(instance, run, source, sink, amount):
    """The run with `amount` of dual moved from element `source` to `sink`,
    residuals recomputed, so clause (a) and the residual match still hold."""
    y = list(run.dual.y)
    y[source] = y[source] - amount
    y[sink] = y[sink] + amount
    residuals = []
    for c, mask in zip(instance.costs, instance.col_masks):
        fresh = DeltaRational(c)
        for i in bit_indices(mask):
            fresh = fresh - y[i]
        residuals.append(fresh)
    dual = DualSolution(tuple(y), run.dual.lam, tuple(residuals))
    return KolenResult(run.pruned, run.tight, dual, run.positive, run.covered)


def tampered_runs(instance, run):
    """The run; the run with its pruned cover grown by one tight set and
    shrunk by its last set; and the run with dual moved between its first
    and last elements, both ways."""
    yield run
    extra = sorted(run.tight.as_set() - run.pruned.as_set())
    if extra:
        yield with_pruned(instance, run, Cover.of(run.pruned.sets + (extra[0],)))
    if run.pruned.sets:
        yield with_pruned(instance, run, Cover(run.pruned.sets[:-1]))
    if instance.n >= 2:
        last = instance.n - 1
        yield moved_dual(instance, run, 0, last, run.dual.y[0])
        yield moved_dual(instance, run, last, 0, run.dual.y[last])
        yield moved_dual(instance, run, 0, last, DeltaRational(1))


def assert_same_audits(instance, lams):
    for lam in lams:
        for run in tampered_runs(instance, kolen(instance, lam)):
            assert audit_outcome(audit_optimality(instance, lam, run)) == \
                audit_outcome(reference_audit_optimality(instance, lam, run))


def test_audit_matches_reference_on_corpus():
    for seed in range(200):
        work, _ = to_greedy_form(corpus_instance(seed))
        assert_same_audits(work, threshold_lambdas(work))


def test_audit_matches_reference_on_gap_family():
    for q in (1, 2):
        work, _ = to_greedy_form(gen_gap_family(q).instance)
        assert_same_audits(work, threshold_lambdas(work))


def test_audit_matches_reference_on_fractional_data():
    for inst in fractional_instances(40):
        assert_same_audits(inst, ODD_DELTAS + tuple(threshold_lambdas(inst)))


def test_audit_reads_no_kernel_data(monkeypatch):
    # The checker stays independent of the kernel it checks: once a run's
    # dual is decoded, the audit needs neither scaled profits nor packed ints.
    work, _ = to_greedy_form(gen_gap_family(1).instance)
    thr = find_threshold(work)
    runs = [run for run in (thr.exact_hit, thr.below, thr.at_or_above, thr.at_star)
            if run is not None]
    for run in runs:
        run.dual  # decoded here, before the kernel refuses

    def refuse(*args, **kwargs):
        raise AssertionError("the audit read kernel data")

    monkeypatch.setattr(Instance, "scaled_profits", refuse)
    monkeypatch.setattr(Instance, "scaled_costs", refuse)
    monkeypatch.setattr(kolen_module, "_packed_dual_update", refuse)
    for run in runs:
        assert audit_optimality(work, run.dual.lam, run).ok


def test_kernel_never_calls_fraction_sum(monkeypatch):
    # fraction_sum serves the checker, so a fault in it cannot be shared by
    # the kernel it checks: the packed Kolen run, the symbolic pass and the
    # merge recursion never call it, directly or through the model.
    kernel = {kolen_module._packed_dual_update.__code__,
              threshold._SymbolicPass.advance.__code__}
    kernel.update(f.__code__ for f in vars(MergeContext).values()
                  if inspect.isfunction(f))
    calls = []

    def checked_sum(values):
        frame = sys._getframe(1)
        while frame is not None:
            assert frame.f_code not in kernel, f"{frame.f_code.co_name} summed"
            frame = frame.f_back
        calls.append(1)
        return fraction_sum(values)

    for module in (arith, model, lp, kolen_module):
        monkeypatch.setattr(module, "fraction_sum", checked_sum)
    assert solve_partial_tbc(gen_gap_family(2).instance).splits > 0
    for seed in range(20):
        solve_partial_tbc(corpus_instance(seed))
    assert calls  # the checker side did sum through the wrapper


def test_kernel_never_calls_common_scale(monkeypatch):
    # common_scale puts the checker's Fractions over its own denominators,
    # so like fraction_sum it must stay out of the kernel it checks.
    kernel = {kolen_module._packed_dual_update.__code__,
              threshold._SymbolicPass.advance.__code__}
    kernel.update(f.__code__ for f in vars(MergeContext).values()
                  if inspect.isfunction(f))
    calls = []

    def checked_scale(values, unit=1):
        frame = sys._getframe(1)
        while frame is not None:
            assert frame.f_code not in kernel, f"{frame.f_code.co_name} scaled"
            frame = frame.f_back
        calls.append(1)
        return common_scale(values, unit)

    users = [module for name, module in sys.modules.items()
             if name.startswith("pcover") and hasattr(module, "common_scale")]
    assert pipeline in users
    for module in users:
        monkeypatch.setattr(module, "common_scale", checked_scale)
    assert solve_partial_tbc(gen_gap_family(2).instance).splits > 0
    for seed in range(20):
        solve_partial_tbc(corpus_instance(seed))
    assert calls  # the checker side did scale through the wrapper


def sabotage_one_residual(packed, outside):
    """The packed run with one set's residual off by one unit: the last
    positive one the update computed, or, with `outside`, the last set
    outside the suffix, whose residual `decode` evaluates from the
    prefix's line.  Returns (packed run, sabotaged set or None)."""
    if not outside:
        j = max((j for j, r in enumerate(packed.residuals)
                 if r is not None and r > 0), default=None)
        if j is None:
            return packed, None
        residuals = list(packed.residuals)
        residuals[j] += 1  # still positive, so tight sets and pruning stay
        return replace(packed, residuals=residuals), j
    j = max((j for j, r in enumerate(packed.residuals) if r is None), default=None)
    if j is None:
        return packed, None
    lines = list(packed.prefix.residuals)
    lines[j] = (lines[j][0] + 1, lines[j][1])
    return replace(packed, prefix=replace(packed.prefix, residuals=tuple(lines))), j


def test_sabotaged_kernel_residual_fails_the_audit(monkeypatch):
    # One residual the update computes and one that decode evaluates from
    # the prefix: either way the audit names the set.
    packed_update = kolen_module._packed_dual_update
    instance = gen_gap_family(1).instance
    solve_partial_tbc(instance)
    for outside in (False, True):
        sabotaged_sets = []

        def one_wrong_residual(instance, lam, prefix=None):
            packed, j = sabotage_one_residual(packed_update(instance, lam, prefix),
                                              outside)
            if j is not None:
                sabotaged_sets.append(j)
            return packed

        with monkeypatch.context() as patch:
            patch.setattr(kolen_module, "_packed_dual_update", one_wrong_residual)
            with pytest.raises(AuditError) as failure:
                solve_partial_tbc(instance)
        named = [f"dual_optimality_{side}: clause d: residual mismatch at set {j}"
                 for side in ("low", "high") for j in sabotaged_sets]
        assert any(text in str(failure.value) for text in named), str(failure.value)
