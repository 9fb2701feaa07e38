"""Threshold multiplier search."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pcover.errors import InfeasibleError
from pcover import threshold
from pcover.generators import corpus_instance, gen_gap_family
from pcover.kolen import kolen
from pcover.model import covered_profit, make_instance
from pcover.pipeline import to_greedy_form
from pcover.threshold import (find_threshold, kolen_call_budget,
                              lower_envelope_breakpoints)

SINGLE_SET = make_instance([[1], [1]], [1], [1, 1], 1)


def grid_check_envelope(lines, interval, breakpoints):
    """Oracle: evaluate the minimizing-line identity on a fine grid around
    each candidate crossing and confirm the envelope changes exactly at
    the reported breakpoints."""
    lo, hi = interval
    probes = sorted({lo + (hi - lo) * F(k, 64) for k in range(1, 64)}
                    | {b + eps for b in breakpoints for eps in (F(-1, 997), F(1, 997))
                       if lo < b + eps < hi})

    def min_lines(x):
        best = min(a + b * x for a, b in lines)
        return frozenset((a, b) for a, b in lines if a + b * x == best)

    changes = []
    prev = None
    for x in probes:
        cur = min_lines(x)
        if prev is not None and not (cur & prev):
            changes.append(x)
        prev = cur
    # every detected change lies next to a reported breakpoint
    for x in changes:
        assert any(abs(x - b) <= F(1, 32) * (hi - lo) + F(1, 997) for b in breakpoints)


def test_envelope_single_line():
    assert lower_envelope_breakpoints([(F(1), F(0))], (F(0), F(2))) == ()


def test_envelope_forced_crossing():
    bps = lower_envelope_breakpoints([(F(1), F(0)), (F(0), F(1))], (F(0), F(2)))
    assert bps == (F(1),)


def test_envelope_three_lines_single_transition():
    lines = [(F(3), F(-1)), (F(1), F(1)), (F(2), F(0))]
    bps = lower_envelope_breakpoints(lines, (F(0), F(3)))
    assert bps == (F(1),)
    grid_check_envelope(lines, (F(0), F(3)), bps)


def test_envelope_random_lines_against_grid_oracle():
    from pcover.generators import Lcg
    rng = Lcg(77)
    for _ in range(20):
        lines = [(F(rng.below(12) - 6, 1 + rng.below(3)),
                  F(rng.below(12) - 6, 1 + rng.below(3)))
                 for _ in range(1 + rng.below(6))]
        bps = lower_envelope_breakpoints(lines, (F(0), F(4)))
        assert list(bps) == sorted(set(bps))
        grid_check_envelope(lines, (F(0), F(4)), bps)


def brute_force_breakpoints(lines, interval):
    """Every pairwise crossing strictly inside the interval at which two
    distinct lines attain the minimum."""
    lo, hi = interval
    unique = set(lines)
    out = set()
    for a1, b1 in unique:
        for a2, b2 in unique:
            if b1 <= b2:
                continue
            x = F(a2 - a1) / (b1 - b2)
            if lo < x < hi:
                best = min(a + b * x for a, b in unique)
                if sum(1 for a, b in unique if a + b * x == best) >= 2:
                    out.add(x)
    return tuple(sorted(out))


small_ints = st.integers(-6, 6)  # small, so that three lines often meet in one point


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=7),
       scale=st.integers(1, 36),
       ends=st.tuples(st.fractions(-8, 8, max_denominator=12),
                      st.fractions(-8, 8, max_denominator=12)).filter(
                          lambda e: e[0] != e[1]))
# Three lines meet at 1; the envelope leaves on the steepest, and a line
# crossing the middle one at 2 stays above it.
@example(lines=[(0, 0), (2, -2), (4, -4), (4, -3)], scale=2, ends=(F(0), F(5)))
def test_envelope_int_lines_match_scaled_fraction_lines_and_brute_force(
        lines, scale, ends):
    interval = tuple(sorted(ends))
    from_ints = lower_envelope_breakpoints(lines, interval)
    scaled = [(F(a, scale), F(b, scale)) for a, b in lines]
    assert from_ints == lower_envelope_breakpoints(scaled, interval)
    assert from_ints == brute_force_breakpoints(lines, interval)
    assert all(isinstance(x, F) for x in from_ints)


def test_threshold_single_set_worked_example():
    thr = find_threshold(SINGLE_SET)
    assert thr.lambda_star == F(1, 2)
    assert thr.exact_hit is None
    assert covered_profit(SINGLE_SET, thr.below.pruned) == 0
    assert covered_profit(SINGLE_SET, thr.at_or_above.pruned) == 2
    # grid oracle: sweep rational multipliers around the threshold
    for lam, expect in [(F(1, 4), 0), (F(49, 100), 0), (F(51, 100), 2), (F(1), 2)]:
        assert covered_profit(SINGLE_SET, kolen(SINGLE_SET, lam).pruned) == expect


def test_threshold_zero_target():
    inst = make_instance([[1]], [1], [1], 0)
    thr = find_threshold(inst)
    assert thr.lambda_star == 0
    assert thr.exact_hit is not None
    assert thr.exact_hit.pruned.sets == ()


def test_threshold_exact_hit_identity():
    # Target equal to the full coverage of the single set: the run just
    # above the threshold covers exactly P, an optimal exact hit.
    inst = make_instance([[1], [1]], [1], [1, 1], 2)
    thr = find_threshold(inst)
    assert thr.exact_hit is not None
    cover = thr.exact_hit.pruned
    cost = sum(inst.costs[j] for j in cover.sets)
    y_total = sum(y.value for y in thr.exact_hit.dual.y)
    assert cost == y_total - thr.lambda_star * (inst.total_profit() - inst.target)


def test_threshold_unattainable_target():
    inst = make_instance([[1], [0]], [1], [1, 1], F(3, 2))
    with pytest.raises(InfeasibleError):
        find_threshold(inst)


def test_threshold_zero_cost_sets_short_circuit():
    inst = make_instance([[1, 0], [0, 1]], [0, 5], [1, 1], 1)
    thr = find_threshold(inst)
    assert thr.exact_hit is not None
    assert thr.lambda_star == 0
    assert 0 in thr.exact_hit.pruned.sets


def test_threshold_contract_and_budget_on_corpus():
    for seed in range(40):
        work, _ = to_greedy_form(corpus_instance(seed))
        thr = find_threshold(work)
        assert thr.kolen_calls <= kolen_call_budget(work)
        if thr.exact_hit is not None:
            assert covered_profit(work, thr.exact_hit.pruned) >= work.target
        else:
            assert covered_profit(work, thr.below.pruned) < work.target
            assert covered_profit(work, thr.at_or_above.pruned) >= work.target
            star = covered_profit(work, thr.at_star.pruned)
            assert star == thr.star_covered
            assert star != work.target  # else it would be an exact hit


def test_agreed_lines_reproduce_duals_inside_final_interval():
    # Linearity: concrete runs at three interior points of the final
    # bracketing interval follow the recorded per-element dual functions.
    checked = 0
    for seed in range(40):
        work, _ = to_greedy_form(corpus_instance(seed))
        thr = find_threshold(work)
        if thr.interval is None or not thr.agreed_lines:
            continue
        lo, hi = thr.interval
        for k in (1, 2, 3):
            mid = lo + (hi - lo) * F(k, 4)
            run = kolen(work, mid)
            for i, (a, b) in enumerate(thr.agreed_lines):
                assert run.dual.y[i].value == a + b * mid
                assert run.dual.y[i].delta == 0
        checked += 1
    assert checked >= 10


def test_kolen_calls_count_distinct_runs(monkeypatch):
    # The probe cache holds one round: no run of an earlier round is asked
    # for again, so clearing it per round keeps one call per distinct
    # (lambda, side) run.
    runs = []

    def recording(instance, lam, prefix=None):
        runs.append((lam.value, lam.delta))
        return kolen(instance, lam, prefix)

    monkeypatch.setattr(threshold, "kolen", recording)
    works = [to_greedy_form(corpus_instance(seed))[0] for seed in range(600)]
    works += [to_greedy_form(gen_gap_family(q).instance)[0] for q in (1, 2, 3, 4)]
    probed = 0
    for work in works:
        runs.clear()
        thr = find_threshold(work)
        assert thr.kolen_calls == len(runs) == len(set(runs))
        probed += len(runs)
    assert probed > len(works)
