"""Parametric search for the threshold multiplier.

The coverage of the pruned primal-dual cover jumps as the multiplier
grows.  This module isolates a threshold value: a multiplier lambda* whose
formally perturbed runs at lambda* - d and lambda* + d cover strictly less
than P and at least P respectively, for every infinitesimal d > 0.

The search keeps an open interval (lo, hi) with the invariant that the
run just above lo is infeasible and the run just below hi is feasible.
Inside the interval the dual update is executed symbolically, with every
dual variable and residual cost a linear function of lambda; the first
element whose candidate lines cross inside the interval yields the
breakpoints of their lower envelope, and a binary search over those
breakpoints (each probe one exact perturbed run) either returns a
threshold or narrows the interval so that one more element is agreed on.
This is a Megiddo-style parametric search (Megiddo, "Combinatorial
optimization with rational objective functions", 1979).  The symbolic
pass is resumed, not restarted, after each round: the interval only
shrinks, so the elements already agreed on stay agreed and the pass costs
one envelope computation per element plus one per round in total.  The
probes run the packed-int kernel of `pcover.kolen`; only the runs that
the result keeps have their duals decoded.

Any materialized run that covers exactly P short-circuits the search: by
the exactness certificate such a cover is optimal for the partial problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DeltaRational
from .errors import InfeasibleError, InternalInvariantError
from .kolen import KolenResult, kolen
from .model import EMPTY_COVER, Cover, Instance, covered_profit

Line = tuple[Fraction, Fraction]  # (intercept, slope) as a function of lambda


def lower_envelope_breakpoints(lines, interval) -> tuple[Fraction, ...]:
    """Lambdas strictly inside `interval` where the pointwise min changes.

    Lines are (intercept, slope) pairs; duplicates (as functions) are
    ignored.  Crossings that never reach the lower envelope do not count.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo >= hi:
        raise InternalInvariantError(f"empty interval ({lo}, {hi})")
    unique = sorted({(Fraction(a), Fraction(b)) for a, b in lines})
    if not unique:
        raise InternalInvariantError("no lines given")
    # Entry piece: minimal value just right of lo, slope breaking ties.
    current = min(unique, key=lambda ln: (ln[0] + ln[1] * lo, ln[1]))
    x = lo
    breakpoints = []
    while True:
        best_x = None
        best_line = None
        for ln in unique:
            if ln[1] >= current[1]:
                continue
            cross = (ln[0] - current[0]) / (current[1] - ln[1])
            if not (x < cross < hi):
                continue
            if best_x is None or cross < best_x or (cross == best_x and ln[1] < best_line[1]):
                best_x = cross
                best_line = ln
        if best_x is None:
            return tuple(breakpoints)
        breakpoints.append(best_x)
        current = best_line
        x = best_x


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the threshold search.

    Either `exact_hit` is set (a run covering exactly P, optimal by the
    exactness identity) or `below`/`at_or_above` bracket the target:
    covered(below.pruned) < P <= covered(at_or_above.pruned).  In the
    bracketing case `at_star` is the run at the threshold multiplier
    itself (no formal perturbation); its coverage decides which perturbed
    run the combination step pairs it with.

    `agreed_lines` are the per-element dual functions (intercept, slope)
    valid throughout `interval`, recorded for the linearity check.
    """

    lambda_star: Fraction
    below: KolenResult | None
    at_or_above: KolenResult | None
    exact_hit: KolenResult | None
    kolen_calls: int
    at_star: KolenResult | None = None
    star_covered: Fraction | None = None
    interval: tuple[Fraction, Fraction] | None = None
    agreed_lines: tuple[Line, ...] = ()

    def merge_pair(self, target) -> tuple[KolenResult, KolenResult]:
        """(infeasible run, feasible run): one concrete, one perturbed.

        The inclusion arguments behind the combination step run from a
        formally perturbed dual into the concrete one, so the pair always
        contains the threshold-multiplier run itself.
        """
        if self.exact_hit is not None:
            raise ValueError("exact hit: nothing to merge")
        if self.star_covered is None:
            raise ValueError("no threshold-multiplier run recorded")
        if self.star_covered > target:
            return self.below, self.at_star
        return self.at_star, self.at_or_above


class _SymbolicPass:
    """The dual update run symbolically, resumed from round to round.

    Every dual variable and residual cost is a line (intercept, slope) in
    lambda.  `advance(lo, hi)` continues from the first element not yet
    agreed on and returns ('agree', lines) when every element's dual is a
    single linear function of lambda across the open interval, else
    ('split', i, breakpoints, lines-so-far) for the first element whose
    candidate envelope changes identity inside it.  The search only ever
    shrinks the interval, and lines that agree on an interval agree on
    every subinterval, so agreed elements are never run again and a whole
    search calls `lower_envelope_breakpoints` at most n + rounds times.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.residuals: list[Line] = [(c, Fraction(0)) for c in instance.costs]
        self.lines: list[Line] = []

    def advance(self, lo: Fraction, hi: Fraction):
        instance, residuals, lines = self.instance, self.residuals, self.lines
        element_sets = instance.element_sets()
        mid = (lo + hi) / 2
        for i in range(len(lines), instance.n):
            sets = element_sets[i]
            candidates = [residuals[j] for j in sets]
            candidates.append((Fraction(0), instance.profits[i]))
            bps = lower_envelope_breakpoints(candidates, (lo, hi))
            if bps:
                return ("split", i, bps, tuple(lines))
            best_value = min(a + b * mid for a, b in candidates)
            winners = {(a, b) for a, b in candidates if a + b * mid == best_value}
            if len(winners) != 1:
                raise InternalInvariantError(
                    f"element {i}: distinct minimal lines without an envelope breakpoint")
            yi = winners.pop()
            lines.append(yi)
            if yi != (0, 0):
                for j in sets:
                    a, b = residuals[j]
                    residuals[j] = (a - yi[0], b - yi[1])
        return ("agree", tuple(lines))


class _Prober:
    """Caches perturbed runs and counts actual solver invocations."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.cache: dict[tuple[Fraction, int], KolenResult] = {}
        self.calls = 0

    def run(self, lam: Fraction, side: int) -> KolenResult:
        key = (lam, side)
        if key not in self.cache:
            self.cache[key] = kolen(self.instance, DeltaRational(lam, side))
            self.calls += 1
        return self.cache[key]

    def coverage(self, lam: Fraction, side: int) -> Fraction:
        return covered_profit(self.instance, self.run(lam, side).pruned)


def _trivial_result(instance: Instance, calls: int) -> ThresholdResult:
    from .kolen import DualSolution

    zero = DeltaRational(0)
    dual = DualSolution(tuple(zero for _ in range(instance.n)), zero,
                        tuple(DeltaRational(c) for c in instance.costs))
    hit = KolenResult(pruned=EMPTY_COVER, tight=EMPTY_COVER, dual=dual)
    return ThresholdResult(Fraction(0), None, None, hit, calls)


def find_threshold(instance: Instance) -> ThresholdResult:
    """Locate the threshold multiplier for covering the instance's target.

    Raises InfeasibleError when no cover can reach the target.  The total
    number of solver calls is bounded by n * (ceil(log2 m) + 2).
    """
    P = instance.target
    if P <= 0:
        return _trivial_result(instance, 0)
    if P > instance.coverable_profit():
        raise InfeasibleError(f"target {P} exceeds coverable profit "
                              f"{instance.coverable_profit()}")

    prober = _Prober(instance)

    free_sets = Cover.of(j for j, c in enumerate(instance.costs) if c == 0)
    if free_sets.sets and covered_profit(instance, free_sets) >= P:
        # Zero-cost sets already reach the target; the lambda = 0 run
        # returns them all (no dual is positive, nothing dominates).
        hit = prober.run(Fraction(0), 0)
        if covered_profit(instance, hit.pruned) < P:
            raise InternalInvariantError("zero-cost cover vanished in solver run")
        return ThresholdResult(Fraction(0), None, None, hit, prober.calls)

    hi = 2 * max(instance.costs[j] / instance.profits[i]
                 for i in range(instance.n) if instance.profits[i] > 0
                 for j in instance.sets_of_element(i))
    lo = Fraction(0)
    if hi <= 0:
        raise InternalInvariantError("degenerate initial interval")

    # Interval invariant, established without solver calls: just above 0
    # no positively-priced set is tight (free sets do not reach P), and
    # just below `hi` every coverable element is covered because the
    # doubled penalty cap strictly exceeds any containing set's cost.

    symbolic = _SymbolicPass(instance)
    for _round in range(instance.n + 1):
        outcome = symbolic.advance(lo, hi)
        if outcome[0] == "agree":
            raise InternalInvariantError(
                "full agreement inside the bracketing interval")
        _, element, bps, agreed = outcome

        lo_idx, hi_idx = 0, len(bps) + 1
        exact = None
        while hi_idx - lo_idx > 1:
            mid = (lo_idx + hi_idx) // 2
            run = prober.run(bps[mid - 1], -1)
            cov = covered_profit(instance, run.pruned)
            if cov == P:
                exact = (bps[mid - 1], run)
                break
            if cov >= P:
                hi_idx = mid
            else:
                lo_idx = mid
        if exact is not None:
            return ThresholdResult(exact[0], None, None, exact[1], prober.calls,
                                   interval=(lo, hi), agreed_lines=agreed)

        if lo_idx == 0:
            hi = bps[0]
            continue

        lam_a = bps[lo_idx - 1]
        plus_run = prober.run(lam_a, +1)
        plus_cov = covered_profit(instance, plus_run.pruned)
        if plus_cov == P:
            return ThresholdResult(lam_a, None, None, plus_run, prober.calls,
                                   interval=(lo, hi), agreed_lines=agreed)
        if plus_cov > P:
            below = prober.run(lam_a, -1)
            star_run = prober.run(lam_a, 0)
            star_cov = covered_profit(instance, star_run.pruned)
            if star_cov == P:
                return ThresholdResult(lam_a, below, plus_run, star_run,
                                       prober.calls, interval=(lo, hi),
                                       agreed_lines=agreed)
            return ThresholdResult(lam_a, below, plus_run, None, prober.calls,
                                   at_star=star_run, star_covered=star_cov,
                                   interval=(lo, hi), agreed_lines=agreed)
        lo = lam_a
        if hi_idx <= len(bps):
            hi = bps[hi_idx - 1]

    raise InternalInvariantError("threshold search exceeded its round budget")


def _ceil_log2(m: int) -> int:
    if m <= 1:
        return 0
    return (m - 1).bit_length()


def kolen_call_budget(instance: Instance) -> int:
    """Desk-scale call bound: n * (ceil(log2 m) + 2)."""
    return instance.n * (_ceil_log2(instance.m) + 2)
