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
one envelope computation per element plus one per round in total.

The pass keeps its lines as int pairs: intercepts are multiples of 1/L_c
and slopes multiples of 1/L_p (L_c, L_p the lcms of the cost and profit
denominators), so both are scaled by L = lcm(L_c, L_p).  A crossing
(A1 - A2) / (B2 - B1) of two scaled lines is the same multiplier as that
of the unscaled ones, so breakpoints need no change of unit;
`lower_envelope_breakpoints` compares crossings by cross-multiplication
with one body for int and Fraction lines.  The agreed lines are decoded
to Fractions only as the result records them.  The probes run the
packed-int kernel of `pcover.kolen`, and their coverage is an int sum of
the scaled profits over the covered element mask; only the runs that the
result keeps have their duals decoded.

Any materialized run that covers exactly P short-circuits the search: by
the exactness certificate such a cover is optimal for the partial problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import DeltaRational
from .errors import InfeasibleError, InternalInvariantError
from .kolen import KolenResult, kolen
from .model import (EMPTY_COVER, Cover, Instance, bit_indices,
                    covered_element_mask)

Line = tuple[Fraction, Fraction]  # (intercept, slope) as a function of lambda


def lower_envelope_breakpoints(lines, interval) -> tuple[Fraction, ...]:
    """Lambdas strictly inside `interval` where the pointwise min changes.

    Lines are (intercept, slope) pairs of ints or Fractions; duplicates
    (as functions) are ignored.  Crossings that never reach the lower
    envelope do not count.  A crossing is kept as a (numerator,
    denominator) pair with a positive denominator and compared by
    cross-multiplication, so int lines never build a Fraction until a
    breakpoint is returned; lines scaled by a common positive factor give
    the same breakpoints.
    """
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo >= hi:
        raise InternalInvariantError(f"empty interval ({lo}, {hi})")
    unique = sorted(set(lines))
    if not unique:
        raise InternalInvariantError("no lines given")
    lo_n, lo_d = lo.numerator, lo.denominator
    hi_n, hi_d = hi.numerator, hi.denominator
    # Entry piece: minimal value just right of lo, slope breaking ties.
    ca, cb = min(unique, key=lambda ln: (ln[0] * lo_d + ln[1] * lo_n, ln[1]))
    x_n, x_d = lo_n, lo_d
    breakpoints = []
    while True:
        best = None
        for a, b in unique:
            if b >= cb:
                continue
            num, den = a - ca, cb - b  # crossing num / den, den > 0
            if not (x_n * den < num * x_d and num * hi_d < hi_n * den):
                continue
            if best is None:
                best = (num, den, a, b)
                continue
            order = num * best[1] - best[0] * den
            if order < 0 or (order == 0 and b < best[3]):
                best = (num, den, a, b)
        if best is None:
            return tuple(breakpoints)
        num, den, ca, cb = best
        x = Fraction(num, den)
        breakpoints.append(x)
        x_n, x_d = x.numerator, x.denominator


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
    lambda, kept as a pair of ints scaled by L = lcm(L_c, L_p): intercepts
    are multiples of 1/L_c (costs minus duals) and slopes multiples of
    1/L_p (profits minus duals), so scaling both by L changes no crossing.
    `advance(lo, hi)` continues from the first element not yet agreed on
    and returns ('agree', lines) when every element's dual is a single
    linear function of lambda across the open interval, else ('split', i,
    breakpoints, lines-so-far) for the first element whose candidate
    envelope changes identity inside it; the lines it returns are
    Fractions.  The search only ever shrinks the interval, and lines that
    agree on an interval agree on every subinterval, so agreed elements are
    never run again and a whole search calls `lower_envelope_breakpoints`
    at most n + rounds times.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        l_c, costs = instance.scaled_costs()
        l_p, profits = instance.scaled_profits()
        self.scale = lcm(l_c, l_p)
        self.caps = [(0, p * (self.scale // l_p)) for p in profits]
        self.residuals = [(c * (self.scale // l_c), 0) for c in costs]
        self.lines: list[tuple[int, int]] = []
        self.decoded: list[Line] = []

    def _agreed(self) -> tuple[Line, ...]:
        scale, decoded = self.scale, self.decoded
        decoded.extend((Fraction(a, scale), Fraction(b, scale))
                       for a, b in self.lines[len(decoded):])
        return tuple(decoded)

    def advance(self, lo: Fraction, hi: Fraction):
        residuals, lines = self.residuals, self.lines
        element_sets = self.instance.element_sets()
        mid = (lo + hi) / 2
        mid_n, mid_d = mid.numerator, mid.denominator
        for i in range(len(lines), self.instance.n):
            sets = element_sets[i]
            candidates = [residuals[j] for j in sets]
            candidates.append(self.caps[i])
            bps = lower_envelope_breakpoints(candidates, (lo, hi))
            if bps:
                return ("split", i, bps, self._agreed())
            values = [a * mid_d + b * mid_n for a, b in candidates]
            best_value = min(values)
            winners = {ln for ln, v in zip(candidates, values) if v == best_value}
            if len(winners) != 1:
                raise InternalInvariantError(
                    f"element {i}: distinct minimal lines without an envelope breakpoint")
            ya, yb = winners.pop()
            lines.append((ya, yb))
            if ya or yb:
                for j in sets:
                    a, b = residuals[j]
                    residuals[j] = (a - ya, b - yb)
        return ("agree", self._agreed())


class _Prober:
    """Caches perturbed runs and counts actual solver invocations.

    The cache holds one round's runs: every breakpoint of a later round
    lies strictly inside the narrowed interval, so no run of an earlier
    round can be asked for again, and `find_threshold` empties the cache
    as each round starts.

    Coverage is measured in units of 1/L_p, as an int sum of
    `Instance.scaled_profits()`; `goal` is the target in the same units.
    `covered` walks the smaller side of the covered element mask: the
    covered elements, or the coverable ones it misses, subtracted from
    `coverable`, the scaled profit of every element some set contains.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.cache: dict[tuple[Fraction, int], KolenResult] = {}
        self.calls = 0
        self.l_p, self.profits = instance.scaled_profits()
        self.goal = instance.target * self.l_p
        coverable = [i for i, mask in enumerate(instance.row_masks) if mask]
        self.coverable_mask = sum(1 << i for i in coverable)
        self.coverable = sum(map(self.profits.__getitem__, coverable))

    def run(self, lam: Fraction, side: int) -> KolenResult:
        key = (lam, side)
        if key not in self.cache:
            self.cache[key] = kolen(self.instance, DeltaRational(lam, side))
            self.calls += 1
        return self.cache[key]

    def covered(self, cover: Cover) -> int:
        mask = covered_element_mask(self.instance, cover)
        missed = self.coverable_mask & ~mask
        if missed.bit_count() < mask.bit_count():
            return self.coverable - sum(map(self.profits.__getitem__, bit_indices(missed)))
        return sum(map(self.profits.__getitem__, bit_indices(mask)))

    def coverage(self, lam: Fraction, side: int) -> int:
        return self.covered(self.run(lam, side).pruned)


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
    goal = prober.goal

    free_sets = Cover.of(j for j, c in enumerate(instance.costs) if c == 0)
    if free_sets.sets and prober.covered(free_sets) >= goal:
        # Zero-cost sets already reach the target; the lambda = 0 run
        # returns them all (no dual is positive, nothing dominates).
        if prober.coverage(Fraction(0), 0) < goal:
            raise InternalInvariantError("zero-cost cover vanished in solver run")
        return ThresholdResult(Fraction(0), None, None, prober.run(Fraction(0), 0),
                               prober.calls)

    costs, profits = instance.costs, instance.profits
    hi = 2 * max(max(map(costs.__getitem__, sets)) / profits[i]
                 for i, sets in enumerate(instance.element_sets())
                 if sets and profits[i] > 0)
    lo = Fraction(0)
    if hi <= 0:
        raise InternalInvariantError("degenerate initial interval")

    # Interval invariant, established without solver calls: just above 0
    # no positively-priced set is tight (free sets do not reach P), and
    # just below `hi` every coverable element is covered because the
    # doubled penalty cap strictly exceeds any containing set's cost.

    symbolic = _SymbolicPass(instance)
    for _round in range(instance.n + 1):
        prober.cache.clear()
        outcome = symbolic.advance(lo, hi)
        if outcome[0] == "agree":
            raise InternalInvariantError(
                "full agreement inside the bracketing interval")
        _, element, bps, agreed = outcome

        lo_idx, hi_idx = 0, len(bps) + 1
        exact = None
        while hi_idx - lo_idx > 1:
            mid = (lo_idx + hi_idx) // 2
            cov = prober.coverage(bps[mid - 1], -1)
            if cov == goal:
                exact = bps[mid - 1]
                break
            if cov >= goal:
                hi_idx = mid
            else:
                lo_idx = mid
        if exact is not None:
            return ThresholdResult(exact, None, None, prober.run(exact, -1),
                                   prober.calls, interval=(lo, hi),
                                   agreed_lines=agreed)

        if lo_idx == 0:
            hi = bps[0]
            continue

        lam_a = bps[lo_idx - 1]
        plus_run = prober.run(lam_a, +1)
        plus_cov = prober.coverage(lam_a, +1)
        if plus_cov == goal:
            return ThresholdResult(lam_a, None, None, plus_run, prober.calls,
                                   interval=(lo, hi), agreed_lines=agreed)
        if plus_cov > goal:
            below = prober.run(lam_a, -1)
            star_run = prober.run(lam_a, 0)
            star_cov = prober.coverage(lam_a, 0)
            if star_cov == goal:
                return ThresholdResult(lam_a, below, plus_run, star_run,
                                       prober.calls, interval=(lo, hi),
                                       agreed_lines=agreed)
            return ThresholdResult(lam_a, below, plus_run, None, prober.calls,
                                   at_star=star_run,
                                   star_covered=Fraction(star_cov, prober.l_p),
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
