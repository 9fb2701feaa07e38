"""Parametric search for the threshold multiplier.

The coverage of the pruned primal-dual cover jumps as the multiplier
grows.  This module isolates a threshold value: a multiplier lambda* whose
formally perturbed runs at lambda* - d and lambda* + d cover strictly less
than P and at least P respectively, for every infinitesimal d > 0.

The search keeps an open interval (lo, hi) with the invariant that the
run just above lo is infeasible and the run just below hi is feasible.
Inside the interval the dual update is executed symbolically, with every
dual variable and residual cost a linear function of lambda.  Per element
the pass compares the line lowest just right of lo with the line lowest
just left of hi; the first element where they differ has candidate lines
that cross inside the interval, and only there are the breakpoints of
their lower envelope computed.  A binary search over those breakpoints
(each probe one exact perturbed run) either returns a threshold or
narrows the interval so that one more element is agreed on.  This is a
Megiddo-style parametric search (Megiddo, "Combinatorial optimization
with rational objective functions", 1979).  The symbolic pass is
resumed, not restarted, after each round: the interval only shrinks, so
the elements already agreed on stay agreed, and a whole search computes
one lower envelope per round.

The pass keeps its lines as int pairs in the kernel's units: intercepts
over L_c and slopes over L_p (L_c, L_p the lcms of the cost and profit
denominators, `Instance.scaled_costs()` and `scaled_profits()`).  A line
is evaluated at lambda = n/d as A L_p d + B L_c n, so the two ends are
compared by int cross-products; `lower_envelope_breakpoints` compares
crossings by cross-multiplication with one body for int and Fraction
lines, and gets the split element's lines scaled by L_c L_p, which moves
no crossing.  The agreed lines are decoded to Fractions only when a
result's `agreed_lines` is read.

Each round's probes resume from the agreed lines: every probe multiplier
is a breakpoint strictly inside the interval, perturbed or not, so the
agreed duals and every set's residual at it are the lines' values, and
`pcover.kolen` runs the packed-int update only from the split element
on (`kolen.LinePrefix`).  The pass hands over, once per round, the sets
that meet the suffix (read off each set's last element) and the other
sets whose residual line is zero, so a probe evaluates, updates and scans
only the suffix sets' residuals.  Probe coverage is an int sum of the
scaled profits (`model.ScaledCoverage`) over the element mask that the
run's prune built (`KolenResult.covered`); only the runs that the result
keeps have their duals decoded, and each decode evaluates the prefix's
lines and unpacks each distinct value once.

Any materialized run that covers exactly P short-circuits the search: by
the exactness certificate such a cover is optimal for the partial problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DeltaRational
from .errors import InfeasibleError, InternalInvariantError
from .kolen import KolenResult, LinePrefix, kolen
from .model import (EMPTY_COVER, Cover, Instance, ScaledCoverage,
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

    `lines` are the per-element dual functions valid throughout
    `interval`, recorded for the linearity check, as int pairs (A, B) over
    `line_scales` = (L_c, L_p); `agreed_lines` decodes them to Fraction
    pairs (intercept, slope).
    """

    lambda_star: Fraction
    below: KolenResult | None
    at_or_above: KolenResult | None
    exact_hit: KolenResult | None
    kolen_calls: int
    at_star: KolenResult | None = None
    star_covered: Fraction | None = None
    interval: tuple[Fraction, Fraction] | None = None
    lines: tuple[tuple[int, int], ...] = ()
    line_scales: tuple[int, int] = (1, 1)

    @property
    def agreed_lines(self) -> tuple[Line, ...]:
        l_c, l_p = self.line_scales
        return tuple((Fraction(a, l_c), Fraction(b, l_p)) for a, b in self.lines)

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

    Every dual variable and residual cost is a line in lambda, a pair
    (A, B) of ints standing for A / L_c + lambda * B / L_p.  `advance(lo,
    hi)` continues from the first element not yet agreed on.  Per element
    it picks the line lowest just right of lo (ties to the smaller slope)
    and the line lowest just left of hi (ties to the larger slope).  Any
    other line minus one lowest at both ends is linear and nonnegative at
    both ends, so that line is lowest throughout and is the element's
    agreed dual.  Different lines mean the envelope changes inside the
    interval: `advance` then returns (breakpoints, prefix), the
    breakpoints of that element's candidate lines and the agreed lines as
    a `kolen.LinePrefix`, with the sets that meet the split element or a
    later one and the other sets whose residual line is (0, 0).  The
    search only ever shrinks the interval, and lines that agree on an
    interval agree on every subinterval, so agreed elements are never run
    again and `lower_envelope_breakpoints` runs once per round.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.l_c, costs = instance.scaled_costs()
        self.l_p, self.profits = instance.scaled_profits()
        self.residuals = [(c, 0) for c in costs]
        self.lines: list[tuple[int, int]] = []
        self.positive = 0  # the agreed elements whose line is not zero
        self.ends = [mask.bit_length() for mask in instance.col_masks]  # last element + 1
        # Split elements never move back, so a set outside one round's
        # suffix stays outside, its residual line final.
        self.suffix_sets = list(range(instance.m))
        self.outside_tight: list[int] = []

    def advance(self, lo: Fraction, hi: Fraction):
        residuals, lines, profits = self.residuals, self.lines, self.profits
        l_c, l_p = self.l_c, self.l_p
        element_sets = self.instance.element_sets()
        # A line at n/d, times L_c L_p d, is A (L_p d) + B (L_c n).
        lo_a, lo_b = l_p * lo.denominator, l_c * lo.numerator
        hi_a, hi_b = l_p * hi.denominator, l_c * hi.numerator
        for i in range(len(lines), self.instance.n):
            sets = element_sets[i]
            p = profits[i]
            entry = leave = (0, p)  # the penalty cap lambda * p_i
            entry_at, leave_at = p * lo_b, p * hi_b
            for j in sets:
                line = residuals[j]
                a, b = line
                at = a * lo_a + b * lo_b
                if at < entry_at or (at == entry_at and b < entry[1]):
                    entry, entry_at = line, at
                at = a * hi_a + b * hi_b
                if at < leave_at or (at == leave_at and b > leave[1]):
                    leave, leave_at = line, at
            if entry != leave:
                candidates = [(a * l_p, b * l_c) for a, b in map(residuals.__getitem__, sets)]
                candidates.append((0, p * l_c))
                bps = lower_envelope_breakpoints(candidates, (lo, hi))
                if not bps:
                    raise InternalInvariantError(
                        f"element {i}: distinct lowest lines at the two ends "
                        f"without an envelope breakpoint")
                ends, suffix = self.ends, []
                for j in self.suffix_sets:
                    if ends[j] > i:
                        suffix.append(j)
                    elif residuals[j] == (0, 0):
                        self.outside_tight.append(j)
                self.suffix_sets = suffix
                return bps, LinePrefix(tuple(lines), tuple(residuals), self.positive,
                                       tuple(suffix), tuple(self.outside_tight))
            lines.append(entry)
            ya, yb = entry
            if ya or yb:
                self.positive |= 1 << i
                for j in sets:
                    a, b = residuals[j]
                    residuals[j] = (a - ya, b - yb)
        raise InternalInvariantError("full agreement inside the bracketing interval")


class _Prober:
    """Caches perturbed runs and counts actual solver invocations.

    The cache holds one round's runs: every breakpoint of a later round
    lies strictly inside the narrowed interval, so no run of an earlier
    round can be asked for again.  `start_round` empties the cache and
    takes the round's agreed prefix, from which every probe of the round
    resumes.

    Coverage is measured in units of 1/L_p, as an int sum of
    `Instance.scaled_profits()` over the run's `KolenResult.covered`, the
    union its prune built; `goal` is the target in the same units.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.cache: dict[tuple[Fraction, int], KolenResult] = {}
        self.calls = 0
        self.prefix: LinePrefix | None = None
        self.l_p, profits = instance.scaled_profits()
        self.goal = instance.target * self.l_p
        self.scaled_coverage = ScaledCoverage(instance, profits)

    def start_round(self, prefix: LinePrefix) -> None:
        self.cache.clear()
        self.prefix = prefix

    def run(self, lam: Fraction, side: int) -> KolenResult:
        key = (lam, side)
        if key not in self.cache:
            self.cache[key] = kolen(self.instance, DeltaRational(lam, side), self.prefix)
            self.calls += 1
        return self.cache[key]

    def coverage(self, lam: Fraction, side: int) -> int:
        return self.scaled_coverage(self.run(lam, side).covered)


def _trivial_result(instance: Instance, calls: int) -> ThresholdResult:
    from .kolen import DualSolution

    zero = DeltaRational(0)
    dual = DualSolution(tuple(zero for _ in range(instance.n)), zero,
                        tuple(DeltaRational(c) for c in instance.costs))
    hit = KolenResult(pruned=EMPTY_COVER, tight=EMPTY_COVER, dual=dual, positive=0,
                      covered=0)
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
    if free_sets.sets and prober.scaled_coverage(
            covered_element_mask(instance, free_sets)) >= goal:
        # Zero-cost sets already reach the target; the lambda = 0 run
        # returns them all (no dual is positive, nothing dominates).
        if prober.coverage(Fraction(0), 0) < goal:
            raise InternalInvariantError("zero-cost cover vanished in solver run")
        return ThresholdResult(Fraction(0), None, None, prober.run(Fraction(0), 0),
                               prober.calls)

    # hi is twice the largest cost / profit ratio of an element and a set
    # containing it, found by cross-multiplying the scaled ints.
    l_c, costs = instance.scaled_costs()
    l_p, profits = instance.scaled_profits()
    top_c, top_p = 0, 1
    for sets, p in zip(instance.element_sets(), profits):
        if sets and p > 0:
            c = max(map(costs.__getitem__, sets))
            if c * top_p > top_c * p:
                top_c, top_p = c, p
    hi = Fraction(2 * top_c * l_p, top_p * l_c)
    lo = Fraction(0)
    if hi <= 0:
        raise InternalInvariantError("degenerate initial interval")

    # Interval invariant, established without solver calls: just above 0
    # no positively-priced set is tight (free sets do not reach P), and
    # just below `hi` every coverable element is covered because the
    # doubled penalty cap strictly exceeds any containing set's cost.

    symbolic = _SymbolicPass(instance)
    for _round in range(instance.n + 1):
        bps, prefix = symbolic.advance(lo, hi)
        prober.start_round(prefix)
        found = {"interval": (lo, hi), "lines": prefix.y, "line_scales": (l_c, l_p)}

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
                                   prober.calls, **found)

        if lo_idx == 0:
            hi = bps[0]
            continue

        lam_a = bps[lo_idx - 1]
        plus_run = prober.run(lam_a, +1)
        plus_cov = prober.coverage(lam_a, +1)
        if plus_cov == goal:
            return ThresholdResult(lam_a, None, None, plus_run, prober.calls,
                                   **found)
        if plus_cov > goal:
            below = prober.run(lam_a, -1)
            star_run = prober.run(lam_a, 0)
            star_cov = prober.coverage(lam_a, 0)
            if star_cov == goal:
                return ThresholdResult(lam_a, below, plus_run, star_run,
                                       prober.calls, **found)
            return ThresholdResult(lam_a, below, plus_run, None, prober.calls,
                                   at_star=star_run,
                                   star_covered=Fraction(star_cov, prober.l_p),
                                   **found)
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
