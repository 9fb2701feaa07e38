"""Direct reference implementations of the threshold layer's kernels.

`reference_kolen` is Kolen's dual update and reverse delete written on
DeltaRational values, one comparison and one subtraction at a time, and
`reference_positive_mask` reads the elements of positive dual off them.
`reference_dual_lines` is the symbolic dual pass on Fraction lines that
restarts from element 0 on every call.  `reference_decode` unpacks a
packed run value by value, with no table of distinct values, after
evaluating its prefix's lines one by one.  `reference_audit_optimality` is
the optimality audit on DeltaRational values, every cap and residual
rebuilt where it is used.  `reference_prize_collecting_value` adds one
DeltaRational per uncovered element.  The tests referee the packed-int
kernel, the resumed int pass, the audit and the prize-collecting value
against them; `with_pruned` swaps a run's pruned cover for tests that
tamper with it.  Nothing in `src` imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from pcover.arith import DeltaRational
from pcover.errors import InternalInvariantError
from pcover.kolen import DualSolution, KolenResult, OptimalityAudit
from pcover.model import Cover, bit_indices, covered_element_mask

from dense import rows_of


def reference_dual_update(instance, lam):
    """(y, residuals) as DeltaRational tuples."""
    lam = DeltaRational.of(lam)
    residuals = [DeltaRational(c) for c in instance.costs]
    rows = rows_of(instance)
    y = []
    for i in range(instance.n):
        cap = lam * instance.profits[i]
        best = None
        for j in range(instance.m):
            if rows[i][j] and (best is None or residuals[j] < best):
                best = residuals[j]
        yi = cap if best is None or cap < best else best
        y.append(yi)
        if yi != 0:
            for j in range(instance.m):
                if rows[i][j]:
                    residuals[j] = residuals[j] - yi
    return tuple(y), tuple(residuals)


def reference_positive_mask(y):
    """Mask of the elements whose DeltaRational dual is positive."""
    mask = 0
    for i, yi in enumerate(y):
        if yi.is_positive():
            mask |= 1 << i
    return mask


def reference_kolen(instance, lam):
    """(y, residuals, tight, pruned) of one run, tight and pruned as Covers."""
    y, residuals = reference_dual_update(instance, lam)
    tight = [j for j, r in enumerate(residuals) if r == 0]
    pos_mask = reference_positive_mask(y)
    remaining = set(tight)
    pruned = []
    while remaining:
        j = max(remaining)
        pruned.append(j)
        remaining.discard(j)
        remaining.difference_update(
            [j2 for j2 in remaining
             if instance.col_masks[j] & instance.col_masks[j2] & pos_mask])
    return y, residuals, Cover.of(tight), Cover.of(pruned)


def reference_dual_lines(instance, lo, hi, envelope):
    """The symbolic pass over (lo, hi), from element 0 every time.

    `envelope` is the breakpoint function to call, so that a test can pass
    the module attribute it counts.
    """
    residuals = [(c, Fraction(0)) for c in instance.costs]
    rows = rows_of(instance)
    lines = []
    mid = (lo + hi) / 2
    for i in range(instance.n):
        sets = [j for j in range(instance.m) if rows[i][j]]
        candidates = [residuals[j] for j in sets]
        candidates.append((Fraction(0), instance.profits[i]))
        bps = envelope(candidates, (lo, hi))
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


def reference_decode(packed):
    """The DualSolution of a packed kernel run, each value unpacked on its
    own: the prefix's duals and the residuals the run left unevaluated
    come from the prefix's lines at the run's units."""
    y, residuals = list(packed.y), list(packed.residuals)
    prefix = packed.prefix
    if prefix is not None:
        y = [a * packed.cost_unit + b * packed.cap_unit for a, b in prefix.y] + y
        for j, (a, b) in enumerate(prefix.residuals):
            if residuals[j] is None:
                residuals[j] = a * packed.cost_unit + b * packed.cap_unit

    def unpack(x):
        value, delta = divmod(x + packed.base // 2, packed.base)
        delta -= packed.base // 2
        return DeltaRational(Fraction(value, packed.value_scale),
                             Fraction(delta, packed.delta_scale))

    return DualSolution(tuple(unpack(x) for x in y), packed.lam,
                        tuple(unpack(x) for x in residuals))


def reference_audit_optimality(instance, lam, result):
    """The optimality audit of `pcover.kolen`, clause by clause on
    DeltaRationals: same clause order, letters and detail strings."""
    lam = DeltaRational.of(lam)
    dual = result.dual
    covered = covered_element_mask(instance, result.pruned)

    lhs = DeltaRational(sum((instance.costs[j] for j in result.pruned.sets),
                            Fraction(0)))
    for i in range(instance.n):
        if not (covered >> i & 1):
            lhs = lhs + lam * instance.profits[i]
    rhs = DeltaRational(0)
    for yi in dual.y:
        rhs = rhs + yi
    if lhs != rhs:
        return OptimalityAudit(False, "a", f"cost+penalty {lhs} != dual total {rhs}")

    pruned_mask = 0
    for j in result.pruned.sets:
        pruned_mask |= 1 << j
    for i in range(instance.n):
        if dual.y[i].is_positive():
            hits = (instance.row_masks[i] & pruned_mask).bit_count()
            if hits > 1:
                return OptimalityAudit(False, "b",
                                       f"element {i} with positive dual covered {hits} times")

    for i in range(instance.n):
        if not (covered >> i & 1) and dual.y[i] != lam * instance.profits[i]:
            return OptimalityAudit(False, "c",
                                   f"uncovered element {i} has dual {dual.y[i]} "
                                   f"below cap {lam * instance.profits[i]}")

    for j, stored in enumerate(dual.residuals):
        fresh = DeltaRational(instance.costs[j])
        for i in bit_indices(instance.col_masks[j]):
            fresh = fresh - dual.y[i]
        if stored != fresh:
            return OptimalityAudit(False, "d", f"residual mismatch at set {j}")
        if not fresh.is_nonnegative():
            return OptimalityAudit(False, "d", f"negative residual at set {j}")
    for i, yi in enumerate(dual.y):
        if not yi.is_nonnegative():
            return OptimalityAudit(False, "d", f"negative dual at element {i}")
        if yi > lam * instance.profits[i]:
            return OptimalityAudit(False, "d", f"dual above cap at element {i}")

    return OptimalityAudit(True)


def reference_prize_collecting_value(instance, lam, result):
    """cost(pruned) + lambda * (uncovered profit), one DeltaRational
    addition per uncovered element."""
    lam = DeltaRational.of(lam)
    covered = covered_element_mask(instance, result.pruned)
    value = DeltaRational(sum((instance.costs[j] for j in result.pruned.sets),
                              Fraction(0)))
    for i in range(instance.n):
        if not (covered >> i & 1):
            value = value + lam * instance.profits[i]
    return value


def with_pruned(instance, run, pruned):
    """The run with another pruned cover and the element mask it covers,
    for tests that tamper with a run."""
    return KolenResult(pruned, run.tight, run.dual, run.positive,
                       covered_element_mask(instance, pruned))
