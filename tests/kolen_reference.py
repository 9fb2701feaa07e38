"""Direct reference implementations of the threshold layer's kernels.

`reference_kolen` is Kolen's dual update and reverse delete written on
DeltaRational values, one comparison and one subtraction at a time.
`reference_dual_lines` is the symbolic dual pass that restarts from
element 0 on every call.  The tests referee the packed-int kernel and the
resumed pass against them; nothing in `src` imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from pcover.arith import DeltaRational
from pcover.errors import InternalInvariantError
from pcover.model import Cover


def reference_dual_update(instance, lam):
    """(y, residuals) as DeltaRational tuples."""
    lam = DeltaRational.of(lam)
    residuals = [DeltaRational(c) for c in instance.costs]
    y = []
    for i in range(instance.n):
        cap = lam * instance.profits[i]
        best = None
        for j in range(instance.m):
            if instance.rows[i][j] and (best is None or residuals[j] < best):
                best = residuals[j]
        yi = cap if best is None or cap < best else best
        y.append(yi)
        if not yi.is_zero():
            for j in range(instance.m):
                if instance.rows[i][j]:
                    residuals[j] = residuals[j] - yi
    return tuple(y), tuple(residuals)


def reference_kolen(instance, lam):
    """(y, residuals, tight, pruned) of one run, tight and pruned as Covers."""
    y, residuals = reference_dual_update(instance, lam)
    tight = [j for j, r in enumerate(residuals) if r.is_zero()]
    pos_mask = 0
    for i, yi in enumerate(y):
        if yi.is_positive():
            pos_mask |= 1 << i
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
    lines = []
    mid = (lo + hi) / 2
    for i in range(instance.n):
        sets = [j for j in range(instance.m) if instance.rows[i][j]]
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
