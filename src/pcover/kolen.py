"""Primal-dual solver for prize-collecting cover on gamma-free matrices.

Kolen's algorithm: raise each element's dual variable in index order until
either a containing set runs out of residual cost or the variable hits its
penalty cap, then prune the tight sets in reverse index order, dropping
dominated sets.  On a matrix in greedy standard form the pruned cover is an
exact optimum of the prize-collecting problem, and `audit_optimality`
re-checks that certificate on every run.

The multiplier is a DeltaRational throughout, so runs at formally perturbed
multipliers (lambda - d, lambda + d) reuse this code unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DeltaRational
from .errors import InputError
from .model import Cover, Instance, covered_element_mask
from .tb import is_gamma_free


@dataclass(frozen=True)
class DualSolution:
    """Element duals y, multiplier, and per-set residual costs."""

    y: tuple[DeltaRational, ...]
    lam: DeltaRational
    residuals: tuple[DeltaRational, ...]

    def recompute_residuals(self, instance: Instance) -> tuple[DeltaRational, ...]:
        out = []
        for j in range(instance.m):
            total = DeltaRational(instance.costs[j])
            mask = instance.col_masks[j]
            for i in range(instance.n):
                if mask >> i & 1:
                    total = total - self.y[i]
            out.append(total)
        return tuple(out)

    def positive_y_mask(self) -> int:
        mask = 0
        for i, yi in enumerate(self.y):
            if yi.is_positive():
                mask |= 1 << i
        return mask


@dataclass(frozen=True)
class KolenResult:
    pruned: Cover
    tight: Cover
    dual: DualSolution


def _require_sgf(instance: Instance) -> None:
    if instance._gamma_free is None:
        instance._gamma_free = is_gamma_free(instance.rows)
    if not instance._gamma_free:
        raise InputError("matrix is not in greedy standard form")


def dual_update(instance: Instance, lam) -> DualSolution:
    """Raise duals in element index order; exact DeltaRational arithmetic.

    An element contained in no set gets the full penalty cap lambda * p_i.
    """
    _require_sgf(instance)
    lam = DeltaRational.of(lam)
    if not lam.is_nonnegative():
        raise InputError(f"negative multiplier {lam}")
    residuals = [DeltaRational(c) for c in instance.costs]
    y: list[DeltaRational] = []
    for i in range(instance.n):
        cap = lam * instance.profits[i]
        best = None
        mask = instance.row_masks[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            if best is None or residuals[j] < best:
                best = residuals[j]
        yi = cap if best is None or cap < best else best
        y.append(yi)
        if not yi.is_zero():
            mask = instance.row_masks[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                mask ^= low
                residuals[j] = residuals[j] - yi
    return DualSolution(tuple(y), lam, tuple(residuals))


def tight_sets(dual: DualSolution) -> Cover:
    return Cover.of(j for j, r in enumerate(dual.residuals) if r.is_zero())


def reverse_delete(instance: Instance, tight: Cover, dual: DualSolution) -> Cover:
    """Keep the largest-index tight set, drop everything it dominates; repeat."""
    for j in tight.sets:
        if not dual.residuals[j].is_zero():
            raise InputError(f"set {j} is not tight (residual {dual.residuals[j]})")
    pos_mask = dual.positive_y_mask()
    remaining = set(tight.sets)
    pruned = []
    while remaining:
        j = max(remaining)
        pruned.append(j)
        remaining.discard(j)
        doomed = [j2 for j2 in remaining
                  if instance.col_masks[j] & instance.col_masks[j2] & pos_mask]
        remaining.difference_update(doomed)
    return Cover.of(pruned)


def kolen(instance: Instance, lam) -> KolenResult:
    dual = dual_update(instance, lam)
    tight = tight_sets(dual)
    pruned = reverse_delete(instance, tight, dual)
    return KolenResult(pruned=pruned, tight=tight, dual=dual)


@dataclass(frozen=True)
class OptimalityAudit:
    ok: bool
    failed_clause: str | None = None
    detail: str = ""


def audit_optimality(instance: Instance, lam, result: KolenResult) -> OptimalityAudit:
    """Exact re-verification of the prize-collecting optimality certificate.

    Clauses, checked in order, first failure reported:
      (a) cost of the pruned cover plus penalties of uncovered elements
          equals the sum of all duals;
      (b) every element with positive dual lies in at most one pruned set;
      (c) every element the pruned cover misses has its dual at the cap;
      (d) dual feasibility: 0 <= y_i <= lambda p_i and residuals >= 0,
          with stored residuals matching recomputation.
    """
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

    for i in range(instance.n):
        if dual.y[i].is_positive():
            hits = sum(1 for j in result.pruned.sets if instance.rows[i][j])
            if hits > 1:
                return OptimalityAudit(False, "b",
                                       f"element {i} with positive dual covered {hits} times")

    for i in range(instance.n):
        if not (covered >> i & 1) and dual.y[i] != lam * instance.profits[i]:
            return OptimalityAudit(False, "c",
                                   f"uncovered element {i} has dual {dual.y[i]} "
                                   f"below cap {lam * instance.profits[i]}")

    recomputed = dual.recompute_residuals(instance)
    for j, (stored, fresh) in enumerate(zip(dual.residuals, recomputed)):
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


def prize_collecting_value(instance: Instance, lam, result: KolenResult) -> DeltaRational:
    """cost(pruned) + lambda * (uncovered profit), as a DeltaRational."""
    lam = DeltaRational.of(lam)
    covered = covered_element_mask(instance, result.pruned)
    value = DeltaRational(sum((instance.costs[j] for j in result.pruned.sets),
                              Fraction(0)))
    for i in range(instance.n):
        if not (covered >> i & 1):
            value = value + lam * instance.profits[i]
    return value
