"""Direct reference implementations of the LP certificate predicates.

These are `pcover.lp`'s `mixed_cover_point`, `is_primal_feasible`,
`dual_value` and `is_dual_feasible` written with plain `sum(...,
Fraction(0))` sums, one `Fraction` addition per term and no zero terms
dropped.  The tests referee the `fraction_sum` versions against them;
nothing in `src` imports this module.

`reference_solve_dual` solves the dual program by a simplex run of its
own, the referee for the duals `solve_lp` reads off its final tableau.
"""

from __future__ import annotations

from fractions import Fraction

from pcover.lp import DualFractional, FractionalSolution, solve_linear_program
from pcover.model import bit_indices, covered_element_mask

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_mixed_cover_point(instance, low, high=None):
    covers = (low,) if high is None else (low, high)
    masks = [covered_element_mask(instance, cover) for cover in covers]
    weights = (ONE,)
    if high is not None:
        cov_low, cov_high = (sum((instance.profits[i] for i in bit_indices(mask)), ZERO)
                             for mask in masks)
        a = (cov_high - instance.target) / (cov_high - cov_low)
        weights = (a, ONE - a)
    x = [ZERO] * instance.m
    for weight, cover in zip(weights, covers):
        for j in cover.sets:
            x[j] += weight
    r = [sum((w for w, mask in zip(weights, masks) if not mask >> i & 1), ZERO)
         for i in range(instance.n)]
    value = sum((c * v for c, v in zip(instance.costs, x)), ZERO)
    return FractionalSolution(tuple(x), tuple(r), value)


def reference_is_primal_feasible(instance, x, r):
    if len(x) != instance.m or len(r) != instance.n:
        return False
    if any(v < 0 for v in x) or any(v < 0 for v in r):
        return False
    for ri, mask in zip(r, instance.row_masks):
        if sum((x[j] for j in bit_indices(mask)), ri) < 1:
            return False
    budget = sum(instance.profits, ZERO) - instance.target
    return sum((p * v for p, v in zip(instance.profits, r)), ZERO) <= budget


def reference_dual_value(instance, y, lam):
    budget = sum(instance.profits, ZERO) - instance.target
    return sum(y, ZERO) - budget * lam


def reference_is_dual_feasible(instance, y, lam):
    if any(v < 0 for v in y) or lam < 0:
        return False
    for c, mask in zip(instance.costs, instance.col_masks):
        if sum((y[i] for i in bit_indices(mask)), ZERO) > c:
            return False
    return all(y[i] <= lam * instance.profits[i] for i in range(instance.n))


def reference_solve_dual(instance):
    """max 1.y - (p(U) - P) lam  s.t.  A^T y <= c, y <= lam p, y, lam >= 0."""
    n = instance.n
    budget = sum(instance.profits, ZERO) - instance.target
    constraints = [([ONE if mask >> i & 1 else ZERO for i in range(n)] + [ZERO], "<=", c)
                   for c, mask in zip(instance.costs, instance.col_masks)]
    constraints += [([ONE if k == i else ZERO for k in range(n)] + [-p], "<=", ZERO)
                    for i, p in enumerate(instance.profits)]
    out = solve_linear_program([-ONE] * n + [budget], constraints)
    return DualFractional(out.x[:n], out.x[n], -out.value)
