"""Exact rational linear programming for the partial-cover relaxation.

A dense two-phase simplex over `fractions.Fraction` with Bland's pivot
rule (guaranteed termination, no tolerances).  Desk-scale only: the
tableau is a plain list of lists, its last row the objective row, and
every pivot walks all of it.

`solve_lp` solves

    min c.x   s.t.  A x + r >= 1,  p.r <= p(U) - P,  x, r >= 0

in one simplex run and reads an optimal solution of its dual

    max 1.y - (p(U) - P) lam   s.t.  A^T y <= c,  y <= lam p,  y, lam >= 0

off the final objective row: y_i is the reduced cost of row i's surplus
column, lam that of the budget row's slack column.  `solve_dual` is the
certificate step: it checks those duals with `is_dual_feasible` and
returns their objective, which its callers compare with the primal
value.  `tests/lp_reference.py` keeps a second simplex run on the dual
program as the referee.

The simplex serves the rho-separable reduction (its input is not totally
balanced), `pcover verify lp-duality` and the tests.  The totally balanced
solve certifies the LP optimum with the predicates below instead.
`is_primal_feasible` and `is_dual_feasible` put the points they check and
the instance's Fractions over common denominators they compute with
`arith.common_scale`, never with the kernel's scaling, and decide each
constraint on ints; `mixed_cover_point` sums the two covers' profits
as ints over `common_scale` of the profits and builds its weight as one
Fraction, reads each r_i's pattern off the covers' missed-element masks,
and it and `dual_value` add the rest with `arith.fraction_sum` (one
Fraction per sum, zero terms dropped).
`tests/lp_reference.py` keeps the plain-sum versions that referee them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .arith import common_scale, fraction_sum
from .errors import InfeasibleError, InternalInvariantError
from .model import Cover, Instance, bit_indices, covered_element_mask

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPOutcome:
    x: tuple[Fraction, ...]
    value: Fraction
    slack_costs: tuple[Fraction, ...]


def solve_linear_program(costs, constraints) -> LPOutcome:
    """Minimize costs.x subject to rows (coeffs, rel, rhs), x >= 0.

    rel is '<=' or '>='.  Each row gets a slack ('<=') or surplus ('>=')
    column, and `slack_costs` lists their final reduced costs in row
    order: the optimal dual of a '>=' row, and minus that of a '<=' row.
    Raises InfeasibleError when no feasible point exists and
    InternalInvariantError on an unbounded objective (impossible for the
    programs built in this package).
    """
    num_x = len(costs)
    m = len(constraints)
    total = num_x + m
    rows = []
    for r, (coeffs, rel, rhs) in enumerate(constraints):
        if len(coeffs) != num_x:
            raise InternalInvariantError("constraint arity mismatch")
        if rel not in ("<=", ">="):
            raise InternalInvariantError(f"bad relation {rel!r}")
        row = [Fraction(v) for v in coeffs] + [ZERO] * m
        row[num_x + r] = ONE if rel == "<=" else -ONE
        rhs = Fraction(rhs)
        if rhs < 0:  # make every right-hand side nonnegative
            row, rhs = [-v for v in row], -rhs
        # One artificial per row; phase 1 minimizes their sum.
        rows.append(row + [ONE if i == r else ZERO for i in range(m)] + [rhs])
    basis = [total + r for r in range(m)]
    rows.append(_objective_row(rows, basis, [ZERO] * total + [ONE] * m + [ZERO]))
    _simplex(rows, basis, total + m)
    if rows[-1][-1] != 0:
        raise InfeasibleError("linear program is infeasible")

    # Drive leftover artificial basics out, dropping redundant rows.
    r = 0
    while r < len(basis):
        if basis[r] >= total:
            pivot_col = next((j for j in range(total) if rows[r][j] != 0), None)
            if pivot_col is None:
                del rows[r], basis[r]
                continue
            _pivot(rows, basis, r, pivot_col)
        r += 1

    # Remove artificial columns and run phase 2 on the real objective.
    rows = [row[:total] + [row[-1]] for row in rows[:-1]]
    rows.append(_objective_row(rows, basis,
                               [Fraction(c) for c in costs] + [ZERO] * (m + 1)))
    _simplex(rows, basis, total)

    x = [ZERO] * total
    for r, b in enumerate(basis):
        x[b] = rows[r][-1]
    solution = tuple(x[:num_x])
    value = sum((c * v for c, v in zip(costs, solution)), ZERO)
    return LPOutcome(solution, value, tuple(rows[-1][num_x:total]))


def _objective_row(rows, basis, cost):
    """Reduced costs of `cost` in the basis, and minus its value last."""
    obj = list(cost)
    for row, b in zip(rows, basis):
        if cost[b] != 0:
            obj = [o - cost[b] * v for o, v in zip(obj, row)]
    return obj


def _pivot(rows, basis, r, c):
    """Pivot on (r, c), the objective row included; zero entries are skipped."""
    pivot = rows[r][c]
    rows[r] = [v / pivot if v else v for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            factor = rows[i][c]
            rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], rows[r])]
    basis[r] = c


def _simplex(rows, basis, width):
    """Minimize with Bland's rule; rows[-1] is the objective row."""
    while True:
        entering = next((j for j in range(width) if rows[-1][j] < 0), None)
        if entering is None:
            return
        leaving = None
        best = None
        for r in range(len(basis)):
            coeff = rows[r][entering]
            if coeff > 0:
                ratio = rows[r][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving is None:
            raise InternalInvariantError("objective unbounded below")
        _pivot(rows, basis, leaving, entering)


@dataclass(frozen=True)
class FractionalSolution:
    """Primal relaxation point: set variables x, slack variables r.

    `solve_lp` also sets y and lam, the duals read off its final tableau;
    `solve_dual` certifies them.
    """

    x: tuple[Fraction, ...]
    r: tuple[Fraction, ...]
    value: Fraction
    y: tuple[Fraction, ...] | None = None
    lam: Fraction | None = None


@dataclass(frozen=True)
class DualFractional:
    """Dual optimum: element values y, multiplier lam."""

    y: tuple[Fraction, ...]
    lam: Fraction
    value: Fraction


def solve_lp(instance: Instance) -> FractionalSolution:
    """Optimal basic solution of the primal relaxation and its tableau duals."""
    n, m = instance.n, instance.m
    costs = list(instance.costs) + [ZERO] * n
    constraints = []
    for i in range(n):
        coeffs = [ONE if instance.row_masks[i] >> j & 1 else ZERO for j in range(m)]
        coeffs += [ONE if k == i else ZERO for k in range(n)]
        constraints.append((coeffs, ">=", ONE))
    budget = instance.total_profit() - instance.target
    constraints.append(([ZERO] * m + list(instance.profits), "<=", budget))
    out = solve_linear_program(costs, constraints)
    solution = FractionalSolution(tuple(out.x[:m]), tuple(out.x[m:]), out.value,
                                  out.slack_costs[:n], out.slack_costs[n])
    if not is_primal_feasible(instance, solution.x, solution.r):
        raise InternalInvariantError("primal LP solution is infeasible")
    return solution


def solve_dual(instance: Instance, primal: FractionalSolution) -> DualFractional:
    """Certify the duals of a `solve_lp` result and return their objective.

    The caller compares the value with `primal.value`: equal objectives of
    a feasible pair certify that both are optimal.
    """
    if primal.y is None or not is_dual_feasible(instance, primal.y, primal.lam):
        raise InternalInvariantError("dual LP solution is infeasible")
    return DualFractional(primal.y, primal.lam,
                          dual_value(instance, primal.y, primal.lam))


def mixed_cover_point(instance: Instance, low: Cover, high: Cover | None = None, *,
                      profit_scale: tuple[int, list[int]] | None = None
                      ) -> FractionalSolution:
    """The relaxation point of one cover, or of two covers mixed to cover P.

    Two covers get weight a = (cov(high) - P) / (cov(high) - cov(low)) on
    `low` and 1 - a on `high`, so the mixture covers exactly P.  x_j is the
    total weight of the covers that contain set j, and r_i the total weight
    of the covers that leave element i uncovered.  `profit_scale` is
    `common_scale` of the profits, computed here when not given.
    """
    covers = (low,) if high is None else (low, high)
    masks = [covered_element_mask(instance, cover) for cover in covers]
    weights = (ONE,)
    if high is not None:
        # cov(low) and cov(high) as ints over D, so a is
        # (cov_high - P D) / (cov_high - cov_low), with P = t / u.
        scale, profits = profit_scale or common_scale(instance.profits)
        cov_low, cov_high = (sum(map(profits.__getitem__, bit_indices(mask)))
                             for mask in masks)
        t, u = instance.target.numerator, instance.target.denominator
        a = Fraction(cov_high * u - t * scale, (cov_high - cov_low) * u)
        weights = (a, ONE - a)
    # Each x_j and r_i is the total weight of a subset of the covers: sum
    # each subset once, indexed by the bit pattern of the covers it holds.
    totals = [fraction_sum(w for k, w in enumerate(weights) if pattern >> k & 1)
              for pattern in range(1 << len(covers))]
    x_pattern = [0] * instance.m
    for k, cover in enumerate(covers):
        for j in cover.sets:
            x_pattern[j] |= 1 << k
    x = [totals[pattern] for pattern in x_pattern]
    # r_i is totals[0] unless some cover misses element i: each nonzero
    # pattern's elements are one mask, read off the missed-element masks.
    everything = (1 << instance.n) - 1
    missed = [everything & ~mask for mask in masks]
    r = [totals[0]] * instance.n
    for pattern in range(1, len(totals)):
        elements = everything
        for k, miss in enumerate(missed):
            elements &= miss if pattern >> k & 1 else ~miss
        for i in bit_indices(elements):
            r[i] = totals[pattern]
    # The value is one product per pattern: its weight times its sets' costs.
    pattern_costs = [[] for _ in totals]
    for c, pattern in zip(instance.costs, x_pattern):
        pattern_costs[pattern].append(c)
    value = fraction_sum(totals[pattern] * fraction_sum(costs)
                         for pattern, costs in enumerate(pattern_costs)
                         if pattern and costs)
    return FractionalSolution(tuple(x), tuple(r), value)


def is_primal_feasible(instance: Instance, x, r, *,
                       profit_scale: tuple[int, list[int]] | None = None) -> bool:
    """Whether (x, r) meets A x + r >= 1, p.r <= p(U) - P and x, r >= 0.

    x and r go over one common denominator D, so a row holds when its int
    sum, over the row's sets in `Instance.element_sets()`, reaches D.  The
    budget row compares p.r with (p(U) - P) D, the profits as ints over
    L_p (`profit_scale`, `common_scale` of the profits, computed here when
    not given) and both sides times the target's denominator u, so the
    target t / u joins as t L_p.
    """
    m = instance.m
    if len(x) != m or len(r) != instance.n:
        return False
    scale, ints = common_scale(chain(x, r))
    if min(ints, default=0) < 0:
        return False
    x, r = ints[:m], ints[m:]
    for ri, sets in zip(r, instance.element_sets()):
        if ri + sum(map(x.__getitem__, sets)) < scale:
            return False
    l_p, profits = profit_scale or common_scale(instance.profits)
    t, u = instance.target.numerator, instance.target.denominator
    return sum(map(mul, profits, r)) * u <= (sum(profits) * u - t * l_p) * scale


def dual_value(instance: Instance, y, lam) -> Fraction:
    """Objective of a (y, lam) pair: 1.y - (p(U) - P) lam."""
    budget = instance.total_profit() - instance.target
    return fraction_sum(filter(None, y)) - budget * lam


def is_dual_feasible(instance: Instance, y, lam, *,
                     profit_scale: tuple[int, list[int]] | None = None,
                     cost_scale: tuple[int, list[int]] | None = None) -> bool:
    """Whether (y, lam) meets A^T y <= c, y <= lam p and y, lam >= 0.

    Costs and y go over one common denominator, a multiple of the one of
    lam * p and of the costs' L_c, so each cap is one int per element and
    every clause an int comparison; each set's duals are summed over
    `Instance.set_elements()`.  `profit_scale` and `cost_scale` are
    `common_scale` of the profits and of the costs, computed here when not
    given.
    """
    l_p, profits = profit_scale or common_scale(instance.profits)
    l_c, costs = cost_scale or common_scale(instance.costs)
    unit = lam.denominator * l_p
    scale, y = common_scale(y, lcm(unit, l_c))
    if lam < 0 or min(y, default=0) < 0:
        return False
    factor = scale // l_c
    for c, members in zip(costs, instance.set_elements()):
        if sum(map(y.__getitem__, members)) > c * factor:
            return False
    cap_unit = lam.numerator * (scale // unit)
    return all(yi <= cap_unit * p for yi, p in zip(y, profits))
