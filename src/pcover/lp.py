"""Exact rational linear programming for the partial-cover relaxation.

A dense two-phase simplex over `fractions.Fraction` with Bland's pivot
rule (guaranteed termination, no tolerances).  Desk-scale only: the
tableau is a plain list of lists and every pivot touches all of it.

`solve_lp` solves

    min c.x   s.t.  A x + r >= 1,  p.r <= p(U) - P,  x, r >= 0

and `solve_dual` its dual

    max 1.y - (p(U) - P) lam   s.t.  A^T y <= c,  y <= lam p,  y, lam >= 0.

The simplex serves the rho-separable reduction (its input is not totally
balanced), `pcover verify lp-duality` and the tests.  The totally balanced
solve certifies the LP optimum with the predicates below instead.  They
and `mixed_cover_point` add with `arith.fraction_sum` (one Fraction per
sum, zero terms dropped); `tests/lp_reference.py` keeps the plain-sum
versions that referee them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .arith import fraction_sum
from .errors import InfeasibleError, InternalInvariantError
from .model import Cover, Instance, bit_indices, covered_element_mask

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPOutcome:
    x: tuple[Fraction, ...]
    value: Fraction


def solve_linear_program(costs, constraints) -> LPOutcome:
    """Minimize costs.x subject to rows (coeffs, rel, rhs), x >= 0.

    rel is one of '<=', '>=', '=='.  Raises InfeasibleError when no
    feasible point exists and InternalInvariantError on an unbounded
    objective (impossible for the programs built in this package).
    """
    num_x = len(costs)
    rows = []
    rels = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != num_x:
            raise InternalInvariantError("constraint arity mismatch")
        if rel not in ("<=", ">=", "=="):
            raise InternalInvariantError(f"bad relation {rel!r}")
        rows.append([Fraction(v) for v in coeffs] + [Fraction(rhs)])
        rels.append(rel)

    # Append one slack per inequality.
    num_slack = sum(1 for rel in rels if rel != "==")
    total = num_x + num_slack
    slack_at = {}
    k = 0
    for r, rel in enumerate(rels):
        body = rows[r][:-1] + [ZERO] * num_slack + [rows[r][-1]]
        if rel != "==":
            body[num_x + k] = ONE if rel == "<=" else -ONE
            slack_at[r] = num_x + k
            k += 1
        rows[r] = body

    # Make every right-hand side nonnegative.
    for r in range(len(rows)):
        if rows[r][-1] < 0:
            rows[r] = [-v for v in rows[r]]

    # One artificial per row; phase 1 minimizes their sum.
    m = len(rows)
    art_start = total
    for r in range(m):
        rows[r] = rows[r][:-1] + [ONE if i == r else ZERO for i in range(m)] + [rows[r][-1]]
    width = total + m
    basis = [art_start + r for r in range(m)]

    phase1_cost = [ZERO] * total + [ONE] * m
    _simplex(rows, basis, phase1_cost, width)
    art_sum = sum((rows[r][-1] for r in range(m) if basis[r] >= art_start), ZERO)
    if art_sum != 0:
        raise InfeasibleError("linear program is infeasible")

    # Drive leftover artificial basics out, dropping redundant rows.
    r = 0
    while r < len(rows):
        if basis[r] >= art_start:
            pivot_col = next((j for j in range(total) if rows[r][j] != 0), None)
            if pivot_col is None:
                del rows[r], basis[r]
                continue
            _pivot(rows, basis, r, pivot_col)
        r += 1

    # Remove artificial columns and run phase 2 on the real objective.
    rows = [row[:total] + [row[-1]] for row in rows]
    phase2_cost = [Fraction(c) for c in costs] + [ZERO] * num_slack
    _simplex(rows, basis, phase2_cost, total)

    x = [ZERO] * total
    for r, b in enumerate(basis):
        x[b] = rows[r][-1]
    solution = tuple(x[:num_x])
    value = sum((c * v for c, v in zip(costs, solution)), ZERO)
    return LPOutcome(solution, value)


def _pivot(rows, basis, r, c):
    pivot = rows[r][c]
    rows[r] = [v / pivot for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            factor = rows[i][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
    basis[r] = c


def _simplex(rows, basis, cost, width):
    """Minimize with Bland's rule on an m x width tableau (rhs appended)."""
    while True:
        reduced = list(cost[:width])
        for r, b in enumerate(basis):
            cb = cost[b]
            if cb != 0:
                row = rows[r]
                for j in range(width):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            return
        leaving = None
        best = None
        for r in range(len(rows)):
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
    """Primal relaxation optimum: set variables x, slack variables r."""

    x: tuple[Fraction, ...]
    r: tuple[Fraction, ...]
    value: Fraction


@dataclass(frozen=True)
class DualFractional:
    """Dual optimum: element values y, multiplier lam."""

    y: tuple[Fraction, ...]
    lam: Fraction
    value: Fraction


def solve_lp(instance: Instance) -> FractionalSolution:
    """Optimal basic solution of the primal relaxation, exactly."""
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
    solution = FractionalSolution(tuple(out.x[:m]), tuple(out.x[m:]), out.value)
    if not is_primal_feasible(instance, solution.x, solution.r):
        raise InternalInvariantError("primal LP solution is infeasible")
    return solution


def solve_dual(instance: Instance) -> DualFractional:
    """Optimal dual by exact simplex on the dual program itself."""
    n, m = instance.n, instance.m
    # Variables: y_0..y_{n-1}, lam.  Maximize 1.y - (p(U)-P) lam.
    budget = instance.total_profit() - instance.target
    costs = [-ONE] * n + [budget]
    constraints = []
    for j in range(m):
        coeffs = [ONE if instance.col_masks[j] >> i & 1 else ZERO for i in range(n)] + [ZERO]
        constraints.append((coeffs, "<=", instance.costs[j]))
    for i in range(n):
        coeffs = [ONE if k == i else ZERO for k in range(n)] + [-instance.profits[i]]
        constraints.append((coeffs, "<=", ZERO))
    out = solve_linear_program(costs, constraints)
    y = out.x[:n]
    lam = out.x[n]
    solution = DualFractional(tuple(y), lam, -out.value)
    if not is_dual_feasible(instance, solution.y, solution.lam):
        raise InternalInvariantError("dual LP solution is infeasible")
    return solution


def mixed_cover_point(instance: Instance, low: Cover,
                      high: Cover | None = None) -> FractionalSolution:
    """The relaxation point of one cover, or of two covers mixed to cover P.

    Two covers get weight a = (cov(high) - P) / (cov(high) - cov(low)) on
    `low` and 1 - a on `high`, so the mixture covers exactly P.  x_j is the
    total weight of the covers that contain set j, and r_i the total weight
    of the covers that leave element i uncovered.
    """
    covers = (low,) if high is None else (low, high)
    masks = [covered_element_mask(instance, cover) for cover in covers]
    weights = (ONE,)
    if high is not None:
        cov_low, cov_high = map(instance.profit_of_element_mask, masks)
        a = (cov_high - instance.target) / (cov_high - cov_low)
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
    r = [totals[sum(1 << k for k, mask in enumerate(masks) if not mask >> i & 1)]
         for i in range(instance.n)]
    value = fraction_sum(c * v for c, v in zip(instance.costs, x) if v)
    return FractionalSolution(tuple(x), tuple(r), value)


def is_primal_feasible(instance: Instance, x, r) -> bool:
    """Whether (x, r) meets A x + r >= 1, p.r <= p(U) - P and x, r >= 0."""
    if len(x) != instance.m or len(r) != instance.n:
        return False
    if any(v < 0 for v in x) or any(v < 0 for v in r):
        return False
    for ri, mask in zip(r, instance.row_masks):
        if fraction_sum(filter(None, chain((ri,), map(x.__getitem__,
                                                      bit_indices(mask))))) < 1:
            return False
    budget = instance.total_profit() - instance.target
    return fraction_sum(p * v for p, v in zip(instance.profits, r) if v) <= budget


def dual_value(instance: Instance, y, lam) -> Fraction:
    """Objective of a (y, lam) pair: 1.y - (p(U) - P) lam."""
    budget = instance.total_profit() - instance.target
    return fraction_sum(filter(None, y)) - budget * lam


def is_dual_feasible(instance: Instance, y, lam) -> bool:
    """Whether (y, lam) meets A^T y <= c, y <= lam p and y, lam >= 0."""
    if any(v < 0 for v in y) or lam < 0:
        return False
    for c, mask in zip(instance.costs, instance.col_masks):
        if fraction_sum(filter(None, map(y.__getitem__, bit_indices(mask)))) > c:
            return False
    return all(y[i] <= lam * instance.profits[i] for i in range(instance.n))
