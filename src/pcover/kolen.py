"""Primal-dual solver for prize-collecting cover on gamma-free matrices.

Kolen's algorithm: raise each element's dual variable in index order until
either a containing set runs out of residual cost or the variable hits its
penalty cap, then prune the tight sets in reverse index order, dropping
dominated sets.  On a matrix in greedy standard form the pruned cover is an
exact optimum of the prize-collecting problem, and `audit_optimality`
re-checks that certificate on every solve.

The multiplier is a DeltaRational lambda = a/b + delta * d, so runs at
formally perturbed multipliers (lambda - d, lambda + d) use the same code.
The run itself is on packed Python ints: every value part is scaled by
L = L_c * L_p * b (L_c, L_p the lcms of the cost and profit denominators),
every delta part by L_p times the denominator of delta, and the pair is
stored as one int ``V * K + E`` with K = 2H + 1 and |E| <= H.  Integer
order is then the lexicographic order of DeltaRational, and a subtraction
is one int operation.

The bound H: the delta part of y_i is delta times a one-sided slope of
y_i(lambda).  Kolen's run on the first i rows (a gamma-free matrix too)
gives y_0..y_i, and their sum is that prefix's prize-collecting optimum, a
concave function whose slopes lie in [0, sum of profits].  So every delta
part of y_i is at most |delta| * p(U) in absolute value, and a residual,
a cost minus at most n duals, at most n times that.

A run may also resume from a `LinePrefix`: the first elements' duals and
every set's residual after them, each a line in lambda that the caller
knows to hold on an open interval.  At a multiplier inside that interval,
or formally perturbed from a point inside it, each line's packed value is
A * (cost unit) + B * (cap unit), two products.  A line that is
nonnegative on the interval and zero at a point inside it is zero
throughout, so the prefix's positive-dual mask (its nonzero dual lines)
and its tight sets (its zero residual lines) are the same at every such
multiplier.  The resumed run therefore evaluates only the residuals of
the sets that meet the suffix and runs the update from the first element
after the prefix; its tight cover is the prefix's tight sets outside the
suffix and the suffix sets whose residual ends at zero, with no scan over
the other residuals.  The prefix's duals and the residuals of the other
sets are evaluated only when the run is decoded.  The resumed run's
covers and decoded duals are those of the run from element 0.

`kolen` is the one way into the run.  It keeps the run packed: its pruned
and tight covers, the mask of its elements of positive dual (which the
prune needs, and the merger graph reads) and the mask of the elements its
pruned cover covers (which the prune builds, and the threshold search
reads) are computed eagerly, and `KolenResult.dual` decodes the
DualSolution only when it is read.  The decode unpacks each distinct
packed value once, so the runs a search keeps, whose duals take a handful
of distinct values, build a handful of DeltaRationals; they are
immutable, so sharing them is safe.
`audit_optimality` is the checker, kept independent of this kernel:
it reads the decoded DeltaRationals, the instance's Fractions and its
sparse index (the input, not kernel state), never the packed ints or the
scaled profits, and puts their value and delta parts over common
denominators of its own with `arith.common_scale`, so its clauses are
int sums and int comparisons.  The kernel never calls
`common_scale` or `fraction_sum`, so a fault in them cannot hide a fault
of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .arith import DeltaRational, common_scale, fraction_sum
from .errors import InputError
from .model import Cover, Instance, covered_element_mask
from .tb import is_gamma_free

_ZERO = Fraction(0)


@dataclass(frozen=True)
class DualSolution:
    """Element duals y, multiplier, and per-set residual costs."""

    y: tuple[DeltaRational, ...]
    lam: DeltaRational
    residuals: tuple[DeltaRational, ...]


@dataclass(frozen=True)
class LinePrefix:
    """Kolen's run on elements 0..len(y)-1, as lines in lambda.

    `y` holds those elements' duals and `residuals` every set's residual
    after them, each a pair (A, B) of ints standing for A / L_c + lambda *
    B / L_p, in the units of `Instance.scaled_costs()` and
    `scaled_profits()`.  `positive` is the mask of the elements whose line
    is not zero, `suffix_sets` the ascending indices of the sets that meet
    an element from len(y) on, and `outside_tight` the indices, in any
    order, of the other sets whose residual line is (0, 0).  The caller
    vouches that the lines are the run's own on an open interval of
    lambda, and passes multipliers whose value part lies inside it.  A
    resumed run evaluates only the `suffix_sets` lines and keeps no
    prefix duals; the other lines are read only when the run is decoded.
    """

    y: tuple[tuple[int, int], ...]
    residuals: tuple[tuple[int, int], ...]
    positive: int
    suffix_sets: tuple[int, ...]
    outside_tight: tuple[int, ...]


@dataclass(frozen=True)
class _PackedDual:
    """A dual solution as packed ints ``V * base + E``, |E| <= base // 2.

    Without a prefix, `y` and `residuals` hold every element's dual and
    every set's residual.  After a `prefix`, `y` holds only the duals from
    element len(prefix.y) on and `residuals` only the residuals of the
    prefix's `suffix_sets` (None elsewhere); the other values are the
    prefix's lines at the run's units, A * cost_unit + B * cap_unit, and
    `decode` evaluates them.  `decode` unpacks each distinct packed value
    once and builds its DeltaRational from the two Fractions it makes,
    with no re-coercion, sharing one zero Fraction among the zero delta
    parts.
    """

    lam: DeltaRational
    y: list[int]
    residuals: list[int | None]
    value_scale: int
    delta_scale: int
    base: int
    prefix: LinePrefix | None
    cost_unit: int
    cap_unit: int

    def decode(self) -> DualSolution:
        y, residuals = self.y, self.residuals
        if self.prefix is not None:
            cost_unit, cap_unit = self.cost_unit, self.cap_unit
            y = [u * cost_unit + v * cap_unit for u, v in self.prefix.y] + y
            residuals = [u * cost_unit + v * cap_unit if r is None else r
                         for r, (u, v) in zip(residuals, self.prefix.residuals)]
        half, base = self.base // 2, self.base
        value_scale, delta_scale = self.value_scale, self.delta_scale
        exact = DeltaRational.of_fractions

        def unpack(x: int) -> DeltaRational:
            v = (x + half) // base
            e = x - v * base
            return exact(Fraction(v, value_scale),
                         Fraction(e, delta_scale) if e else _ZERO)

        table = {x: unpack(x) for x in set(y).union(residuals)}
        return DualSolution(tuple(map(table.__getitem__, y)), self.lam,
                            tuple(map(table.__getitem__, residuals)))


class KolenResult:
    """Pruned and tight covers of one run, its dual solution, the mask of
    its elements of positive dual, and the mask of the elements the
    pruned cover covers.

    `dual` is a DualSolution, or a packed run that is decoded into one the
    first time `dual` is read.  `positive` has bit i set when y_i > 0; the
    merger graph reads it, so it needs no decoded dual.  `covered` is the
    union of the pruned sets' column masks, which the prune builds as it
    keeps them; the threshold search's coverage reads it.
    """

    __slots__ = ("pruned", "tight", "_dual", "positive", "covered")

    def __init__(self, pruned: Cover, tight: Cover, dual, positive: int,
                 covered: int):
        self.pruned = pruned
        self.tight = tight
        self._dual = dual
        self.positive = positive
        self.covered = covered

    @property
    def dual(self) -> DualSolution:
        if not isinstance(self._dual, DualSolution):
            self._dual = self._dual.decode()
        return self._dual

    def __repr__(self):
        return f"KolenResult(pruned={self.pruned}, tight={self.tight})"


def _require_sgf(instance: Instance) -> None:
    if instance._gamma_free is None:
        instance._gamma_free = is_gamma_free(instance)
    if not instance._gamma_free:
        raise InputError("matrix is not in greedy standard form")


def _multiplier(instance: Instance, lam) -> DeltaRational:
    _require_sgf(instance)
    lam = DeltaRational.of(lam)
    if not lam.is_nonnegative():
        raise InputError(f"negative multiplier {lam}")
    return lam


def _packed_dual_update(instance: Instance, lam: DeltaRational,
                        prefix: LinePrefix | None = None) -> _PackedDual:
    """Raise duals in element index order on packed ints, from element 0
    or from the first element after `prefix`.

    An element contained in no set gets the full penalty cap lambda * p_i.
    Residuals never go negative, so an element in a set whose residual is
    zero gets a zero dual: a mask of those tight sets settles it with one
    AND, and only the other elements compare their sets' residuals.  After
    a prefix, only the sets that meet the suffix get a packed residual:
    no other set is read by the update.
    """
    a, b = lam.value.numerator, lam.value.denominator
    d_num, d_den = lam.delta.numerator, lam.delta.denominator
    l_c, costs = instance.scaled_costs()
    l_p, profits = instance.scaled_profits()
    base = 2 * abs(d_num) * sum(profits) * max(instance.n, 1) + 1
    cap_unit = a * l_c * base + d_num  # lambda * p_i packs as cap_unit * P_i
    cost_unit = l_p * b * base
    element_sets, row_masks = instance.element_sets(), instance.row_masks
    y = []
    tight = 0
    if prefix is None:
        residuals = [c * cost_unit for c in costs]
        for j, r in enumerate(residuals):
            if not r:
                tight |= 1 << j
    else:
        residuals = [None] * instance.m
        lines = prefix.residuals
        for j in prefix.suffix_sets:
            u, v = lines[j]
            r = residuals[j] = u * cost_unit + v * cap_unit
            if not r:
                tight |= 1 << j
        start = len(prefix.y)
        element_sets, row_masks = element_sets[start:], row_masks[start:]
        profits = profits[start:]
    for sets, p, row in zip(element_sets, profits, row_masks):
        if row & tight:
            y.append(0)
            continue
        yi = cap_unit * p
        for j in sets:
            if residuals[j] < yi:
                yi = residuals[j]
        y.append(yi)
        if yi:
            for j in sets:
                residuals[j] -= yi
                if not residuals[j]:
                    tight |= 1 << j
    return _PackedDual(lam, y, residuals, l_c * l_p * b, l_p * d_den, base,
                       prefix, cost_unit, cap_unit)


def _prune(instance: Instance, tight, pos_mask: int) -> tuple[Cover, int]:
    """Reverse delete: scanning tight sets by descending index, keep a set
    unless a kept one shares an element of positive dual with it.  Returns
    the kept cover and the union of its column masks."""
    col_masks = instance.col_masks
    kept = []
    union = blocked = 0  # blocked: the elements of positive dual in the union
    for j in reversed(tight):
        mask = col_masks[j]
        if not blocked & mask:
            kept.append(j)
            union |= mask
            blocked |= mask & pos_mask
    return Cover(tuple(reversed(kept))), union


def kolen(instance: Instance, lam, prefix: LinePrefix | None = None) -> KolenResult:
    """One run: covers and positive-dual mask computed now, the dual
    decoded when first read.

    With a `prefix`, the run resumes after it (see `LinePrefix`): a set
    outside the suffix is tight when its residual line is (0, 0), so only
    the suffix sets' residuals are scanned for zeros."""
    packed = _packed_dual_update(instance, _multiplier(instance, lam), prefix)
    residuals = packed.residuals
    if prefix is None:
        start, pos_mask = 0, 0
        tight = tuple(j for j, r in enumerate(residuals) if not r)
    else:
        start, pos_mask = len(prefix.y), prefix.positive
        tight = tuple(sorted([*prefix.outside_tight,
                              *(j for j in prefix.suffix_sets if not residuals[j])]))
    for i, yi in enumerate(packed.y, start):
        if yi > 0:
            pos_mask |= 1 << i
    pruned, covered = _prune(instance, tight, pos_mask)
    return KolenResult(pruned, Cover(tight), packed, pos_mask, covered)


@dataclass(frozen=True)
class OptimalityAudit:
    ok: bool
    failed_clause: str | None = None
    detail: str = ""


def _exact(value: int, scale: int, delta: int, delta_scale: int) -> DeltaRational:
    """The DeltaRational of a value part over `scale` and a delta part over
    `delta_scale`, built only to word a failed clause."""
    return DeltaRational.of_fractions(Fraction(value, scale), Fraction(delta, delta_scale))


def audit_optimality(instance: Instance, lam, result: KolenResult, *,
                     profit_scale: tuple[int, list[int]] | None = None,
                     cost_scale: tuple[int, list[int]] | None = None) -> OptimalityAudit:
    """Exact re-verification of the prize-collecting optimality certificate.

    Clauses, checked in order, first failure reported:
      (a) cost of the pruned cover plus penalties of uncovered elements
          equals the sum of all duals;
      (b) every element with positive dual lies in at most one pruned set;
      (c) every element the pruned cover misses has its dual at the cap;
      (d) dual feasibility: 0 <= y_i <= lambda p_i and residuals >= 0,
          with stored residuals matching recomputation.

    The check reads only the decoded DeltaRationals and the instance's
    Fractions, and puts them over denominators it computes itself with
    `arith.common_scale`: the value parts (costs, dual and residual values,
    caps) over one, the delta parts over another.  Each cap lambda * p_i is
    then one int per element, and every clause is decided by int sums and
    int comparisons; a Fraction is built only to word a failure.  Nothing
    here touches the packed ints or the scaled profits of the kernel it
    checks.  `profit_scale` and `cost_scale` are `common_scale` of the
    instance's profits and of its costs, which a caller that checks several
    runs computes once; they are computed here when not given.  Clause (d)
    sums each set's duals over `Instance.set_elements()`, the input's index.
    """
    lam = DeltaRational.of(lam)
    dual = result.dual
    n = instance.n
    covered = covered_element_mask(instance, result.pruned)
    uncovered = [i for i in range(n) if not covered >> i & 1]

    l_p, profits = profit_scale or common_scale(instance.profits)
    l_c, costs = cost_scale or common_scale(instance.costs)
    unit = lam.value.denominator * l_p
    scale, ints = common_scale(chain((yi.value for yi in dual.y),
                                     (r.value for r in dual.residuals)), lcm(unit, l_c))
    factor = scale // l_c
    costs = [c * factor for c in costs]
    y_value, r_value = ints[:n], ints[n:]
    cap_unit = lam.value.numerator * (scale // unit)
    cap_value = [cap_unit * p for p in profits]
    unit = lam.delta.denominator * l_p
    delta_scale, ints = common_scale(chain((yi.delta for yi in dual.y),
                                           (r.delta for r in dual.residuals)), unit)
    y_delta, r_delta = ints[:n], ints[n:]
    cap_unit = lam.delta.numerator * (delta_scale // unit)
    cap_delta = [cap_unit * p for p in profits]

    lhs = (sum(map(costs.__getitem__, result.pruned.sets))
           + sum(map(cap_value.__getitem__, uncovered)),
           sum(map(cap_delta.__getitem__, uncovered)))
    rhs = (sum(y_value), sum(y_delta))
    if lhs != rhs:
        return OptimalityAudit(False, "a",
                               f"cost+penalty {_exact(lhs[0], scale, lhs[1], delta_scale)} "
                               f"!= dual total {_exact(rhs[0], scale, rhs[1], delta_scale)}")

    pruned_mask = 0
    for j in result.pruned.sets:
        pruned_mask |= 1 << j
    for i, part in enumerate(zip(y_value, y_delta)):
        if part > (0, 0):
            hits = (instance.row_masks[i] & pruned_mask).bit_count()
            if hits > 1:
                return OptimalityAudit(False, "b",
                                       f"element {i} with positive dual covered {hits} times")

    for i in uncovered:
        if y_value[i] != cap_value[i] or y_delta[i] != cap_delta[i]:
            cap = _exact(cap_value[i], scale, cap_delta[i], delta_scale)
            return OptimalityAudit(False, "c",
                                   f"uncovered element {i} has dual {dual.y[i]} "
                                   f"below cap {cap}")

    for j, members in enumerate(instance.set_elements()):
        fresh = (costs[j] - sum(map(y_value.__getitem__, members)),
                 -sum(map(y_delta.__getitem__, members)))
        if (r_value[j], r_delta[j]) != fresh:
            return OptimalityAudit(False, "d", f"residual mismatch at set {j}")
        if fresh < (0, 0):
            return OptimalityAudit(False, "d", f"negative residual at set {j}")
    for i, part in enumerate(zip(y_value, y_delta)):
        if part < (0, 0):
            return OptimalityAudit(False, "d", f"negative dual at element {i}")
        if part > (cap_value[i], cap_delta[i]):
            return OptimalityAudit(False, "d", f"dual above cap at element {i}")

    return OptimalityAudit(True)


def prize_collecting_value(instance: Instance, lam, result: KolenResult) -> DeltaRational:
    """cost(pruned) + lambda * (uncovered profit), as a DeltaRational."""
    lam = DeltaRational.of(lam)
    covered = covered_element_mask(instance, result.pruned)
    uncovered = fraction_sum(p for i, p in enumerate(instance.profits)
                             if p and not covered >> i & 1)
    return lam * uncovered + fraction_sum(map(instance.costs.__getitem__,
                                              result.pruned.sets))
