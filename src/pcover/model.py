"""Problem instances, covers, and permutations.

An instance is an n x m 0/1 element-set incidence matrix together with
nonnegative rational set costs, element profits, and a coverage target P.
The matrix is stored once, as one bitmask per row with (n, m) carried
explicitly: `make_instance` (a matrix) and `checked_instance` (row masks,
as the parser builds them) are the boundaries, and permutations and
submatrices map masks in time linear in the number of ones.  All objects
are immutable after construction; every operation here is a pure function
of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import Iterable, Sequence

from .arith import as_rational, fraction_sum
from .errors import InputError

MatrixRows = tuple[tuple[int, ...], ...]


def row_bitmasks(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Per-row bitmask over columns: bit j of mask i set iff matrix[i][j] == 1.

    The one converter from a 0/1 matrix to masks; raises InputError on an
    entry other than 0 or 1.
    """
    masks = []
    for i, row in enumerate(matrix):
        mask = 0
        for j, v in enumerate(row):
            if v == 1:
                mask |= 1 << j
            elif v != 0:
                raise InputError(f"non-binary entry {v} at row {i}, column {j}")
        masks.append(mask)
    return tuple(masks)


def bit_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def transpose_masks(row_masks: Sequence[int], m: int) -> tuple[int, ...]:
    """Per-column bitmasks over rows (bit i of mask j set iff bit j of row
    mask i is), in time linear in the number of ones."""
    cols = [0] * m
    for i, mask in enumerate(row_masks):
        bit = 1 << i
        for j in bit_indices(mask):
            cols[j] |= bit
    return tuple(cols)


def _move_bits(mask: int, bits: Sequence[int]) -> int:
    """Union of `bits[j]` over the set bits j of `mask`; each bits[j] is 0
    or a bit no other j has, so the union is the sum."""
    return sum(map(bits.__getitem__, bit_indices(mask)))


def _scaled(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(L, values times L as ints), L the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


class Instance:
    """Immutable covering instance.

    The matrix is held once, as `row_masks` (bit j of mask i set iff
    element i belongs to set j); n = len(row_masks) and m = len(costs).
    `col_masks` is derived from it.  Use `make_instance` or
    `checked_instance` for validated construction; the bare constructor
    trusts its arguments (used internally for permutations/reductions).
    """

    __slots__ = ("n", "m", "row_masks", "col_masks", "costs", "profits",
                 "target", "_gamma_free", "_element_sets",
                 "_scaled_profits", "_scaled_costs")

    def __init__(self, row_masks: tuple[int, ...], costs: tuple[Fraction, ...],
                 profits: tuple[Fraction, ...], target: Fraction):
        self.row_masks = row_masks
        self.n = len(row_masks)
        self.m = len(costs)
        self.costs = costs
        self.profits = profits
        self.target = target
        self.col_masks = transpose_masks(row_masks, self.m)
        self._gamma_free: bool | None = None
        self._element_sets: tuple[tuple[int, ...], ...] | None = None
        self._scaled_profits: tuple[int, tuple[int, ...]] | None = None
        self._scaled_costs: tuple[int, tuple[int, ...]] | None = None

    def element_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the ascending indices of the sets containing it;
        built from `row_masks` on first use and then kept."""
        if self._element_sets is None:
            self._element_sets = tuple(map(bit_indices, self.row_masks))
        return self._element_sets

    def scaled_profits(self) -> tuple[int, tuple[int, ...]]:
        """(L_p, profits times L_p as ints), L_p the lcm of the profit
        denominators; built on first use and then kept."""
        if self._scaled_profits is None:
            self._scaled_profits = _scaled(self.profits)
        return self._scaled_profits

    def scaled_costs(self) -> tuple[int, tuple[int, ...]]:
        """(L_c, costs times L_c as ints), L_c the lcm of the cost
        denominators; built on first use and then kept."""
        if self._scaled_costs is None:
            self._scaled_costs = _scaled(self.costs)
        return self._scaled_costs

    def total_profit(self) -> Fraction:
        return fraction_sum(self.profits)

    def coverable_profit(self) -> Fraction:
        """Total profit of elements that belong to at least one set."""
        return fraction_sum(p for p, mask in zip(self.profits, self.row_masks)
                            if mask and p)

    def profit_of_element_mask(self, mask: int) -> Fraction:
        return fraction_sum(filter(None, map(self.profits.__getitem__,
                                             bit_indices(mask))))

    def max_cost(self) -> Fraction:
        return max(self.costs, default=Fraction(0))

    def _content(self):
        return (self.row_masks, self.costs, self.profits, self.target)

    def __eq__(self, other):
        return isinstance(other, Instance) and self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def __repr__(self):
        return f"Instance(n={self.n}, m={self.m}, target={self.target})"


def make_instance(matrix: Sequence[Sequence[int]],
                  costs: Sequence, profits: Sequence, target) -> Instance:
    """Validated construction from a 0/1 matrix; rejects any violated invariant.

    Errors name the offending index: dimension mismatch, non-binary matrix
    entry, negative cost or profit, and a target outside [0, total profit].
    """
    n = len(matrix)
    m = len(matrix[0]) if n else len(costs)
    for i, row in enumerate(matrix):
        if len(row) != m:
            raise InputError(f"row {i} has {len(row)} entries, expected {m}")
    row_masks = row_bitmasks(matrix)
    if len(costs) != m:
        raise InputError(f"expected {m} costs, got {len(costs)}")
    if len(profits) != n:
        raise InputError(f"expected {n} profits, got {len(profits)}")
    return checked_instance(row_masks, costs, profits, target)


def checked_instance(row_masks: Sequence[int], costs: Sequence,
                     profits: Sequence, target) -> Instance:
    """Validated construction from row bitmasks over len(costs) columns,
    one profit per mask: rejects a negative cost or profit and a target
    outside [0, total profit]."""
    cost_t = tuple(as_rational(c) for c in costs)
    profit_t = tuple(as_rational(p) for p in profits)
    for j, c in enumerate(cost_t):
        if c < 0:
            raise InputError(f"negative cost {c} at set {j}")
    for i, p in enumerate(profit_t):
        if p < 0:
            raise InputError(f"negative profit {p} at element {i}")
    target_r = as_rational(target)
    total = fraction_sum(profit_t)
    if target_r < 0:
        raise InputError(f"negative target {target_r}")
    if target_r > total:
        raise InputError(f"infeasible target: {target_r} exceeds total profit {total}")
    return Instance(tuple(row_masks), cost_t, profit_t, target_r)


@dataclass(frozen=True)
class Cover:
    """A subset of set indices, kept sorted for canonical identity."""

    sets: tuple[int, ...]

    @staticmethod
    def of(indices: Iterable[int]) -> "Cover":
        sets = tuple(sorted(indices))
        for a, b in zip(sets, sets[1:]):
            if a == b:
                raise InputError(f"duplicate set index {a} in cover")
        return Cover(sets)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.sets)

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


EMPTY_COVER = Cover(())


def _check_cover(instance: Instance, cover: Cover) -> None:
    for j in cover.sets:
        if not 0 <= j < instance.m:
            raise InputError(f"set index {j} out of range for m={instance.m}")


def covered_element_mask(instance: Instance, cover: Cover) -> int:
    _check_cover(instance, cover)
    mask = 0
    for j in cover.sets:
        mask |= instance.col_masks[j]
    return mask


class ScaledCoverage:
    """The kernel's covered profit: an int sum of scaled profits over an
    element mask.

    `values` are the profits over some common unit (`scaled_profits()`, or
    a multiple of it).  A mask of covered elements lies inside `coverable`,
    the elements some set contains, so the sum walks the smaller side: the
    mask's own bits, or the coverable bits it misses, subtracted from
    `total`, the sum over `coverable`.
    """

    __slots__ = ("values", "coverable", "total")

    def __init__(self, instance: Instance, values: Sequence[int]):
        self.values = values
        self.coverable = reduce(or_, instance.col_masks, 0)
        self.total = sum(map(values.__getitem__, bit_indices(self.coverable)))

    def __call__(self, mask: int) -> int:
        missed = self.coverable & ~mask
        if missed.bit_count() < mask.bit_count():
            return self.total - sum(map(self.values.__getitem__, bit_indices(missed)))
        return sum(map(self.values.__getitem__, bit_indices(mask)))


def covered_profit(instance: Instance, cover: Cover) -> Fraction:
    """Profit of elements covered by at least one set (counted once each)."""
    return instance.profit_of_element_mask(covered_element_mask(instance, cover))


def cover_cost(instance: Instance, cover: Cover) -> Fraction:
    _check_cover(instance, cover)
    return fraction_sum(map(instance.costs.__getitem__, cover.sets))


@dataclass(frozen=True)
class PermutationPair:
    """Row and column bijections, stored as original index -> new position."""

    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]

    def __post_init__(self):
        for name, perm in (("row", self.row_perm), ("col", self.col_perm)):
            if sorted(perm) != list(range(len(perm))):
                raise InputError(f"{name}_perm is not a bijection: {perm}")

    @staticmethod
    def identity(n: int, m: int) -> "PermutationPair":
        return PermutationPair(tuple(range(n)), tuple(range(m)))

    def inverse(self) -> "PermutationPair":
        def inv(perm):
            out = [0] * len(perm)
            for orig, new in enumerate(perm):
                out[new] = orig
            return tuple(out)
        return PermutationPair(inv(self.row_perm), inv(self.col_perm))

    def apply_to_matrix(self, rows: MatrixRows) -> MatrixRows:
        n, m = len(rows), len(rows[0]) if rows else 0
        out = [[0] * m for _ in range(n)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                out[self.row_perm[i]][self.col_perm[j]] = v
        return tuple(tuple(r) for r in out)

    def apply_to_masks(self, row_masks: Sequence[int]) -> tuple[int, ...]:
        """`apply_to_matrix` on row bitmasks, in time linear in the ones."""
        col_bits = [1 << k for k in self.col_perm]
        out = [0] * len(row_masks)
        for i, mask in enumerate(row_masks):
            out[self.row_perm[i]] = _move_bits(mask, col_bits)
        return tuple(out)


def permute_instance(instance: Instance, perm: PermutationPair) -> Instance:
    """Reorder rows and columns; costs and profits follow their indices."""
    back = perm.inverse()
    return Instance(perm.apply_to_masks(instance.row_masks),
                    tuple(instance.costs[j] for j in back.col_perm),
                    tuple(instance.profits[i] for i in back.row_perm),
                    instance.target)


def sub_instance(instance: Instance, keep_rows: Sequence[int],
                 keep_cols: Sequence[int], target) -> Instance:
    """Row/column submatrix with a fresh target; indices keep their order."""
    col_bits = [0] * instance.m
    for k, j in enumerate(keep_cols):
        col_bits[j] = 1 << k
    masks = tuple(_move_bits(instance.row_masks[i], col_bits) for i in keep_rows)
    costs = tuple(instance.costs[j] for j in keep_cols)
    profits = tuple(instance.profits[i] for i in keep_rows)
    return Instance(masks, costs, profits, as_rational(target))


@dataclass(frozen=True)
class Decomposition:
    """A split of an incidence matrix into rho parts with disjoint supports.

    The parts sum entrywise to the full matrix; row-induced mixtures of the
    parts are expected to be totally balanced (certified at oracle sizes by
    the test suite, by construction for the shipped reductions).
    """

    rho: int
    parts: tuple[MatrixRows, ...]

    def __post_init__(self):
        if self.rho != len(self.parts) or self.rho < 1:
            raise InputError(f"decomposition has {len(self.parts)} parts, rho={self.rho}")

    def validate_against(self, instance: Instance) -> None:
        """Check that the parts have the instance's shape and sum entrywise
        to its matrix, read off `row_masks`."""
        for q, part in enumerate(self.parts):
            if len(part) != instance.n or any(len(r) != instance.m for r in part):
                raise InputError(f"part {q} has wrong shape")
        for i, mask in enumerate(instance.row_masks):
            sums = map(sum, zip(*(part[i] for part in self.parts)))
            for j, total in enumerate(sums):
                if total != mask >> j & 1:
                    raise InputError(
                        f"parts sum to {total} != {mask >> j & 1} at row {i}, column {j}")

    def restrict(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Decomposition":
        parts = tuple(tuple(tuple(part[i][j] for j in keep_cols) for i in keep_rows)
                      for part in self.parts)
        return Decomposition(self.rho, parts)
