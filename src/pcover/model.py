"""Problem instances, covers, and permutations.

An instance is an n x m 0/1 element-set incidence matrix together with
nonnegative rational set costs, element profits, and a coverage target P.
The matrix is stored once, as one bitmask per row with (n, m) carried
explicitly: `make_instance` (a matrix) and `checked_instance` (row masks,
as the parser builds them) are the boundaries.  Beside the masks every
instance keeps one sparse index, built once: the ascending set indices of
each element (`element_sets()`), read off each row mask in the loop that
builds the column masks, and, on first use, the ascending element indices
of each set (`set_elements()`), built from the first with no bit walk.
Every O(nnz) walk over the fixed matrix reads the index; `bit_indices`
serves masks that change (covers, subtrees, coverage).  Permutations and
submatrices map the index and build the masks from it, in time linear in
the number of ones.  All objects are immutable after construction; every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
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


def _scaled(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(L, values times L as ints), L the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


class Instance:
    """Immutable covering instance.

    The matrix is held once, as `row_masks` (bit j of mask i set iff
    element i belongs to set j); n = len(row_masks) and m = len(costs).
    One walk of the row masks builds the element index, in which equal
    rows share one tuple, and `col_masks` from it.  Use `make_instance` or
    `checked_instance` for validated construction; the bare constructor
    trusts its arguments (used internally for reductions).
    """

    __slots__ = ("n", "m", "row_masks", "col_masks", "costs", "profits",
                 "target", "_gamma_free", "_element_sets", "_set_elements",
                 "_scaled_profits", "_scaled_costs")

    def __init__(self, row_masks: tuple[int, ...], costs: tuple[Fraction, ...],
                 profits: tuple[Fraction, ...], target: Fraction):
        self._build(row_masks, map(bit_indices, row_masks), costs, profits, target)

    @classmethod
    def _indexed(cls, row_masks, element_sets, costs, profits, target) -> "Instance":
        """An instance whose index is already known (a mapped one): its
        masks are not walked again."""
        instance = cls.__new__(cls)
        instance._build(row_masks, element_sets, costs, profits, target)
        return instance

    def _build(self, row_masks, element_sets, costs, profits, target) -> None:
        self.row_masks = row_masks
        self.n = len(row_masks)
        self.m = len(costs)
        self.costs = costs
        self.profits = profits
        self.target = target
        cols = [0] * self.m
        index = []
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal rows, one tuple
        for i, sets in enumerate(element_sets):
            bit = 1 << i
            for j in sets:
                cols[j] |= bit
            index.append(shared.setdefault(sets, sets))
        self.col_masks = tuple(cols)
        self._element_sets = tuple(index)
        self._set_elements: tuple[tuple[int, ...], ...] | None = None
        self._gamma_free: bool | None = None
        self._scaled_profits: tuple[int, tuple[int, ...]] | None = None
        self._scaled_costs: tuple[int, tuple[int, ...]] | None = None

    def element_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the ascending indices of the sets containing it."""
        return self._element_sets

    def set_elements(self) -> tuple[tuple[int, ...], ...]:
        """Per set, the ascending indices of its elements; built from
        `element_sets()` on first use and then kept."""
        if self._set_elements is None:
            members = [[] for _ in range(self.m)]
            for i, sets in enumerate(self._element_sets):
                for j in sets:
                    members[j].append(i)
            self._set_elements = tuple(map(tuple, members))
        return self._set_elements

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
        if c.numerator < 0:  # a Fraction's sign is its numerator's
            raise InputError(f"negative cost {c} at set {j}")
    for i, p in enumerate(profit_t):
        if p.numerator < 0:
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

    def mask(self) -> int:
        """The sets as a mask, bit j for set j."""
        return sum(1 << j for j in self.sets)

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
    the elements some set contains.  The elements are grouped by their
    value, one mask per distinct nonzero value, so the sum is one popcount
    per class: the sum of v * popcount(mask & class_v).  When there are
    more classes than bits on the smaller side of the mask, the sum walks
    that side instead: the mask's own bits, or the coverable bits it
    misses, subtracted from `total`, the sum over `coverable`.  That side
    holds at most half the coverable bits, so with more classes than that
    the classes are never built (`classes` is None) and every sum walks.
    """

    __slots__ = ("values", "coverable", "total", "classes")

    def __init__(self, instance: Instance, values: Sequence[int]):
        self.values = values
        self.coverable = reduce(or_, instance.col_masks, 0)
        self.total = sum(compress(values, instance.element_sets()))
        distinct = set(values) - {0}
        self.classes = None
        if len(distinct) <= self.coverable.bit_count() // 2:
            members: dict[int, list[int]] = {}
            for i, v in enumerate(values):
                if v:
                    members.setdefault(v, []).append(1 << i)
            self.classes = tuple((v, sum(bits)) for v, bits in members.items())

    def __call__(self, mask: int) -> int:
        missed = self.coverable & ~mask
        k_missed, k_mask = missed.bit_count(), mask.bit_count()
        if self.classes is not None and len(self.classes) <= min(k_missed, k_mask):
            return sum(v * (mask & cls).bit_count() for v, cls in self.classes)
        if k_missed < k_mask:
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


def permuted_index(instance: Instance, perm: PermutationPair):
    """(row masks, element index) of the instance's matrix reordered by
    `perm`.  The sets are read off `set_elements()` in their new order, so
    each row's set indices come out ascending with no sort."""
    order = [0] * instance.m  # new position -> original set
    for j, k in enumerate(perm.col_perm):
        order[k] = j
    row_perm, members = perm.row_perm, instance.set_elements()
    index: list[list[int]] = [[] for _ in range(instance.n)]
    for k, j in enumerate(order):
        for i in members[j]:
            index[row_perm[i]].append(k)
    bits = [1 << k for k in range(instance.m)]
    return (tuple(sum(map(bits.__getitem__, sets)) for sets in index),
            tuple(map(tuple, index)))


def permute_instance(instance: Instance, perm: PermutationPair) -> Instance:
    """Reorder rows and columns; costs and profits follow their indices.
    The matrix comes from `permuted_index`, with no mask walked."""
    back = perm.inverse()
    return Instance._indexed(*permuted_index(instance, perm),
                             tuple(instance.costs[j] for j in back.col_perm),
                             tuple(instance.profits[i] for i in back.row_perm),
                             instance.target)


def sub_instance(instance: Instance, keep_rows: Sequence[int],
                 keep_cols: Sequence[int], target) -> Instance:
    """Row/column submatrix with a fresh target; indices keep their order.

    The kept rows' index is mapped to the kept columns' positions, and the
    masks are built from it."""
    position: list[int | None] = [None] * instance.m
    for k, j in enumerate(keep_cols):
        position[j] = k
    element_sets = instance.element_sets()
    index = [tuple(sorted(k for k in map(position.__getitem__, element_sets[i])
                          if k is not None))
             for i in keep_rows]
    masks = tuple(sum(1 << k for k in sets) for sets in index)
    costs = tuple(instance.costs[j] for j in keep_cols)
    profits = tuple(instance.profits[i] for i in keep_rows)
    return Instance._indexed(masks, index, costs, profits, as_rational(target))


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
