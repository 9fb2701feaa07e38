"""Problem instances, covers, and permutations.

An instance is an n x m 0/1 element-set incidence matrix together with
nonnegative rational set costs, element profits, and a coverage target P.
All objects are immutable after construction; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import as_rational
from .errors import InputError

MatrixRows = tuple[tuple[int, ...], ...]


def _freeze_matrix(matrix: Sequence[Sequence[int]]) -> MatrixRows:
    return tuple(tuple(int(v) for v in row) for row in matrix)


def row_bitmasks(rows: MatrixRows) -> tuple[int, ...]:
    """Per-row bitmask over columns: bit j set iff a[i][j] == 1."""
    masks = []
    for row in rows:
        mask = 0
        for j, v in enumerate(row):
            if v:
                mask |= 1 << j
        masks.append(mask)
    return tuple(masks)


def col_bitmasks(rows: MatrixRows, m: int) -> tuple[int, ...]:
    """Per-column bitmask over rows: bit i set iff a[i][j] == 1."""
    masks = [0] * m
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                masks[j] |= 1 << i
    return tuple(masks)


def bit_indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Instance:
    """Immutable covering instance.

    Use `make_instance` for validated construction; the bare constructor
    trusts its arguments (used internally for permutations/reductions).
    """

    __slots__ = ("n", "m", "rows", "costs", "profits", "target",
                 "row_masks", "col_masks", "_gamma_free", "_element_sets")

    def __init__(self, rows: MatrixRows, costs: tuple[Fraction, ...],
                 profits: tuple[Fraction, ...], target: Fraction):
        self.rows = rows
        self.n = len(rows)
        self.m = len(costs)
        self.costs = costs
        self.profits = profits
        self.target = target
        self.row_masks = row_bitmasks(rows)
        self.col_masks = col_bitmasks(rows, self.m)
        self._gamma_free: bool | None = None
        self._element_sets: tuple[tuple[int, ...], ...] | None = None

    def element_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per element, the ascending indices of the sets containing it;
        built from `row_masks` on first use and then kept."""
        if self._element_sets is None:
            self._element_sets = tuple(map(bit_indices, self.row_masks))
        return self._element_sets

    def sets_of_element(self, i: int) -> tuple[int, ...]:
        return self.element_sets()[i]

    def elements_of_set(self, j: int) -> tuple[int, ...]:
        return bit_indices(self.col_masks[j])

    def total_profit(self) -> Fraction:
        return sum(self.profits, Fraction(0))

    def coverable_profit(self) -> Fraction:
        """Total profit of elements that belong to at least one set."""
        return sum((p for p, mask in zip(self.profits, self.row_masks) if mask),
                   Fraction(0))

    def profit_of_element_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        while mask:
            low = mask & -mask
            total += self.profits[low.bit_length() - 1]
            mask ^= low
        return total

    def max_cost(self) -> Fraction:
        return max(self.costs, default=Fraction(0))

    def _content(self):
        return (self.rows, self.costs, self.profits, self.target)

    def __eq__(self, other):
        return isinstance(other, Instance) and self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def __repr__(self):
        return f"Instance(n={self.n}, m={self.m}, target={self.target})"


def make_instance(matrix: Sequence[Sequence[int]],
                  costs: Sequence, profits: Sequence, target) -> Instance:
    """Validated construction; rejects any violated invariant.

    Errors name the offending index: dimension mismatch, non-binary matrix
    entry, negative cost or profit, and a target outside [0, total profit].
    """
    rows = _freeze_matrix(matrix)
    n = len(rows)
    m = len(rows[0]) if rows else len(costs)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise InputError(f"row {i} has {len(row)} entries, expected {m}")
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise InputError(f"non-binary entry {v} at row {i}, column {j}")
    if len(costs) != m:
        raise InputError(f"expected {m} costs, got {len(costs)}")
    if len(profits) != n:
        raise InputError(f"expected {n} profits, got {len(profits)}")
    cost_t = tuple(as_rational(c) for c in costs)
    profit_t = tuple(as_rational(p) for p in profits)
    for j, c in enumerate(cost_t):
        if c < 0:
            raise InputError(f"negative cost {c} at set {j}")
    for i, p in enumerate(profit_t):
        if p < 0:
            raise InputError(f"negative profit {p} at element {i}")
    target_r = as_rational(target)
    total = sum(profit_t, Fraction(0))
    if target_r < 0:
        raise InputError(f"negative target {target_r}")
    if target_r > total:
        raise InputError(f"infeasible target: {target_r} exceeds total profit {total}")
    return Instance(rows, cost_t, profit_t, target_r)


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


def covered_profit(instance: Instance, cover: Cover) -> Fraction:
    """Profit of elements covered by at least one set (counted once each)."""
    return instance.profit_of_element_mask(covered_element_mask(instance, cover))


def cover_cost(instance: Instance, cover: Cover) -> Fraction:
    _check_cover(instance, cover)
    return sum((instance.costs[j] for j in cover.sets), Fraction(0))


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


def permute_instance(instance: Instance, perm: PermutationPair) -> Instance:
    """Reorder rows and columns; costs and profits follow their indices."""
    rows = perm.apply_to_matrix(instance.rows)
    costs = [Fraction(0)] * instance.m
    profits = [Fraction(0)] * instance.n
    for j, c in enumerate(instance.costs):
        costs[perm.col_perm[j]] = c
    for i, p in enumerate(instance.profits):
        profits[perm.row_perm[i]] = p
    return Instance(rows, tuple(costs), tuple(profits), instance.target)


def sub_instance(instance: Instance, keep_rows: Sequence[int],
                 keep_cols: Sequence[int], target) -> Instance:
    """Row/column submatrix with a fresh target; indices keep their order."""
    rows = tuple(tuple(instance.rows[i][j] for j in keep_cols) for i in keep_rows)
    costs = tuple(instance.costs[j] for j in keep_cols)
    profits = tuple(instance.profits[i] for i in keep_rows)
    return Instance(rows, costs, profits, as_rational(target))


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

    def validate_against(self, rows: MatrixRows) -> None:
        n = len(rows)
        m = len(rows[0]) if rows else 0
        for q, part in enumerate(self.parts):
            if len(part) != n or any(len(r) != m for r in part):
                raise InputError(f"part {q} has wrong shape")
        for i in range(n):
            for j in range(m):
                total = sum(part[i][j] for part in self.parts)
                if total != rows[i][j]:
                    raise InputError(
                        f"parts sum to {total} != {rows[i][j]} at row {i}, column {j}")

    def restrict(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Decomposition":
        parts = tuple(tuple(tuple(part[i][j] for j in keep_cols) for i in keep_rows)
                      for part in self.parts)
        return Decomposition(self.rho, parts)
