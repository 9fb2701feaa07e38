"""Totally balanced matrices and their greedy standard form.

A 0/1 matrix is totally balanced when it has no square submatrix of order
at least 3 whose row and column sums are all 2 and whose columns are
pairwise distinct.  Such matrices, and only such matrices, can be reordered
so that no ordered pair of rows i1 < i2 and columns j1 < j2 induces the
2x2 pattern

    1 1
    1 0

An ordering with this property is called greedy standard form here, and a
matrix already free of the pattern is called gamma-free.

The reorder rests on one theorem: a matrix is totally balanced if and only
if its doubly lexical ordering is gamma-free (Hoffman, Kolen & Sakarovitch,
"Totally-balanced and greedy matrices", 1985; Lubiw, "Doubly lexical
orderings of matrices", 1987).  Here an ordering is doubly lexical when
the rows, read as integers whose bit k is the entry in column position k,
ascend, and so do the columns read the same way over row positions.  So
the orientation is fixed: the last position is the most significant bit
and both orders ascend.

`doubly_lexical_order` reaches such an ordering by stable-sorting the rows,
then the columns, until neither order changes.  The loop ends because
every sort that moves a line strictly raises

    Phi = sum of a[p][k] * 2**(p + k)

over row positions p and column positions k.  Phi is the sum over row
positions p of 2**p times the key of the row there, so swapping adjacent
rows whose keys descend raises Phi by 2**p times the key difference; a
stable sort reaches its order by such swaps alone.  Columns are symmetric.
Phi takes finitely many values.

`standard_greedy_form` keeps an already gamma-free matrix in its own
order, and otherwise certifies the doubly lexical ordering with
`gamma_witness`.  By the theorem, a pattern that survives is a definite
"not totally balanced", and it is reported as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import check_guard
from .model import (MatrixRows, PermutationPair, _freeze_matrix, bit_indices,
                    col_bitmasks, row_bitmasks)

TB_CHECK_LIMIT = 12


@dataclass(frozen=True)
class GammaWitness:
    """Rows (i1, i2) and columns (j1, j2) inducing the forbidden 2x2 pattern.

    a[i1][j1] = a[i1][j2] = a[i2][j1] = 1 and a[i2][j2] = 0.  As returned
    by `gamma_witness` both pairs are increasing positions of the matrix
    searched; `SgfResult.witness` maps them back to original indices.
    """

    rows: tuple[int, int]
    cols: tuple[int, int]

    def __str__(self) -> str:
        return f"rows {list(self.rows)}, columns {list(self.cols)}"


def gamma_witness(matrix) -> GammaWitness | None:
    """First (lexicographically smallest) occurrence of the pattern, if any."""
    return _gamma_witness(row_bitmasks(_freeze_matrix(matrix)))


def _gamma_witness(masks) -> GammaWitness | None:
    """`gamma_witness` over the row bitmasks of the matrix."""
    n = len(masks)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            common = masks[i1] & masks[i2]
            only_upper = masks[i1] & ~masks[i2]
            if not common or not only_upper:
                continue
            j1 = (common & -common).bit_length() - 1
            rest = only_upper >> (j1 + 1)
            if rest:
                j2 = j1 + 1 + (rest & -rest).bit_length() - 1
                return GammaWitness((i1, i2), (j1, j2))
    return None


def is_gamma_free(matrix) -> bool:
    return gamma_witness(matrix) is None


def is_totally_balanced(matrix, limit: int = TB_CHECK_LIMIT) -> bool:
    """Definitional check by direct submatrix search.

    Searches all square submatrices of order >= 3 for one with every row
    and column sum equal to 2 and pairwise distinct columns.  Exponential;
    guarded to dimensions <= `limit` and meant as a desk-scale oracle.
    """
    rows = _freeze_matrix(matrix)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    check_guard(n <= limit and m <= limit,
                f"totally-balanced check limited to {limit}x{limit}, got {n}x{m}")
    row_masks = row_bitmasks(rows)
    col_masks = col_bitmasks(rows, m)
    for k in range(3, min(n, m) + 1):
        for row_subset in combinations(range(n), k):
            rmask = 0
            for i in row_subset:
                rmask |= 1 << i
            candidate_cols = [j for j in range(m)
                              if bin(col_masks[j] & rmask).count("1") == 2]
            if len(candidate_cols) < k:
                continue
            for col_subset in combinations(candidate_cols, k):
                cmask = 0
                for j in col_subset:
                    cmask |= 1 << j
                if any(bin(row_masks[i] & cmask).count("1") != 2 for i in row_subset):
                    continue
                supports = {col_masks[j] & rmask for j in col_subset}
                if len(supports) == k:
                    return False
    return True


@dataclass(frozen=True)
class SgfResult:
    """Outcome of the greedy-standard-form search.

    On success `perm` maps original to permuted indices and `matrix` is the
    permuted (gamma-free) matrix.  On failure `witness` is a forbidden
    pattern that survived the doubly lexical ordering, in original row and
    column indices; it proves that the matrix is not totally balanced.
    """

    ok: bool
    perm: PermutationPair | None = None
    matrix: MatrixRows | None = None
    mode: str = ""
    witness: GammaWitness | None = None


def _sorted_by_bits(order: list[int], support, other_order: list[int]) -> list[int]:
    """Stable ascending sort of `order`, each line keyed by the integer whose
    bit k is its entry at position k of `other_order`."""
    pos = [0] * len(other_order)
    for k, x in enumerate(other_order):
        pos[x] = k
    key = [0] * len(support)
    for x in order:
        key[x] = sum(1 << pos[y] for y in support[x])
    return sorted(order, key=key.__getitem__)


def doubly_lexical_order(matrix) -> tuple[list[int], list[int]]:
    """Row and column orders (new position -> original index) under which
    both rows and columns ascend; see the module docstring for why the
    alternating sorts terminate."""
    rows = _freeze_matrix(matrix)
    m = len(rows[0]) if rows else 0
    return _doubly_lexical_order(row_bitmasks(rows), col_bitmasks(rows, m))


def _doubly_lexical_order(row_masks, col_masks) -> tuple[list[int], list[int]]:
    """`doubly_lexical_order` over the row and column bitmasks."""
    cols_of = [bit_indices(mask) for mask in row_masks]
    rows_of = [bit_indices(mask) for mask in col_masks]
    row_order, col_order = list(range(len(row_masks))), list(range(len(col_masks)))
    while True:
        row_order = _sorted_by_bits(row_order, cols_of, col_order)
        new_cols = _sorted_by_bits(col_order, rows_of, row_order)
        if new_cols == col_order:  # rows were sorted against these columns
            return row_order, col_order
        col_order = new_cols


def _perm_from_orders(row_order, col_order) -> PermutationPair:
    n, m = len(row_order), len(col_order)
    row_perm = [0] * n
    col_perm = [0] * m
    for pos, i in enumerate(row_order):
        row_perm[i] = pos
    for pos, j in enumerate(col_order):
        col_perm[j] = pos
    return PermutationPair(tuple(row_perm), tuple(col_perm))


def standard_greedy_form(matrix) -> SgfResult:
    """Reorder into greedy standard form, or prove that none exists.

    Deterministic: a gamma-free matrix keeps the identity ordering;
    otherwise the doubly lexical ordering is certified with
    `gamma_witness`, and a surviving pattern is returned as the witness.
    """
    rows = _freeze_matrix(matrix)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    row_masks = row_bitmasks(rows)

    if _gamma_witness(row_masks) is None:
        return SgfResult(True, PermutationPair.identity(n, m), rows, "identity")

    row_order, col_order = _doubly_lexical_order(row_masks, col_bitmasks(rows, m))
    perm = _perm_from_orders(row_order, col_order)
    permuted_masks = []
    for i in row_order:
        mask = 0
        for j in bit_indices(row_masks[i]):
            mask |= 1 << perm.col_perm[j]
        permuted_masks.append(mask)
    found = _gamma_witness(permuted_masks)
    if found is None:
        return SgfResult(True, perm, perm.apply_to_matrix(rows), "doubly-lexical")
    witness = GammaWitness(tuple(row_order[i] for i in found.rows),
                           tuple(col_order[j] for j in found.cols))
    return SgfResult(False, mode="doubly-lexical", witness=witness)
