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

Every function here reads the matrix of an `Instance`: its row bitmasks
(bit j of mask i is a[i][j]) and its sparse index, the ascending set
indices of each element (`element_sets()`) and the ascending element
indices of each set (`set_elements()`).  The O(nnz) walks read the index
and extract no bit from a mask.  `gamma_witness` takes the row masks and
the element index themselves, so that `standard_greedy_form` can run it
on the reordered matrix that `model.permuted_index` maps out without
building an instance.

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
`gamma_witness`, a scan of consecutive rows within each column, run on
the index mapped through the ordering.  By the
theorem, a pattern that survives is a definite "not totally balanced",
and it is reported as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import check_guard
from .model import Instance, PermutationPair, permuted_index

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


def gamma_witness(row_masks, element_sets) -> GammaWitness | None:
    """An occurrence of the pattern, if any, in O(nnz) mask operations, for
    the matrix with these row masks and their ascending set indices (as
    `Instance.row_masks` and `element_sets()`).

    A matrix is gamma-free iff in every column j, each row of the column
    has no 1 above j that the column's next row lacks: that containment
    of suffixes is transitive along the column, and a violation is itself
    the pattern.  The witness returned is the first violation met, rows
    ascending and, within a row, columns ascending; it need not be the
    lexicographically smallest occurrence.
    """
    width = max((mask.bit_length() for mask in row_masks), default=0)
    last_row: list[int | None] = [None] * width  # per column, the last row seen
    for i2, (mask, sets) in enumerate(zip(row_masks, element_sets)):
        missing = ~mask
        for j1 in sets:
            i1 = last_row[j1]
            if i1 is not None:
                rest = (row_masks[i1] & missing) >> (j1 + 1)
                if rest:
                    j2 = j1 + (rest & -rest).bit_length()
                    return GammaWitness((i1, i2), (j1, j2))
            last_row[j1] = i2
    return None


def is_gamma_free(instance: Instance) -> bool:
    return gamma_witness(instance.row_masks, instance.element_sets()) is None


def is_totally_balanced(instance: Instance) -> bool:
    """Definitional check by direct submatrix search.

    Searches all square submatrices of order >= 3 for one with every row
    and column sum equal to 2 and pairwise distinct columns.  Exponential;
    guarded to dimensions <= `TB_CHECK_LIMIT` and meant as a desk-scale
    oracle.
    """
    n, m = instance.n, instance.m
    row_masks, col_masks = instance.row_masks, instance.col_masks
    check_guard(max(n, m) <= TB_CHECK_LIMIT,
                f"totally-balanced check limited to "
                f"{TB_CHECK_LIMIT}x{TB_CHECK_LIMIT}, got {n}x{m}")
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

    On success `perm` maps original to permuted indices, and the matrix
    permuted by it is gamma-free.  On failure `witness` is a forbidden
    pattern that survived the doubly lexical ordering, in original row and
    column indices; it proves that the matrix is not totally balanced.
    """

    ok: bool
    perm: PermutationPair | None = None
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


def doubly_lexical_order(instance: Instance) -> tuple[list[int], list[int]]:
    """Row and column orders (new position -> original index) under which
    both rows and columns ascend; see the module docstring for why the
    alternating sorts terminate."""
    cols_of, rows_of = instance.element_sets(), instance.set_elements()
    row_order, col_order = list(range(instance.n)), list(range(instance.m))
    while True:
        row_order = _sorted_by_bits(row_order, cols_of, col_order)
        new_cols = _sorted_by_bits(col_order, rows_of, row_order)
        if new_cols == col_order:  # rows were sorted against these columns
            return row_order, col_order
        col_order = new_cols


def standard_greedy_form(instance: Instance) -> SgfResult:
    """Reorder the instance's matrix into greedy standard form, or prove
    that none exists.

    Deterministic: a gamma-free matrix keeps the identity ordering;
    otherwise the doubly lexical ordering is certified with
    `gamma_witness` on the index mapped through it, and a surviving
    pattern is returned as the witness.
    """
    if is_gamma_free(instance):
        return SgfResult(True, PermutationPair.identity(instance.n, instance.m),
                         "identity")

    row_order, col_order = doubly_lexical_order(instance)
    perm = PermutationPair(tuple(row_order), tuple(col_order)).inverse()
    found = gamma_witness(*permuted_index(instance, perm))
    if found is None:
        return SgfResult(True, perm, "doubly-lexical")
    witness = GammaWitness(tuple(row_order[i] for i in found.rows),
                           tuple(col_order[j] for j in found.cols))
    return SgfResult(False, mode="doubly-lexical", witness=witness)
