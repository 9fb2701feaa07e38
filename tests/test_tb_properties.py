"""Property tests for the doubly lexical reorder and its witness."""

from hypothesis import given, settings, strategies as st

from dense import masks_instance, rows_of
from pcover.generators import (corpus_instance, gen_gap_family,
                               gen_random_descending_paths)
from pcover.model import (PermutationPair, covered_profit, permute_instance,
                          row_bitmasks)
from pcover.pipeline import solve_partial_tbc
from pcover.tb import (gamma_witness, is_gamma_free, is_totally_balanced,
                       standard_greedy_form)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _tb_instance(source, seed):
    if source == "corpus":
        return corpus_instance(seed)
    if source == "paths":
        inst, _ = gen_random_descending_paths(seed, 10, 7, 7,
                                              ensure_demand_covered=True)
        return inst
    return gen_gap_family(1 + seed % 2).instance


@st.composite
def shuffled_tb_instances(draw):
    source = draw(st.sampled_from(["corpus", "paths", "gap"]))
    base = _tb_instance(source, draw(st.integers(0, 10_000)))
    rows = draw(st.permutations(range(base.n)))
    cols = draw(st.permutations(range(base.m)))
    return base, permute_instance(base, PermutationPair(tuple(rows), tuple(cols)))


@PROPERTY
@given(shuffled_tb_instances())
def test_shuffled_tb_instances_reorder_and_solve(pair):
    base, inst = pair
    sgf = standard_greedy_form(inst)
    assert sgf.ok
    permuted = permute_instance(inst, sgf.perm)
    assert is_gamma_free(permuted)
    assert sgf.perm.apply_to_matrix(rows_of(inst)) == rows_of(permuted)
    report = solve_partial_tbc(inst)
    assert covered_profit(inst, report.cover) >= inst.target
    assert report.dl_value == solve_partial_tbc(base).dl_value


def _matrices(max_dim):
    return st.integers(1, max_dim).flatmap(lambda m: st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m),
        min_size=1, max_size=max_dim))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_matrices(7))
def test_reorder_agrees_with_definition(rows):
    inst = masks_instance(row_bitmasks(rows), len(rows[0]))
    sgf = standard_greedy_form(inst)
    assert sgf.ok == is_totally_balanced(inst)
    if sgf.ok:
        assert is_gamma_free(permute_instance(inst, sgf.perm))


@st.composite
def matrices_with_cycle(draw):
    """A k-cycle (k >= 3) embedded among random rows and columns, then
    shuffled; total balance is hereditary, so no such matrix has it."""
    k = draw(st.integers(3, 5))
    extra_rows = draw(st.integers(0, 3))
    extra_cols = draw(st.integers(0, 3))
    m = k + extra_cols
    cycle = [[int(j == i or j == (i + 1) % k) for j in range(k)]
             + draw(st.lists(st.integers(0, 1), min_size=extra_cols,
                             max_size=extra_cols))
             for i in range(k)]
    padding = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                            min_size=extra_rows, max_size=extra_rows))
    rows = cycle + padding
    row_order = draw(st.permutations(range(len(rows))))
    col_order = draw(st.permutations(range(m)))
    return [[rows[i][j] for j in col_order] for i in row_order]


@PROPERTY
@given(matrices_with_cycle())
def test_non_tb_witness_indexes_gamma_in_original(rows):
    sgf = standard_greedy_form(masks_instance(row_bitmasks(rows), len(rows[0])))
    assert not sgf.ok
    (i1, i2), (j1, j2) = sgf.witness.rows, sgf.witness.cols
    assert [[rows[i1][j1], rows[i1][j2]], [rows[i2][j1], rows[i2][j2]]] == [[1, 1], [1, 0]]


def reference_gamma_witness(row_masks):
    """The lexicographically smallest pattern, by a scan of all row pairs."""
    n = len(row_masks)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            common = row_masks[i1] & row_masks[i2]
            only_upper = row_masks[i1] & ~row_masks[i2]
            if not common or not only_upper:
                continue
            j1 = (common & -common).bit_length() - 1
            rest = only_upper >> (j1 + 1)
            if rest:
                j2 = j1 + 1 + (rest & -rest).bit_length() - 1
                return (i1, i2), (j1, j2)
    return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_matrices(8))
def test_gamma_witness_agrees_with_pair_scan(rows):
    masks = row_bitmasks(rows)
    inst = masks_instance(masks, len(rows[0]))
    found = gamma_witness(inst.row_masks, inst.element_sets())
    assert (found is None) == (reference_gamma_witness(masks) is None)
    if found is not None:
        (i1, i2), (j1, j2) = found.rows, found.cols
        assert i1 < i2 and j1 < j2
        assert [[rows[i1][j1], rows[i1][j2]], [rows[i2][j1], rows[i2][j2]]] == [[1, 1], [1, 0]]
