"""The bitmask matrix: the solve path reads only masks, and the mask
operations agree with the same operations on row tuples."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from dense import rows_of
from pcover.arith import format_rational
from pcover.formats import (INSTANCE_MAGIC, parse_instance, render_instance,
                            render_payload)
from pcover.generators import (Lcg, corpus_instance, gen_gap_family,
                               gen_random_rectangles, gen_random_tree_instance,
                               reduce_multicut, reduce_rectangle_stabbing)
from pcover.model import (Instance, PermutationPair, bit_indices,
                          make_instance, permute_instance, sub_instance)
from pcover.pipeline import (audit_corpus_entry, solve_partial_tbc,
                             solve_rho_separable)
from pcover.tb import standard_greedy_form
from test_pipeline import _lcg_shuffle

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def test_solve_path_never_reads_rows():
    # Instance holds no dense view: the matrix is its row masks alone.
    assert not hasattr(Instance, "rows") and "_rows" not in Instance.__slots__
    fam = gen_gap_family(2)
    rng = Lcg(1)
    shuffled = permute_instance(fam.instance, PermutationPair(
        _lcg_shuffle(fam.instance.n, rng), _lcg_shuffle(fam.instance.m, rng)))
    assert standard_greedy_form(shuffled).mode == "doubly-lexical"
    rho_inputs = ([reduce_multicut(gen_random_tree_instance(s)) for s in range(1, 6)]
                  + [reduce_rectangle_stabbing(gen_random_rectangles(s, 2))[:2]
                     for s in range(1, 4)])
    for inst in (gen_gap_family(1).instance, fam.instance, shuffled):
        report = solve_partial_tbc(parse_instance(render_instance(inst)))
        render_payload(report.payload())
    for seed in range(1, 31):
        assert audit_corpus_entry(seed)["all_ok"], seed
    for instance, decomposition in rho_inputs:
        solve_rho_separable(instance, decomposition)


def render_by_rows(instance: Instance) -> str:
    """`render_instance` as written over row tuples, kept as the reference."""
    out = [INSTANCE_MAGIC,
           f"{instance.n} {instance.m}",
           format_rational(instance.target),
           " ".join(format_rational(c) for c in instance.costs),
           " ".join(format_rational(p) for p in instance.profits)]
    for row in rows_of(instance):
        out.append("".join(str(v) for v in row))
    return "\n".join(out) + "\n"


RATIONALS = st.fractions(min_value=0, max_value=20, max_denominator=4)


EMPTY = (make_instance([], [1, 2], [], 0), make_instance([[], []], [], [1, 2], 1),
         make_instance([], [], [], 0))


@st.composite
def instances(draw):
    """Corpus instances, random matrices down to n = 0 or m = 0, and the
    empty-dimension instances."""
    source = draw(st.sampled_from(["corpus", "random", "empty"]))
    if source == "corpus":
        return corpus_instance(draw(st.integers(0, 10_000)))
    if source == "empty":
        return draw(st.sampled_from(EMPTY))
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    costs = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    profits = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    share = draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
    return make_instance(rows, costs, profits, share * sum(profits, F(0)))


@PROPERTY
@given(instances())
def test_masks_agree_with_rows(inst):
    rows = rows_of(inst)
    assert make_instance(rows, inst.costs, inst.profits, inst.target) == inst
    assert [bit_indices(mask) for mask in inst.col_masks] == [
        tuple(i for i in range(inst.n) if rows[i][j]) for j in range(inst.m)]
    assert render_instance(inst) == render_by_rows(inst)
    assert parse_instance(render_instance(inst)) == inst


@PROPERTY
@given(instances(), st.data())
def test_permute_instance_matches_matrix_permutation(inst, data):
    perm = PermutationPair(tuple(data.draw(st.permutations(range(inst.n)))),
                           tuple(data.draw(st.permutations(range(inst.m)))))
    out = permute_instance(inst, perm)
    assert rows_of(out) == perm.apply_to_matrix(rows_of(inst))
    assert all(out.costs[perm.col_perm[j]] == c for j, c in enumerate(inst.costs))
    assert all(out.profits[perm.row_perm[i]] == p for i, p in enumerate(inst.profits))
    assert permute_instance(out, perm.inverse()) == inst


@PROPERTY
@given(instances(), st.data())
def test_sub_instance_matches_row_slicing(inst, data):
    keep_rows = data.draw(st.lists(st.sampled_from(range(inst.n)), unique=True)
                          if inst.n else st.just([]))
    keep_cols = data.draw(st.lists(st.sampled_from(range(inst.m)), unique=True)
                          if inst.m else st.just([]))
    sub = sub_instance(inst, keep_rows, keep_cols, 0)
    rows = rows_of(inst)
    assert rows_of(sub) == tuple(tuple(rows[i][j] for j in keep_cols)
                                 for i in keep_rows)
    assert sub.costs == tuple(inst.costs[j] for j in keep_cols)
    assert sub.profits == tuple(inst.profits[i] for i in keep_rows)
    assert (sub.n, sub.m, sub.target) == (len(keep_rows), len(keep_cols), 0)
