"""Instance generators and application reductions."""

from fractions import Fraction as F

import pytest

from dense import masks_instance, rows_of
from pcover.errors import InputError
from pcover.generators import (TreeInstance, gen_blackbox_family,
                               gen_gap_family, gen_random_descending_paths,
                               gen_random_path_hitting, gen_random_rectangles,
                               gen_random_tree_instance, reduce_multicut,
                               reduce_path_hitting, reduce_rectangle_stabbing)
from pcover.lp import dual_value, is_dual_feasible
from pcover.model import (Cover, bit_indices, cover_cost, covered_profit,
                          row_bitmasks)
from pcover.tb import is_gamma_free, is_totally_balanced, standard_greedy_form


def test_gap_family_q1_shape():
    fam = gen_gap_family(1)
    inst = fam.instance
    assert inst.n == 12 and inst.m == 8           # 7 internal + 5 fringe paths
    assert inst.total_profit() == 38
    assert fam.p_bar == 4
    assert inst.target == 34
    assert fam.dl == 13
    assert all(c == 3 for c in inst.costs)


def test_gap_family_q2_shape():
    fam = gen_gap_family(2)
    inst = fam.instance
    assert inst.n == 48 and inst.m == 32          # 31 internal + 17 fringe
    assert fam.dl == 53


def test_gap_family_dual_certificate():
    for q in (1, 2):
        fam = gen_gap_family(q)
        assert is_dual_feasible(fam.instance, fam.dual_y, fam.dual_lam)
        assert dual_value(fam.instance, fam.dual_y, fam.dual_lam) == fam.dl


def test_gap_family_constructed_solutions():
    for q in (1, 2):
        fam = gen_gap_family(q)
        inst = fam.instance
        pu = inst.total_profit()
        # the two alternating-level solutions leave exactly 2 and 2^(2q+1)
        # profit uncovered
        assert pu - covered_profit(inst, Cover.of(fam.x1)) == 2
        assert pu - covered_profit(inst, Cover.of(fam.x2)) == 2 ** (2 * q + 1)
        # the constructed integral solution covers exactly the target and
        # costs dl + 2q
        xt = Cover.of(fam.xt)
        assert covered_profit(inst, xt) == inst.target
        assert cover_cost(inst, xt) == fam.dl + 2 * q == fam.ip


def test_gap_family_fractional_combination_value():
    for q in (1, 2):
        fam = gen_gap_family(q)
        inst = fam.instance
        pu = inst.total_profit()
        u1 = pu - covered_profit(inst, Cover.of(fam.x1))
        u2 = pu - covered_profit(inst, Cover.of(fam.x2))
        beta = (fam.p_bar - u1) / (u2 - u1)
        value = (1 - beta) * cover_cost(inst, Cover.of(fam.x1)) \
            + beta * cover_cost(inst, Cover.of(fam.x2))
        assert value == fam.dl


def test_gap_family_is_totally_balanced_at_oracle_size():
    fam = gen_gap_family(1)
    assert is_totally_balanced(fam.instance)
    assert standard_greedy_form(fam.instance).ok


def test_blackbox_family_general_shape():
    fam = gen_blackbox_family(2, 2, "general")
    inst = fam.instance
    assert inst.n == 2 ** 3 + 4 and inst.m == 6
    assert inst.target == 10
    # per-set costs 1/q, 2a/(3q), 4a/(3q)
    assert inst.costs[fam.o_cols[0]] == F(1, 2)
    assert inst.costs[fam.a_cols[0]] == F(2, 3)
    assert inst.costs[fam.b_cols[0]] == F(4, 3)
    # set sizes q^2+1, q^2, q^2+2
    assert len(bit_indices(inst.col_masks[fam.o_cols[0]])) == 5
    assert len(bit_indices(inst.col_masks[fam.a_cols[0]])) == 4
    assert len(bit_indices(inst.col_masks[fam.b_cols[0]])) == 6


def test_blackbox_family_tu_costs():
    fam = gen_blackbox_family(2, 1, "tu")
    inst = fam.instance
    assert inst.costs[fam.o_cols[0]] == 1
    assert inst.costs[fam.a_cols[0]] == F(2, 3)
    assert inst.costs[fam.b_cols[0]] == F(4, 3)
    # tu O-sets are the B-sets minus their right extra
    o_members = set(bit_indices(inst.col_masks[fam.o_cols[0]]))
    b_members = set(bit_indices(inst.col_masks[fam.b_cols[0]]))
    assert o_members < b_members and len(b_members - o_members) == 1


def test_blackbox_o_sets_are_optimal():
    from pcover.pipeline import brute_force_partial
    for variant, alpha in (("general", 2), ("tu", 1)):
        fam = gen_blackbox_family(2, alpha, variant)
        cover, cost = brute_force_partial(fam.instance)
        assert cost == fam.opt_cost
        assert covered_profit(fam.instance, Cover.of(fam.o_cols)) >= fam.instance.target


def test_blackbox_rejects_bad_parameters():
    with pytest.raises(InputError):
        gen_blackbox_family(1, 1)
    with pytest.raises(InputError):
        gen_blackbox_family(2, 2, "tu")
    with pytest.raises(InputError):
        gen_blackbox_family(2, F(1, 2))


def test_random_descending_paths_deterministic():
    a1, d1 = gen_random_descending_paths(42, 10, 6, 6)
    a2, d2 = gen_random_descending_paths(42, 10, 6, 6)
    assert a1 == a2 and d1 == d2
    b, _ = gen_random_descending_paths(43, 10, 6, 6)
    assert a1 != b


def test_random_descending_paths_totally_balanced():
    for seed in range(20):
        inst, dec = gen_random_descending_paths(seed, 9, 6, 6)
        assert is_totally_balanced(inst)
        assert standard_greedy_form(inst).ok
        assert dec.rho == 1
        dec.validate_against(inst)


def test_random_descending_paths_empty_demands():
    inst, _ = gen_random_descending_paths(1, 6, 4, 0, target=0)
    assert inst.n == 0
    assert inst.target == 0


def test_tree_instance_validation():
    with pytest.raises(InputError):
        TreeInstance((0,), (), ())          # root must be -1
    with pytest.raises(InputError):
        TreeInstance((-1, 5), (F(1),), ())  # parent out of range


def test_reduce_multicut_splits_at_lca():
    #     0
    #    / \
    #   1   2
    tree = TreeInstance((-1, 0, 0), (F(2), F(3)), ((1, 2, F(5)),))
    inst, dec = reduce_multicut(tree)
    assert rows_of(inst) == ((1, 1),)
    assert dec.rho == 2
    # the two halves are the two edges, one per part
    assert dec.parts[0][0] != dec.parts[1][0]
    assert tuple(a + b for a, b in zip(dec.parts[0][0], dec.parts[1][0])) == (1, 1)


def test_reduce_multicut_descending_pairs_put_everything_in_one_part():
    tree = TreeInstance((-1, 0, 1), (F(1), F(1)), ((0, 2, F(1)),))
    inst, dec = reduce_multicut(tree)
    assert rows_of(inst) == ((1, 1),)
    assert dec.parts[1][0] == (0, 0)


def test_reduce_multicut_rejects_degenerate_pair():
    tree = TreeInstance((-1, 0), (F(1),), ((1, 1, F(1)),))
    with pytest.raises(InputError, match="degenerate"):
        reduce_multicut(tree)


def test_reduce_multicut_row_induced_parts_totally_balanced():
    from pcover.generators import Lcg
    rng = Lcg(99)
    for seed in range(12):
        tree = gen_random_tree_instance(seed, max_edges=9, max_demands=6)
        inst, dec = reduce_multicut(tree)
        # row-induced samples from the parts stay totally balanced
        for _ in range(4):
            rows = tuple(dec.parts[rng.below(2)][i] for i in range(inst.n))
            assert is_totally_balanced(masks_instance(row_bitmasks(rows), inst.m))


def test_reduce_path_hitting_cost_inheritance():
    # V-shaped cover path through the root splits into two halves, each
    # carrying the full cost.
    tree = TreeInstance((-1, 0, 0), (F(1), F(1)), ())
    inst, dec, meta = reduce_path_hitting(tree, ((1, 2, F(5)),), ((1, 2, F(1)),))
    assert inst.m == 2
    assert all(c == 5 for c in inst.costs)
    assert meta["cost_factor"] == 2
    assert meta["half_parent"] == (0, 0)
    dec.validate_against(inst)


def test_reduce_path_hitting_random_instances_are_separable():
    for seed in range(8):
        tree, cover_paths, demand_paths = gen_random_path_hitting(seed)
        inst, dec, _ = reduce_path_hitting(tree, cover_paths, demand_paths)
        dec.validate_against(inst)
        for part in dec.parts:
            assert (is_totally_balanced(masks_instance(row_bitmasks(part), inst.m))
                    or inst.n > 12)


def test_reduce_path_hitting_default_target_is_coverable():
    # Seed 1 draws demands of total profit 21 of which only 5 meet a cover
    # path; half the total would be unattainable.
    from pcover.pipeline import solve_rho_separable
    inst, _, _ = reduce_path_hitting(*gen_random_path_hitting(1))
    assert inst.total_profit() == 21
    assert inst.target == inst.coverable_profit() == 5
    for seed in range(1, 21):
        inst, dec, _ = reduce_path_hitting(*gen_random_path_hitting(seed))
        assert inst.target == min(inst.total_profit() / 2, inst.coverable_profit())
        report = solve_rho_separable(inst, dec)
        assert report.covered >= inst.target


def test_reduce_rectangles_1d_interval_matrix():
    rect = gen_random_rectangles(3, 1)
    inst, dec, path_flag = reduce_rectangle_stabbing(rect)
    assert path_flag
    assert dec.rho == 1
    assert is_gamma_free(inst)
    assert is_totally_balanced(inst) or inst.n > 12


def test_reduce_rectangles_2d_two_blocks():
    rect = gen_random_rectangles(5, 2)
    inst, dec, path_flag = reduce_rectangle_stabbing(rect)
    assert not path_flag
    assert dec.rho == 2
    dec.validate_against(inst)
    for row in dec.parts[0]:
        ones = [j for j, v in enumerate(row) if v]
        assert ones == list(range(ones[0], ones[-1] + 1)) if ones else True


def test_reduce_rectangles_unstabbed_rejected():
    from pcover.generators import RectangleInstance
    rect = RectangleInstance(1, (((((100, 101),)), F(1)),),
                             ((((0, F(1))),),), target=0)
    with pytest.raises(InputError, match="no candidate line"):
        reduce_rectangle_stabbing(rect)


def test_generators_byte_identical_across_runs():
    from pcover.formats import render_instance
    one = render_instance(gen_random_descending_paths(42, 10, 6, 6)[0])
    two = render_instance(gen_random_descending_paths(42, 10, 6, 6)[0])
    assert one == two
