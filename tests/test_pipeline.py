"""End-to-end solvers, oracles, absorption, and the adversary simulation."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from dense import rows_of
from pcover import cli, pipeline
from pcover.errors import (GUARD_ENV, AuditError, InfeasibleError, InputError,
                           SizeGuardError)
from pcover.generators import (Lcg, corpus_instance, gen_blackbox_family,
                               gen_gap_family, gen_random_rectangles,
                               gen_random_tree_instance, reduce_multicut,
                               reduce_rectangle_stabbing)
from pcover.merger import MergeBoundAudit
from pcover.model import (Cover, Decomposition, PermutationPair, cover_cost,
                          covered_profit, make_instance, permute_instance,
                          sub_instance)
from pcover.pipeline import (absorb_additive_error, audit_corpus_entry,
                             brute_force_partial, brute_force_prize_collecting,
                             equitable_coloring_check, simulate_blackbox_lb,
                             solve_partial_tbc, solve_rho_separable)

SINGLE_SET = make_instance([[1], [1]], [1], [1, 1], 1)


def test_brute_force_partial_zero_target():
    inst = make_instance([[1]], [2], [1], 0)
    cover, cost = brute_force_partial(inst)
    assert cover.sets == () and cost == 0


def test_brute_force_partial_gap_value():
    fam = gen_gap_family(1)
    _, cost = brute_force_partial(fam.instance)
    assert cost == 15  # dl + 2q; every cover pays a multiple of 3


def test_brute_force_partial_infeasible():
    inst = make_instance([[1], [0]], [1], [1, 1], F(3, 2))
    with pytest.raises(InfeasibleError):
        brute_force_partial(inst)


def test_brute_force_partial_size_guard(monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    inst = make_instance([[1] * 25], [1] * 25, [1], 1)
    with pytest.raises(SizeGuardError):
        brute_force_partial(inst)


def test_brute_force_prize_collecting_examples():
    inst = make_instance([[1, 1], [0, 1]], [2, 3], [1, 1], 0)
    assert brute_force_prize_collecting(inst, 0) == 0
    assert brute_force_prize_collecting(inst, 10) == 3


def test_blackbox_prize_collecting_closed_forms():
    # the four candidate covers' closed-form values track the exhaustive
    # optimum across the multiplier axis
    fam = gen_blackbox_family(2, 2, "general")
    pu = fam.instance.total_profit()
    for lam in (F(1, 100), F(1, 20), F(1, 8), F(1, 4), F(1, 2), F(2)):
        closed = min(lam * pu, fam.cost_a + lam * fam.uncovered_a,
                     fam.cost_b, fam.opt_cost + lam * fam.uncovered_o)
        assert brute_force_prize_collecting(fam.instance, lam) == closed


def test_solve_single_set_fixture():
    report = solve_partial_tbc(SINGLE_SET, oracle=True)
    assert report.cover.sets == (0,)
    assert report.cost == 1
    assert report.dl_value == F(1, 2)
    assert report.lp_value == F(1, 2)
    assert report.ratio_vs_oracle == 1


def test_solve_rejects_non_totally_balanced():
    bad = make_instance([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1, 1, 1],
                        [1, 1, 1], 1)
    with pytest.raises(InputError, match="not totally balanced"):
        solve_partial_tbc(bad)


def test_solve_unattainable_target():
    inst = make_instance([[1], [0]], [1], [1, 1], F(3, 2))
    with pytest.raises(InfeasibleError):
        solve_partial_tbc(inst)


def test_solve_gap_family_bounds():
    fam = gen_gap_family(1)
    report = solve_partial_tbc(fam.instance, oracle=True)
    assert report.oracle_cost == 15
    assert report.cost >= 15
    for k in range(1, 11):
        assert report.cost <= (1 + F(1, 3 ** (k - 1))) * report.dl_value + 3 * k


def test_solve_exact_hit_cost_equals_dual_value():
    # target equal to full coverage forces an exact hit at the threshold
    inst = make_instance([[1], [1]], [1], [1, 1], 2)
    report = solve_partial_tbc(inst)
    assert report.exact_hit
    assert report.cost == report.dl_value == 1


def test_solve_empty_element_set():
    # n = 0 keeps its m sets; the empty cover meets the zero target.
    report = solve_partial_tbc(make_instance([], [1, 2], [], 0))
    assert report.cover.sets == ()
    assert report.cost == 0


def test_solve_permutation_invariance():
    # solving a permuted instance gives the same cost and the permuted cover
    from pcover.model import PermutationPair, permute_instance
    inst = corpus_instance(4)
    pair = PermutationPair(tuple(reversed(range(inst.n))),
                           tuple(reversed(range(inst.m))))
    permuted = permute_instance(inst, pair)
    a = solve_partial_tbc(inst)
    b = solve_partial_tbc(permuted)
    assert a.cost == b.cost
    assert a.covered == b.covered
    mapped = Cover.of(pair.col_perm[j] for j in a.cover.sets)
    assert cover_cost(permuted, mapped) == b.cost


def test_rho_separable_single_part_reduces_to_plain_solve():
    inst = corpus_instance(2)
    dec = Decomposition(1, (rows_of(inst),))
    a = solve_rho_separable(inst, dec)
    b = solve_partial_tbc(inst)
    assert a.cover == b.cover and a.cost == b.cost


def test_rho_separable_multicut_bound():
    for seed in (1, 2, 3, 4):
        tree = gen_random_tree_instance(seed)
        inst, dec = reduce_multicut(tree)
        report = solve_rho_separable(inst, dec, oracle=True)
        assert covered_profit(inst, report.cover) >= inst.target
        bound = (1 + F(1, 27)) * 2 * report.lp_value + 4 * inst.max_cost()
        assert report.cost <= bound


def test_rho_separable_timings_include_its_lp():
    inst, dec = reduce_multicut(gen_random_tree_instance(1))
    timings = solve_rho_separable(inst, dec).timings
    assert set(timings) == {"greedy_form", "threshold", "merge", "certificate",
                            "lp", "total"}
    inner = (timings["greedy_form"] + timings["threshold"] + timings["merge"]
             + timings["certificate"])
    assert timings["total"] >= timings["lp"] + inner


def test_absorb_k0_is_plain_solve():
    inst = corpus_instance(5)
    cover = absorb_additive_error(inst, 0, F(3, 2))
    assert cover == solve_partial_tbc(inst).cover


def test_rho_bound_failure_names_its_clause(monkeypatch):
    # A cost above (1 + 3**(1-k)) * rho * LP + k * c_max at k = 1 fails the
    # rho audit, which names the clause and its detail.
    inst, dec = reduce_multicut(gen_random_tree_instance(1))
    solve = pipeline.solve_partial_tbc

    def inflated(instance):
        report = solve(instance)
        return replace(report, cost=report.cost + 10 ** 6)

    monkeypatch.setattr(pipeline, "solve_partial_tbc", inflated)
    with pytest.raises(AuditError, match=r"rho_lp_bound: clause k = 1: cost [\d/]+ "
                                         r"above bound"):
        solve_rho_separable(inst, dec)


def test_absorb_never_worse_than_plain():
    for seed in (1, 2, 3):
        tree = gen_random_tree_instance(seed)
        inst, dec = reduce_multicut(tree)
        plain = solve_rho_separable(inst, dec)
        absorbed = absorb_additive_error(inst, 4, F(56, 27), dec)
        assert cover_cost(inst, absorbed) <= plain.cost
        assert covered_profit(inst, absorbed) >= inst.target


def test_absorb_recovers_single_expensive_set_optimum():
    # one expensive set covers everything; four cheap sets cover a sliver.
    inst = make_instance(
        [[1, 1, 0, 0, 0],
         [1, 0, 1, 0, 0],
         [1, 0, 0, 1, 0],
         [1, 0, 0, 0, 1]],
        [10, 1, 1, 1, 1], [1, 1, 1, 1], 4)
    _, opt = brute_force_partial(inst)
    assert opt == 4  # the four cheap sets
    cover = absorb_additive_error(inst, 1, F(2))
    assert cover_cost(inst, cover) == opt


def test_absorb_alpha_bound_on_small_instances():
    alpha = F(2)
    for seed in (1, 2, 3, 4, 5):
        tree = gen_random_tree_instance(seed, max_edges=8, max_demands=5)
        inst, dec = reduce_multicut(tree)
        cover = absorb_additive_error(inst, 2, alpha, dec)
        _, opt = brute_force_partial(inst)
        assert cover_cost(inst, cover) <= alpha * opt


def test_absorb_rejects_alpha_at_most_one():
    with pytest.raises(InputError):
        absorb_additive_error(SINGLE_SET, 1, 1)


def test_blackbox_simulation_tu():
    t = simulate_blackbox_lb(3, 1, variant="tu")
    assert t.lmp_all_ok
    assert t.ratio == F(4, 3)
    assert t.opt_cost == 3
    assert t.best_cost == 4
    kinds = {e.kind for e in t.entries}
    assert {"A", "B"} <= kinds


def test_blackbox_simulation_general_alpha2():
    t = simulate_blackbox_lb(3, 2, variant="general")
    assert t.lmp_all_ok
    assert t.opt_cost == 1
    assert t.best_cost == F(8, 3)


def test_blackbox_entries_satisfy_lmp_exactly():
    for variant, alpha in (("general", 1), ("general", 2), ("tu", 1)):
        t = simulate_blackbox_lb(2, alpha, variant=variant)
        for entry in t.entries:
            assert entry.lmp_lhs <= entry.lmp_rhs


def test_blackbox_custom_schedule():
    t = simulate_blackbox_lb(2, 1, lambda_schedule=[F(1, 100), F(1, 6), F(10)],
                             variant="general")
    assert t.lmp_all_ok
    assert len(t.entries) == 3


def test_equitable_coloring_tu_family():
    for q in (2, 3):
        fam = gen_blackbox_family(q, 1, "tu")
        assert equitable_coloring_check(fam.instance.row_masks, fam.instance.m,
                                        fam.roles)


def test_equitable_coloring_a_columns_only():
    fam = gen_blackbox_family(2, 1, "tu")
    sub = sub_instance(fam.instance, range(fam.instance.n), fam.a_cols, 0)
    roles = tuple(fam.roles[j] for j in fam.a_cols)
    assert equitable_coloring_check(sub.row_masks, sub.m, roles)


def test_equitable_coloring_rejects_an_unbalancing_role_assignment():
    # Tagged A, every column of the TU family is blue, and a row with two
    # or more ones is unbalanced.
    fam = gen_blackbox_family(2, 1, "tu")
    all_blue = (("A", 0),) * fam.instance.m
    assert not equitable_coloring_check(fam.instance.row_masks, fam.instance.m,
                                        all_blue)


def test_interval_stabbing_strong_bound():
    for seed in (1, 2, 3, 4, 5):
        rect = gen_random_rectangles(seed, 1)
        inst, dec, flag = reduce_rectangle_stabbing(rect)
        assert flag
        report = solve_rho_separable(inst, dec)
        assert report.single_block
        assert report.cost <= report.lp_value + inst.max_cost()
        assert report.splits <= 1


def _lcg_shuffle(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


@pytest.mark.parametrize("q, seeds", [(1, range(1, 9)), (2, range(1, 7)),
                                      (3, range(1, 4))])
def test_shuffled_gap_family_solves(q, seeds):
    # Shuffled orders reach merge's decrease split with a feasible side
    # covering exactly P, a tie that only decrease() may take.
    fam = gen_gap_family(q)
    for seed in seeds:
        rng = Lcg(seed)
        perm = PermutationPair(_lcg_shuffle(fam.instance.n, rng),
                               _lcg_shuffle(fam.instance.m, rng))
        inst = permute_instance(fam.instance, perm)
        report = solve_partial_tbc(inst)
        assert report.dl_value == fam.dl, (q, seed)
        assert covered_profit(inst, report.cover) >= inst.target, (q, seed)
        if q == 1:
            _, oracle_cost = brute_force_partial(inst)
            assert report.cost >= oracle_cost, seed


ENTRY_FIELDS = ("cost", "dl_value", "lp_value", "kolen_calls", "lambda_star",
                "exact_hit", "splits")


def test_corpus_entry_reports_the_solve():
    for seed in range(1, 31):
        entry = audit_corpus_entry(seed)
        payload = solve_partial_tbc(corpus_instance(seed)).payload()
        for name in ENTRY_FIELDS:
            assert entry[name] == payload[name], (seed, name)
        assert entry["final_cover"] == payload["cover"], seed
        assert payload["audits"].items() <= entry["checks"].items(), seed


def test_corpus_entry_raises_on_failed_solver_audit(monkeypatch, capsys):
    failed = MergeBoundAudit(False, (), None, "k = 1", "cost 9 above bound 8")
    monkeypatch.setattr(pipeline, "audit_merge_bound", lambda *a, **kw: failed)
    with pytest.raises(AuditError,
                       match="merge_bound: clause k = 1: cost 9 above bound 8"):
        audit_corpus_entry(1)
    assert cli.main(["experiment", "corpus", "--seeds", "1..2"]) == 4
    assert "merge_bound" in capsys.readouterr().err
