"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two sub-assertions of the worst-case-family criterion are provably
unattainable as stated (every edge in that family costs 3, so no integral
optimum can equal a value that is not a multiple of 3); they are kept as
strict expected failures right next to the verified-value versions.  See
the decisions ledger for the full analysis.
"""

import json
import time
from fractions import Fraction as F

import pytest

from cli_child import run_cli
from dense import masks_instance
from pcover.generators import (gen_gap_family, gen_random_rectangles,
                               gen_random_tree_instance, reduce_multicut,
                               reduce_rectangle_stabbing)
from pcover.lp import dual_value, is_dual_feasible, solve_dual, solve_lp
from pcover.model import (Cover, cover_cost, covered_profit, permute_instance,
                          row_bitmasks)
from pcover.pipeline import (absorb_additive_error, audit_corpus_entry,
                             brute_force_partial, simulate_blackbox_lb,
                             solve_rho_separable)
from pcover.tb import is_gamma_free, is_totally_balanced, standard_greedy_form

CORPUS_SEEDS = range(1, 201)


@pytest.fixture(scope="module")
def corpus_entries():
    t0 = time.perf_counter()
    entries = [audit_corpus_entry(seed) for seed in CORPUS_SEEDS]
    elapsed = time.perf_counter() - t0
    assert elapsed < 240, f"corpus battery too slow: {elapsed:.1f}s"
    return entries, elapsed


def test_criterion_1_kolen_exactness(corpus_entries):
    entries, elapsed = corpus_entries
    bad = [e["seed"] for e in entries if not e["checks"]["kolen_exact"]]
    assert not bad, f"prize-collecting mismatch on seeds {bad}"
    assert elapsed < 60, f"expected under 60s, took {elapsed:.1f}s"
    print(f"\n[C1] kolen exactness vs brute force, 200 seeds x 6 multipliers: "
          f"PASS ({elapsed:.1f}s)")


def test_criterion_2_threshold_contract(corpus_entries):
    entries, _ = corpus_entries
    bad_contract = [e["seed"] for e in entries
                    if not e["checks"]["threshold_contract"]]
    bad_budget = [e["seed"] for e in entries
                  if not e["checks"]["calls_within_budget"]]
    assert not bad_contract, f"threshold contract broken on {bad_contract}"
    assert not bad_budget, f"call budget exceeded on {bad_budget}"
    hits = sum(1 for e in entries if e["exact_hit"])
    print(f"[C2] threshold contract and call budget, 200 runs "
          f"({hits} exact hits): PASS")


def test_criterion_3_merger_invariants(corpus_entries):
    entries, _ = corpus_entries
    names = ("tight_inclusion", "value_parts_match", "coverage_witness")
    bad = [(e["seed"], n) for e in entries for n in names
           if n in e["checks"] and not e["checks"][n]]
    assert not bad, f"merger invariant violations: {bad}"
    # entry preconditions, alternating occupancy, the coverage-change
    # identity, and the factor-3 split decay are asserted inside merge();
    # reaching this point means zero violations occurred.
    merged = sum(1 for e in entries if not e["exact_hit"])
    print(f"[C3] merger invariants over {merged} merged runs: PASS")


def test_criterion_4_upper_bound_and_duality(corpus_entries):
    entries, _ = corpus_entries
    bad = [(e["seed"], "merge_bound") for e in entries
           if "merge_bound" in e["checks"] and not e["checks"]["merge_bound"]]
    bad += [(e["seed"], "strong_duality") for e in entries
            if e["checks"].get("strong_duality") is not True]
    assert not bad, f"bound/duality violations: {bad}"
    print("[C4] cost bound for k=1..10 and DL = LP = dual LP: PASS")


def test_criterion_5_gap_family_verified_values():
    fam = gen_gap_family(1)
    lp = solve_lp(fam.instance)
    assert lp.value == 13
    assert solve_dual(fam.instance, lp).value == 13
    _, ip = brute_force_partial(fam.instance)
    assert ip == 15 == fam.dl + 2  # dl + 2q at q=1

    fam2 = gen_gap_family(2)
    inst2 = fam2.instance
    assert is_dual_feasible(inst2, fam2.dual_y, fam2.dual_lam)
    assert dual_value(inst2, fam2.dual_y, fam2.dual_lam) == 53
    pu = inst2.total_profit()
    u1 = pu - covered_profit(inst2, Cover.of(fam2.x1))
    u2 = pu - covered_profit(inst2, Cover.of(fam2.x2))
    beta = (fam2.p_bar - u1) / (u2 - u1)
    primal_value = (1 - beta) * cover_cost(inst2, Cover.of(fam2.x1)) \
        + beta * cover_cost(inst2, Cover.of(fam2.x2))
    assert primal_value == 53
    xt = Cover.of(fam2.xt)
    assert covered_profit(inst2, xt) == inst2.target
    assert cover_cost(inst2, xt) == 57 == fam2.dl + 4  # dl + 2q at q=2
    print("[C5] gap family: LP = 13, IP = 15 (= LP + 2q), q=2 pair = 53, "
          "constructed cover cost 57: PASS (stated IP=14/cost=56 are "
          "unattainable; see expected failures)")


@pytest.mark.xfail(reason="stated value unattainable: every set costs 3, so "
                          "the integral optimum is a multiple of 3; brute "
                          "force gives 15 (= LP + 2q), not 14",
                   strict=True)
def test_criterion_5_stated_ip_value():
    fam = gen_gap_family(1)
    _, ip = brute_force_partial(fam.instance)
    assert ip == 14


@pytest.mark.xfail(reason="stated value unattainable: the constructed cover "
                          "pays 3 per edge and double-charges 2q paths, "
                          "giving 57 (= 53 + 2q), not 56",
                   strict=True)
def test_criterion_5_stated_xt_cost():
    fam2 = gen_gap_family(2)
    assert cover_cost(fam2.instance, Cover.of(fam2.xt)) == 56


def test_criterion_6_blackbox_lower_bound():
    tu = simulate_blackbox_lb(3, 1, variant="tu")
    assert tu.lmp_all_ok
    assert all(e.lmp_lhs <= e.lmp_rhs for e in tu.entries)
    assert tu.ratio == F(4, 3)
    general = simulate_blackbox_lb(3, 2, variant="general")
    assert general.lmp_all_ok
    assert general.best_cost == F(8, 3)
    assert general.opt_cost == 1
    print(f"[C6] black-box lower bound: tu ratio {tu.ratio} "
          f"(best {tu.best_cost} vs opt {tu.opt_cost}), "
          f"general best {general.best_cost} vs opt 1, all LMP exact: PASS")


def test_criterion_7_separable_pipeline_with_absorption():
    alpha = F(2) * (1 + F(1, 27))
    bound_factor = F(2) + F(2, 27)
    t0 = time.perf_counter()
    worst = F(0)
    for seed in range(1, 51):
        tree = gen_random_tree_instance(seed)
        inst, dec = reduce_multicut(tree)
        assert inst.m <= 15 and inst.n <= 10
        cover = absorb_additive_error(inst, 4, alpha, dec)
        _, opt = brute_force_partial(inst)
        cost = cover_cost(inst, cover)
        assert covered_profit(inst, cover) >= inst.target
        assert cost <= bound_factor * opt, (seed, cost, opt)
        if opt:
            worst = max(worst, cost / opt)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    print(f"[C7] separable pipeline + absorption on 50 multicut instances: "
          f"PASS (worst ratio {worst}, {elapsed:.1f}s)")


def test_criterion_8_interval_stabbing_fast_path():
    worst_splits = 0
    for seed in range(1, 51):
        rect = gen_random_rectangles(seed, 1)
        inst, dec, flag = reduce_rectangle_stabbing(rect)
        assert flag
        report = solve_rho_separable(inst, dec)
        assert report.cost <= report.lp_value + inst.max_cost(), seed
        assert report.splits <= 1, seed
        worst_splits = max(worst_splits, report.splits)
    print(f"[C8] interval stabbing: cost <= LP + c_max and <= 1 split on 50 "
          f"instances (max splits {worst_splits}): PASS")


def test_criterion_9_reordering_cross_validation():
    t0 = time.perf_counter()
    tb_count = 0
    for bits in range(1 << 16):
        rows = tuple(tuple((bits >> (4 * i + j)) & 1 for j in range(4))
                     for i in range(4))
        matrix = masks_instance(row_bitmasks(rows), 4)
        sgf = standard_greedy_form(matrix)
        tb = is_totally_balanced(matrix)
        assert sgf.ok == tb, f"disagreement on matrix {rows}"
        if sgf.ok:
            tb_count += 1
            permuted = permute_instance(matrix, sgf.perm)
            assert is_gamma_free(permuted), f"bad certificate for {rows}"
    elapsed = time.perf_counter() - t0
    print(f"[C9] exhaustive 4x4 cross-validation ({tb_count} balanced of "
          f"65536): PASS ({elapsed:.1f}s)")


def _run_corpus_cli(tmp_path, name, jobs):
    out = tmp_path / name
    result = run_cli("experiment", "corpus", "--seeds", "1..16",
                     "--jobs", str(jobs), "--output", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return (tmp_path / (name + ".payload.json")).read_bytes()


def test_criterion_10_determinism(tmp_path):
    first = _run_corpus_cli(tmp_path, "run1.json", jobs=1)
    second = _run_corpus_cli(tmp_path, "run2.json", jobs=1)
    parallel = _run_corpus_cli(tmp_path, "run8.json", jobs=8)
    assert first == second
    assert first == parallel
    payload = json.loads(first)
    assert payload["all_ok"] is True
    print("[C10] corpus experiment byte-identical across runs and with "
          "--jobs 1 vs --jobs 8: PASS")
