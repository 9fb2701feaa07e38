"""Exact simplex and the relaxation pair."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from lp_reference import reference_solve_dual
from pcover import cli, formats, lp, pipeline
from pcover.errors import AuditError, InfeasibleError, InternalInvariantError
from pcover.generators import (corpus_instance, gen_gap_family,
                               gen_random_path_hitting, gen_random_rectangles,
                               gen_random_tree_instance, reduce_multicut,
                               reduce_path_hitting, reduce_rectangle_stabbing)
from pcover.lp import (dual_value, is_dual_feasible, is_primal_feasible,
                       mixed_cover_point, solve_dual, solve_linear_program,
                       solve_lp)
from pcover.model import Cover, make_instance
from pcover.pipeline import (brute_force_partial, solve_partial_tbc,
                             solve_rho_separable)


def test_simplex_small_known_lp():
    # min x + y  s.t.  x + 2y >= 4, 3x + y >= 6  ->  optimum at (8/5, 6/5)
    out = solve_linear_program([F(1), F(1)],
                               [([F(1), F(2)], ">=", F(4)),
                                ([F(3), F(1)], ">=", F(6))])
    assert out.value == F(14, 5)
    assert out.x == (F(8, 5), F(6, 5))


def test_simplex_slack_costs_are_row_duals():
    # The '>=' rows of the LP above have duals 2/5 and 1/5.
    out = solve_linear_program([F(1), F(1)],
                               [([F(1), F(2)], ">=", F(4)),
                                ([F(3), F(1)], ">=", F(6))])
    assert out.slack_costs == (F(2, 5), F(1, 5))
    # min -x  s.t.  x <= 3: the '<=' row has dual -1, its slack cost 1.
    out = solve_linear_program([F(-1)], [([F(1)], "<=", F(3))])
    assert out.x == (F(3),) and out.slack_costs == (F(1),)


def test_simplex_rejects_equality_rows():
    with pytest.raises(InternalInvariantError, match="bad relation"):
        solve_linear_program([F(1)], [([F(1)], "==", F(1))])


def test_simplex_infeasible():
    with pytest.raises(InfeasibleError):
        solve_linear_program([F(1)], [([F(1)], "<=", F(-1))])


def test_lp_zero_target():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 0)
    sol = solve_lp(inst)
    assert sol.value == 0
    assert all(x == 0 for x in sol.x)


def test_lp_gap_family_value():
    fam = gen_gap_family(1)
    primal = solve_lp(fam.instance)
    assert primal.value == 13
    assert solve_dual(fam.instance, primal).value == 13


def test_embedded_gap_dual_is_feasible_and_optimal():
    fam = gen_gap_family(1)
    assert is_dual_feasible(fam.instance, fam.dual_y, fam.dual_lam)
    assert dual_value(fam.instance, fam.dual_y, fam.dual_lam) == 13


def test_strong_duality_and_ip_bound_random():
    for seed in range(12):
        inst = corpus_instance(seed)
        primal = solve_lp(inst)
        dual = solve_dual(inst, primal)
        assert primal.value == dual.value
        _, ip = brute_force_partial(inst)
        assert primal.value <= ip


def test_dual_p_zero():
    inst = make_instance([[1]], [1], [1], 0)
    dual = solve_dual(inst, solve_lp(inst))
    assert dual.value == 0


def _simplex_instances():
    for seed in range(1, 51):
        yield reduce_multicut(gen_random_tree_instance(seed))[0]
    for seed in range(2, 21):
        yield reduce_path_hitting(*gen_random_path_hitting(seed))[0]
    for dimension in (1, 2, 3):
        for seed in range(1, 11):
            yield reduce_rectangle_stabbing(gen_random_rectangles(seed, dimension))[0]
    for seed in range(60):
        yield corpus_instance(seed)


def test_tableau_duals_match_reference_dual_simplex():
    for inst in _simplex_instances():
        primal = solve_lp(inst)
        dual = solve_dual(inst, primal)
        assert is_dual_feasible(inst, dual.y, dual.lam)
        assert dual.value == primal.value == reference_solve_dual(inst).value


def test_solve_dual_rejects_a_point_without_certified_duals():
    inst = corpus_instance(1)
    primal = solve_lp(inst)
    with pytest.raises(InternalInvariantError, match="dual LP solution is infeasible"):
        solve_dual(inst, replace(primal, y=None, lam=None))
    with pytest.raises(InternalInvariantError, match="dual LP solution is infeasible"):
        solve_dual(inst, replace(primal, lam=-primal.lam - 1))


def _shifted_dual(instance, primal):
    dual = solve_dual(instance, primal)
    return replace(dual, value=dual.value + 1)


def test_rho_solve_fails_on_unequal_lp_objectives(monkeypatch):
    monkeypatch.setattr(pipeline, "solve_dual", _shifted_dual)
    with pytest.raises(AuditError,
                       match="strong duality failed on the original relaxation"):
        solve_rho_separable(*reduce_multicut(gen_random_tree_instance(1)))


def test_verify_lp_duality_fails_on_unequal_objectives(monkeypatch, tmp_path, capsys):
    inst = gen_gap_family(1).instance
    path = tmp_path / "gap1.pcov"
    path.write_text(formats.render_instance(inst))
    monkeypatch.setattr(cli, "solve_dual", _shifted_dual)
    assert cli.main(["verify", "lp-duality", "--input", str(path)]) == cli.EXIT_AUDIT
    assert capsys.readouterr().out == "primal=13 dual=14 FAIL\n"


def test_one_simplex_per_rho_solve_and_lp_duality_check(monkeypatch, tmp_path):
    calls = []

    def counting(*args, _real=lp.solve_linear_program):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(lp, "solve_linear_program", counting)
    inst, dec = reduce_multicut(gen_random_tree_instance(1))
    solve_rho_separable(inst, dec)
    assert len(calls) == 1
    path = tmp_path / "mc.pcov"
    path.write_text(formats.render_instance(inst))
    assert cli.main(["verify", "lp-duality", "--input", str(path)]) == cli.EXIT_OK
    assert len(calls) == 2


def test_rho_one_runs_no_simplex(monkeypatch):
    # With one part the reduced instance is the input, and the inner solve
    # certifies its LP value: no simplex runs at rho = 1, one at rho = 2.
    calls = []

    def counting(*args, _real=lp.solve_linear_program):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(lp, "solve_linear_program", counting)
    for seed in range(1, 6):
        inst, dec, _ = reduce_rectangle_stabbing(gen_random_rectangles(seed, 1))
        assert dec.rho == 1
        report = solve_rho_separable(inst, dec)
        assert not calls
        assert report.audits["rho_lp_bound"]
        assert report.lp_value == solve_lp(inst).value
        calls.clear()
    inst, dec = reduce_multicut(gen_random_tree_instance(1))
    solve_rho_separable(inst, dec)
    assert dec.rho == 2 and len(calls) == 1


def test_mixed_cover_point_on_gap_pair():
    # x1 and x2 mixed to cover exactly P give the family's LP optimum.
    for q in (1, 2):
        fam = gen_gap_family(q)
        inst = fam.instance
        point = mixed_cover_point(inst, Cover.of(fam.x1), Cover.of(fam.x2))
        assert point.value == fam.dl
        assert is_primal_feasible(inst, point.x, point.r)
        spent = sum(p * r for p, r in zip(inst.profits, point.r))
        assert spent == inst.total_profit() - inst.target


def test_is_primal_feasible_rejects_each_violation():
    inst = make_instance([[1, 0], [1, 1]], [1, 2], [1, 1], 1)
    assert is_primal_feasible(inst, (F(1), F(0)), (F(0), F(0)))
    assert not is_primal_feasible(inst, (F(1, 2), F(0)), (F(0), F(0)))  # row 0
    assert not is_primal_feasible(inst, (F(0), F(0)), (F(1), F(1)))  # budget
    assert not is_primal_feasible(inst, (F(2), F(-1)), (F(0), F(0)))  # sign
    assert not is_primal_feasible(inst, (F(0), F(0)), (F(1),))  # short r


def test_is_dual_feasible_rejects_each_violation():
    inst = make_instance([[1, 0], [1, 1]], [2, 1], [1, 1], 1)
    assert is_dual_feasible(inst, (F(1), F(1)), F(1))
    assert not is_dual_feasible(inst, (F(1, 2), F(3, 2)), F(2))  # set 1 cost
    assert not is_dual_feasible(inst, (F(1), F(1)), F(1, 2))  # cap
    assert not is_dual_feasible(inst, (F(-1), F(0)), F(1))  # sign


def test_certified_lp_value_matches_simplex_on_corpus():
    for seed in range(200):
        inst = corpus_instance(seed)
        assert solve_partial_tbc(inst).lp_value == solve_lp(inst).value, seed


def test_certified_lp_value_matches_simplex_on_gap_and_empty():
    for q in (1, 2):
        inst = gen_gap_family(q).instance
        assert solve_partial_tbc(inst).lp_value == solve_lp(inst).value, q
    empty = make_instance([], [1, 2], [], 0)
    assert solve_partial_tbc(empty).lp_value == solve_lp(empty).value == 0


def test_certified_lp_value_matches_simplex_on_rho_reductions(monkeypatch):
    solved = []

    def recording(instance, **kwargs):
        report = solve_partial_tbc(instance, **kwargs)
        solved.append((instance, report))
        return report

    monkeypatch.setattr(pipeline, "solve_partial_tbc", recording)
    for seed in range(1, 21):
        inst, dec = reduce_multicut(gen_random_tree_instance(seed))
        solve_rho_separable(inst, dec)
    assert len(solved) == 20
    for reduced, report in solved:
        assert report.lp_value == solve_lp(reduced).value


def test_failed_dual_check_fails_strong_duality(monkeypatch):
    monkeypatch.setattr(pipeline, "is_dual_feasible", lambda *args, **kwargs: False)
    with pytest.raises(AuditError, match="strong_duality"):
        solve_partial_tbc(corpus_instance(1))


def test_unequal_objectives_fail_strong_duality(monkeypatch):
    def off_by_one(*args, **kwargs):
        point = mixed_cover_point(*args, **kwargs)
        return replace(point, value=point.value + 1)

    monkeypatch.setattr(pipeline, "mixed_cover_point", off_by_one)
    with pytest.raises(AuditError, match="strong_duality"):
        solve_partial_tbc(corpus_instance(1))
