"""Instances, covers, permutations."""

from collections import Counter
from fractions import Fraction as F

import pytest

from dense import rows_of
from pcover.errors import InputError
from pcover.generators import Lcg, corpus_instance
from pcover.model import (Cover, Decomposition, PermutationPair, ScaledCoverage,
                          cover_cost, covered_element_mask, covered_profit,
                          make_instance, permute_instance)


def test_make_instance_minimal():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 1)
    assert inst.n == 2 and inst.m == 2
    assert inst.target == 1


def test_non_binary_entry_rejected():
    with pytest.raises(InputError, match="non-binary entry"):
        make_instance([[2]], [1], [1], 0)


def test_infeasible_target_rejected():
    with pytest.raises(InputError, match="infeasible target"):
        make_instance([[1]], [1], [1], 2)


def test_negative_cost_and_profit_rejected():
    with pytest.raises(InputError, match="^negative cost -1 at set 0$"):
        make_instance([[1]], [-1], [1], 0)
    with pytest.raises(InputError, match="^negative profit -1 at element 0$"):
        make_instance([[1]], [1], [-1], 0)
    with pytest.raises(InputError, match="^negative cost -1/3 at set 1$"):
        make_instance([[1, 1]], [0, F(-1, 3)], [1], 0)
    with pytest.raises(InputError, match="^negative profit -2/7 at element 1$"):
        make_instance([[1], [1]], [1], [0, F(-2, 7)], 0)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        make_instance([[1, 0], [1]], [1, 1], [1, 1], 0)
    with pytest.raises(InputError, match="costs"):
        make_instance([[1, 0]], [1], [1], 0)


def test_covered_profit_examples():
    inst = make_instance([[1, 1], [0, 1]], [1, 1], [1, 1], 0)
    assert covered_profit(inst, Cover.of([])) == 0
    assert covered_profit(inst, Cover.of([0, 1])) == inst.total_profit()
    assert covered_profit(inst, Cover.of([1])) == 2  # second set covers both


def test_scaled_profits_are_exact_and_kept():
    inst = make_instance([[1], [1], [0]], [1], [F(1, 6), 0, F(3, 4)], 0)
    assert inst.scaled_profits() == (12, (2, 0, 9))
    assert inst.scaled_profits() is inst.scaled_profits()
    assert make_instance([], [], [], 0).scaled_profits() == (1, ())


def test_scaled_costs_are_exact_and_kept():
    inst = make_instance([[1, 0, 1]], [F(5, 6), 0, F(7, 4)], [1], 0)
    assert inst.scaled_costs() == (12, (10, 0, 21))
    assert inst.scaled_costs() is inst.scaled_costs()
    assert make_instance([], [], [], 0).scaled_costs() == (1, ())


def test_covered_profit_monotone_under_inclusion():
    rng = Lcg(5)
    for seed in range(10):
        inst = corpus_instance(seed)
        subset = [j for j in range(inst.m) if rng.below(2)]
        superset = sorted(set(subset) | {j for j in range(inst.m) if rng.below(2)})
        assert covered_profit(inst, Cover.of(subset)) <= covered_profit(
            inst, Cover.of(superset))


def test_cover_cost():
    inst = make_instance([[1, 1]], [F(1, 2), F(1, 3)], [1], 0)
    assert cover_cost(inst, Cover.of([0, 1])) == F(5, 6)


def test_cover_rejects_duplicates_and_out_of_range():
    with pytest.raises(InputError):
        Cover.of([1, 1])
    inst = make_instance([[1]], [1], [1], 0)
    with pytest.raises(InputError):
        covered_profit(inst, Cover.of([3]))


def test_permutation_round_trip():
    pair = PermutationPair((2, 0, 1), (1, 0))
    inv = pair.inverse()
    assert [inv.row_perm[pair.row_perm[i]] for i in range(3)] == [0, 1, 2]
    assert [inv.col_perm[pair.col_perm[j]] for j in range(2)] == [0, 1]


def test_permutation_rejects_non_bijection():
    with pytest.raises(InputError):
        PermutationPair((0, 0), (0, 1))


def test_permute_instance_moves_data_consistently():
    inst = make_instance([[1, 0], [1, 1]], [3, 4], [5, 6], 2)
    pair = PermutationPair((1, 0), (1, 0))
    out = permute_instance(inst, pair)
    assert rows_of(out) == ((1, 1), (0, 1))
    assert out.costs == (F(4), F(3))
    assert out.profits == (F(6), F(5))
    back = permute_instance(out, pair.inverse())
    assert back == inst


def test_decomposition_validation_messages():
    inst = make_instance([[1, 0], [0, 1]], [1, 1], [1, 1], 1)
    Decomposition(2, (((1, 0), (0, 0)), ((0, 0), (0, 1)))).validate_against(inst)
    for wrong in (((0, 0),), ((0, 0), (0,))):
        with pytest.raises(InputError) as raised:
            Decomposition(2, (((1, 0), (0, 1)), wrong)).validate_against(inst)
        assert str(raised.value) == "part 1 has wrong shape"
    # Mismatches at (0, 1) and (1, 0): the first in row-major order is named.
    with pytest.raises(InputError) as raised:
        Decomposition(2, (((1, 1), (1, 1)), ((0, 0), (0, 0)))).validate_against(inst)
    assert str(raised.value) == "parts sum to 1 != 0 at row 0, column 1"


def _random_instance(rng, n, m, profit):
    """An n x m matrix with about a third of its entries set and the last
    row in no set; `profit(i)` gives element i's profit."""
    rows = [[int(rng.below(3) == 0) for _ in range(m)] for _ in range(n)]
    if rows:
        rows[-1] = [0] * m
    return make_instance(rows, [1] * m, [profit(i) for i in range(n)], 0)


def test_scaled_coverage_equals_the_fraction_covered_profit():
    # Random covers' element masks, against covered_profit times L_p, on
    # zero profits, n = 0, two profit classes and all-distinct profits.
    # The class sum runs when the classes are no more than the bits on the
    # smaller side of the mask; the walk over that side runs otherwise, and
    # always when the classes outnumber half the coverable elements.
    rng = Lcg(11)
    instances = [
        make_instance([], [1, 2], [], 0),
        _random_instance(rng, 40, 8, lambda i: F(0)),
        _random_instance(rng, 40, 8, lambda i: F(i % 3)),
        _random_instance(rng, 60, 10, lambda i: (F(3, 2), F(5))[rng.below(2)]),
        _random_instance(rng, 60, 10, lambda i: F(i + 1, i + 2)),
        corpus_instance(7),
    ]
    paths = Counter()
    for inst in instances:
        l_p, values = inst.scaled_profits()
        coverage = ScaledCoverage(inst, values)
        count = len(set(values) - {0})
        if count > coverage.coverable.bit_count() // 2:
            assert coverage.classes is None
        else:
            assert len(coverage.classes) == count
        for _ in range(60):
            cover = Cover.of(j for j in range(inst.m) if rng.below(3))
            mask = covered_element_mask(inst, cover)
            missed = coverage.coverable & ~mask
            if count <= min(missed.bit_count(), mask.bit_count()):
                paths["classes"] += 1
            else:
                paths["missed" if missed.bit_count() < mask.bit_count() else "mask"] += 1
            assert coverage(mask) == covered_profit(inst, cover) * l_p
        everything = covered_element_mask(inst, Cover.of(range(inst.m)))
        assert coverage(everything) == inst.coverable_profit() * l_p
        assert coverage(0) == 0
    assert paths["classes"] and paths["missed"] and paths["mask"], paths
