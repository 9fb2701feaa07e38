"""Totally balanced recognition and greedy standard form."""

from itertools import permutations

import pytest

from dense import masks_instance, rows_of
from pcover.errors import GUARD_ENV, SizeGuardError
from pcover.generators import gen_random_descending_paths
from pcover.model import make_instance, permute_instance, row_bitmasks
from pcover.tb import (GammaWitness, gamma_witness, is_gamma_free,
                       is_totally_balanced, standard_greedy_form)

ODD_CYCLE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def dense_instance(rows):
    """A 0/1 matrix as the instance `pcover.tb` reads."""
    return masks_instance(row_bitmasks(rows), len(rows[0]) if rows else 0)


def reordered(rows):
    """`standard_greedy_form` of a 0/1 matrix, and the instance over it
    permuted by the form's permutation (None when there is no form)."""
    inst = make_instance(rows, [0] * len(rows[0]), [0] * len(rows), 0)
    sgf = standard_greedy_form(inst)
    return sgf, permute_instance(inst, sgf.perm) if sgf.ok else None


def brute_force_gamma_free_ordering_exists(rows):
    """Independent oracle: try every row and column ordering."""
    n, m = len(rows), len(rows[0]) if rows else 0
    for rp in permutations(range(n)):
        for cp in permutations(range(m)):
            permuted = [[rows[i][j] for j in cp] for i in rp]
            if is_gamma_free(dense_instance(permuted)):
                return True
    return False


def test_gamma_identity_matrix():
    assert is_gamma_free(dense_instance([[1, 0], [0, 1]]))
    assert is_gamma_free(dense_instance([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_gamma_witness_on_forbidden_pattern():
    inst = dense_instance([[1, 1], [1, 0]])
    w = gamma_witness(inst.row_masks, inst.element_sets())
    assert w == GammaWitness((0, 1), (0, 1))


def test_gamma_free_mirrored_pattern():
    assert is_gamma_free(dense_instance([[1, 1], [0, 1]]))


def test_interval_matrices_are_totally_balanced():
    assert is_totally_balanced(
        dense_instance([[1, 1, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0]]))


def test_odd_cycle_not_totally_balanced():
    assert not is_totally_balanced(dense_instance(ODD_CYCLE))


def test_single_entry_matrix():
    assert is_totally_balanced(dense_instance([[1]]))


def test_tb_check_size_guard(monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    big = [[0] * 13 for _ in range(13)]
    with pytest.raises(SizeGuardError):
        is_totally_balanced(dense_instance(big))


def test_guard_override_env(monkeypatch):
    monkeypatch.setenv(GUARD_ENV, "1")
    big = [[0] * 13 for _ in range(13)]
    assert is_totally_balanced(dense_instance(big))  # all-zero matrix, trivially balanced


def test_sgf_on_already_gamma_free():
    sgf, permuted = reordered([[1, 0], [0, 1]])
    assert sgf.ok and sgf.mode == "identity"
    assert rows_of(permuted) == ((1, 0), (0, 1))


def test_sgf_on_forbidden_pattern():
    sgf, permuted = reordered([[1, 1], [1, 0]])
    assert sgf.ok
    assert is_gamma_free(permuted)
    # cross-check against the exhaustive-ordering oracle
    assert brute_force_gamma_free_ordering_exists([[1, 1], [1, 0]])


def test_sgf_fails_on_odd_cycle():
    sgf, _ = reordered(ODD_CYCLE)
    assert not sgf.ok
    assert not brute_force_gamma_free_ordering_exists(ODD_CYCLE)


def test_sgf_matches_permutation():
    rows = ((1, 1, 0), (1, 0, 1), (0, 0, 1))
    sgf, permuted = reordered(rows)
    assert sgf.ok
    assert is_gamma_free(permuted)
    assert sgf.perm.apply_to_matrix(rows) == rows_of(permuted)


def test_exhaustive_3x3_cross_validation():
    # Every 3x3 0/1 matrix: reordering succeeds iff the definitional check
    # passes, and agrees with the brute-force ordering oracle.
    for bits in range(1 << 9):
        rows = tuple(tuple((bits >> (3 * i + j)) & 1 for j in range(3))
                     for i in range(3))
        sgf, permuted = reordered(rows)
        tb = is_totally_balanced(dense_instance(rows))
        assert sgf.ok == tb, rows
        if sgf.ok:
            assert is_gamma_free(permuted)


def test_sgf_on_random_descending_path_matrices():
    for seed in range(25):
        inst, _ = gen_random_descending_paths(seed, 8, 6, 6)
        sgf = standard_greedy_form(inst)
        assert sgf.ok
        assert is_gamma_free(permute_instance(inst, sgf.perm))
        assert is_totally_balanced(inst)


def test_wide_matrix_uses_transposed_fallback_consistently():
    rows = [[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]]
    sgf, permuted = reordered(rows)
    assert sgf.ok and is_gamma_free(permuted)
