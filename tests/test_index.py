"""The instance's sparse index: built once, equal to the masks it indexes,
mapped through permutations and submatrices, and read by every walk over
the fixed matrix in place of `bit_indices`."""

import importlib
import sys

from pcover import arith, formats, model, pipeline
from pcover.generators import Lcg, corpus_instance, gen_gap_family
from pcover.model import (PermutationPair, bit_indices,
                          covered_element_mask, permute_instance, sub_instance)
from pcover.threshold import find_threshold
from test_pipeline import _lcg_shuffle

threshold_module = importlib.import_module("pcover.threshold")


def gap_inputs():
    """Gap q = 1..4, canonical and under Lcg shuffles 1..3."""
    for q in (1, 2, 3, 4):
        base = gen_gap_family(q).instance
        yield base
        for seed in (1, 2, 3):
            rng = Lcg(seed)
            yield permute_instance(base, PermutationPair(_lcg_shuffle(base.n, rng),
                                                         _lcg_shuffle(base.m, rng)))


def assert_index_matches_masks(instance):
    assert instance.element_sets() == tuple(map(bit_indices, instance.row_masks))
    assert instance.set_elements() == tuple(map(bit_indices, instance.col_masks))
    # The column masks are the transpose of the row masks.
    for j, mask in enumerate(instance.col_masks):
        assert mask == sum(1 << i for i, row in enumerate(instance.row_masks)
                           if row >> j & 1)


def test_index_equals_the_masks_on_corpus_and_gap():
    for seed in range(600):
        assert_index_matches_masks(corpus_instance(seed))
    for instance in gap_inputs():
        assert_index_matches_masks(instance)


def test_mapped_index_equals_the_masks():
    # permute_instance and sub_instance build the masks from the mapped
    # index; both must describe the same matrix.
    rng = Lcg(7)
    for seed in range(0, 600, 5):
        inst = corpus_instance(seed)
        perm = PermutationPair(_lcg_shuffle(inst.n, rng), _lcg_shuffle(inst.m, rng))
        permuted = permute_instance(inst, perm)
        assert_index_matches_masks(permuted)
        for i, row in enumerate(inst.row_masks):
            for j in range(inst.m):
                assert (permuted.row_masks[perm.row_perm[i]] >> perm.col_perm[j] & 1
                        == row >> j & 1)
        keep_rows = tuple(i for i in range(inst.n) if rng.below(3))
        keep_cols = tuple(j for j in range(inst.m) if rng.below(3))
        sub = sub_instance(inst, keep_rows, keep_cols, 0)
        assert_index_matches_masks(sub)
        assert sub.row_masks == tuple(
            sum(1 << k for k, j in enumerate(keep_cols) if inst.row_masks[i] >> j & 1)
            for i in keep_rows)
    for instance in gap_inputs():
        perm = PermutationPair(_lcg_shuffle(instance.n, rng),
                               _lcg_shuffle(instance.m, rng))
        assert_index_matches_masks(permute_instance(instance, perm))
        keep_rows = tuple(range(0, instance.n, 2))
        keep_cols = tuple(range(1, instance.m, 3))
        assert_index_matches_masks(sub_instance(instance, keep_rows, keep_cols, 0))


def test_set_elements_is_built_on_first_use():
    inst = corpus_instance(3)
    assert inst._set_elements is None
    members = inst.set_elements()
    assert inst.set_elements() is members


def test_equal_rows_share_one_index_tuple():
    inst = model.make_instance([[1, 0, 1], [1, 0, 1], [0, 1, 0]], [1, 1, 1],
                               [1, 1, 1], 1)
    assert inst.element_sets()[0] is inst.element_sets()[1]


def counted_bit_indices(monkeypatch):
    """Replace `bit_indices` in every pcover module that imported it; the
    returned list grows by one per call."""
    calls = []
    original = model.bit_indices

    def counting(mask):
        calls.append(1)
        return original(mask)

    for name, module in list(sys.modules.items()):
        if (name == "pcover" or name.startswith("pcover.")) and \
                getattr(module, "bit_indices", None) is original:
            monkeypatch.setattr(module, "bit_indices", counting)
    return calls


def test_bit_indices_walks_each_row_once_then_only_dynamic_masks(monkeypatch):
    text = formats.render_instance(gen_gap_family(4).instance)
    calls = counted_bit_indices(monkeypatch)
    instance = formats.parse_instance(text)
    assert len(calls) <= instance.n == 768
    calls.clear()
    pipeline.solve_partial_tbc(instance)
    assert len(calls) <= 1000  # covers, subtrees and coverage sums only


def test_probe_coverage_reads_the_prunes_union(monkeypatch):
    # Each run's `covered` is the union of its pruned sets' columns, and the
    # threshold search measures probe coverage on it without rebuilding it.
    rebuilt = []
    original = threshold_module.covered_element_mask

    def counting(instance, cover):
        rebuilt.append(cover)
        return original(instance, cover)

    monkeypatch.setattr(threshold_module, "covered_element_mask", counting)
    runs = []
    real_kolen = threshold_module.kolen

    def recording(instance, lam, prefix=None):
        run = real_kolen(instance, lam, prefix)
        runs.append((instance, run))
        return run

    monkeypatch.setattr(threshold_module, "kolen", recording)
    for q in (1, 2, 3):
        find_threshold(pipeline.to_greedy_form(gen_gap_family(q).instance)[0])
    for seed in range(1, 100):
        find_threshold(pipeline.to_greedy_form(corpus_instance(seed))[0])
    assert len(runs) > 100
    for instance, run in runs:
        assert run.covered == covered_element_mask(instance, run.pruned)
    assert len(rebuilt) < len(runs) / 10  # only the zero-cost sets' check


def test_checker_scales_each_instance_once_per_solve(monkeypatch):
    scaled = []
    common_scale = arith.common_scale

    def recording(values, unit=1):
        values = list(values)
        scaled.append(tuple(values))
        return common_scale(values, unit)

    for module in (pipeline, importlib.import_module("pcover.kolen"),
                   importlib.import_module("pcover.lp")):
        monkeypatch.setattr(module, "common_scale", recording)
    for instance in (gen_gap_family(2).instance, gen_gap_family(3).instance,
                     corpus_instance(5)):
        scaled.clear()
        report = pipeline.solve_partial_tbc(instance)
        work = report.work
        assert scaled.count(work.profits) == 1
        assert scaled.count(work.costs) == 1
