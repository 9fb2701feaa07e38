"""Malformed and degenerate inputs fail only with the documented errors.

A mutated file either raises InputError (exit 2; from the solver, for a
matrix that is not totally balanced) or parses and solves.  A degenerate
instance either solves at or above the exhaustive optimum or raises
InputError or InfeasibleError (exit 3).  No other exception may escape.
"""

from hypothesis import given, settings, strategies as st

from dense import rows_of
from pcover.errors import InfeasibleError, InputError
from pcover.formats import parse_instance, render_instance
from pcover.generators import corpus_instance
from pcover.model import covered_profit, make_instance
from pcover.pipeline import brute_force_partial, solve_partial_tbc

SEEDS = st.integers(1, 600)


MUTATION = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                     st.integers(0, 10 ** 6),
                     st.sampled_from(list("0123456789/-. #x\n")))


@settings(max_examples=800, deadline=None, derandomize=True)
@given(SEEDS, st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_files_solve_or_raise_input_error(seed, mutations):
    chars = list(render_instance(corpus_instance(seed)))
    for kind, where, ch in mutations:
        k = where % len(chars)
        if kind == "replace":
            chars[k] = ch
        elif kind == "insert":
            chars.insert(k, ch)
        else:
            del chars[k]
    text = "".join(chars)
    try:
        inst = parse_instance(text)
    except InputError:
        return
    try:
        report = solve_partial_tbc(inst)
    except InputError:
        return
    assert covered_profit(inst, report.cover) >= inst.target


EDIT = st.tuples(st.sampled_from(["zero_cost", "zero_profit", "duplicate_row",
                                  "duplicate_column", "empty_row",
                                  "empty_column", "target_zero",
                                  "target_coverable"]),
                 st.integers(0, 10 ** 6))


def _edited(seed, edits):
    """A corpus instance's data after the degenerate edits, in order."""
    inst = corpus_instance(seed)
    rows = [list(row) for row in rows_of(inst)]
    costs, profits, target = list(inst.costs), list(inst.profits), inst.target
    for kind, pick in edits:
        i, j = pick % len(rows), pick % len(costs)
        if kind == "zero_cost":
            costs[j] = 0
        elif kind == "zero_profit":
            profits[i] = 0
        elif kind == "duplicate_row":
            rows.append(list(rows[i]))
            profits.append(profits[i])
        elif kind == "duplicate_column":
            for row in rows:
                row.append(row[j])
            costs.append(costs[j])
        elif kind == "empty_row":
            rows.append([0] * len(costs))
            profits.append(profits[i])
        elif kind == "empty_column":
            for row in rows:
                row.append(0)
            costs.append(costs[j])
        elif kind == "target_zero":
            target = 0
        else:
            target = sum(p for p, row in zip(profits, rows) if any(row))
    return rows, costs, profits, target


@settings(max_examples=400, deadline=None, derandomize=True)
@given(SEEDS, st.lists(EDIT, min_size=1, max_size=3))
def test_degenerate_edits_solve_at_or_above_oracle(seed, edits):
    try:
        inst = make_instance(*_edited(seed, edits))
        parsed = parse_instance(render_instance(inst))
        report = solve_partial_tbc(parsed)
    except (InputError, InfeasibleError):
        return
    assert parsed == inst
    assert covered_profit(inst, report.cover) >= inst.target
    _, oracle_cost = brute_force_partial(inst)
    assert report.cost >= oracle_cost
