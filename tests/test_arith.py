"""Exact arithmetic: rationals and the formal infinitesimal."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pcover.arith import (DeltaRational, as_rational, common_scale,
                          format_rational, fraction_sum, parse_rational)
from pcover.generators import Lcg

# Denominators that share factors (4, 6, 12, 2**20), are coprime (7, 11,
# 13, 97) or are large, so the running lcm both stays and grows.
DENOMINATORS = (1, 2, 3, 4, 6, 7, 11, 12, 13, 97, 2 ** 20, 3 ** 12, 7 * 11 * 13)
TERMS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.just(0),
    st.just(F(0)),
    st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.sampled_from(DENOMINATORS)),
)


def test_rational_round_trip_property():
    rng = Lcg(7)
    for _ in range(200):
        a = F(rng.below(2000) - 1000, 1 + rng.below(50))
        b = F(rng.below(2000) - 1000, 1 + rng.below(50))
        if b == 0:
            continue
        assert (a / b) * b == a


def test_rational_is_canonical():
    x = F(6, 4)
    assert x.numerator == 3 and x.denominator == 2
    assert F(-6, 4).denominator == 2


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(TERMS, max_size=30))
@example([])
@example([F(1, 3), F(-1, 3)])
@example([F(1, 2), F(1, 3), F(1, 6)])
def test_fraction_sum_matches_fraction_addition(values):
    total = fraction_sum(values)
    assert type(total) is F
    assert total == sum(values, F(0))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(TERMS, max_size=30), st.sampled_from(DENOMINATORS))
@example([], 1)
@example([F(1, 6), F(5, 6)], 4)
@example([F(3, 7), 2, F(-1, 7)], 1)
def test_common_scale_puts_values_over_one_denominator(values, unit):
    scale, ints = common_scale(values, unit)
    assert scale > 0 and not scale % unit
    assert all(not scale % F(v).denominator for v in values)
    assert [type(k) for k in ints] == [int] * len(values)
    assert [F(k, scale) for k in ints] == [F(v) for v in values]
    # the least such denominator
    assert all(scale // p % unit or any((scale // p) % F(v).denominator for v in values)
               for p in (2, 3, 5, 7, 11, 13, 97) if not scale % p)


def test_as_rational_returns_a_fraction_as_it_is():
    x = F(3, 7)
    assert as_rational(x) is x
    assert as_rational(3) == F(3) and as_rational("3/7") == x
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        DeltaRational(1) * 0.5


def test_parse_format_round_trip():
    for text in ["3", "-3", "3/4", "-7/5", "0"]:
        assert format_rational(parse_rational(text)) == text


def _three_way(a, b):
    return (a > b) - (a < b)


def test_three_way_order_spec_examples():
    assert _three_way(DeltaRational(1, 0), DeltaRational(1, 0)) == 0
    assert _three_way(DeltaRational(1, -5), DeltaRational(1, 0)) == -1
    assert _three_way(DeltaRational(2, -100), DeltaRational(1, 100)) == 1


def test_delta_arithmetic():
    a = DeltaRational(F(1, 2), 3)
    b = DeltaRational(F(1, 2), -1)
    assert a + b == DeltaRational(1, 2)
    assert a - b == DeltaRational(0, 4)
    assert -a == DeltaRational(F(-1, 2), -3)
    assert a * F(2, 3) == DeltaRational(F(1, 3), 2)
    assert F(2) * a == DeltaRational(1, 6)


def test_delta_product_is_undefined():
    with pytest.raises(TypeError):
        DeltaRational(1, 1) * DeltaRational(1, 1)


def test_positivity():
    assert DeltaRational(0, 1).is_positive()
    assert not DeltaRational(0, 0).is_positive()
    assert not DeltaRational(0, -1).is_positive()
    assert DeltaRational(F(1, 10), -100).is_positive()
    assert DeltaRational(0, -1) < 0 < DeltaRational(0, 1)


def test_order_matches_small_concrete_evaluations():
    # For any finite sample there is a positive d0 below which numeric
    # evaluation agrees with the lexicographic order.
    rng = Lcg(13)
    sample = [DeltaRational(F(rng.below(9) - 4, 1 + rng.below(3)),
                            F(rng.below(9) - 4, 1 + rng.below(3)))
              for _ in range(25)]
    gaps = []
    for a in sample:
        for b in sample:
            dv = abs(a.value - b.value)
            dd = abs(a.delta - b.delta)
            if dv:
                gaps.append(dv / (dd + 1))
    d0 = min(gaps) / 2
    for a in sample:
        for b in sample:
            va, vb = a.value + a.delta * d0, b.value + b.delta * d0
            assert _three_way(va, vb) == _three_way(a, b)
