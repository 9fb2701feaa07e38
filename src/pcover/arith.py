"""Exact scalar arithmetic: rationals plus a formal infinitesimal term.

Every number on the solver path is a `fractions.Fraction`; floats are
rejected at the boundary.  On top of plain rationals sits `DeltaRational`,
the value ``value + delta * d`` for a formal infinitesimal ``d > 0``,
ordered lexicographically.  The infinitesimal is never instantiated as a
small concrete number, so perturbed multiplier runs need no tolerance
tuning: ties are decided exactly by the delta coefficient.

`fraction_sum` adds Fractions (and ints) exactly as `sum(values,
Fraction(0))` does, but keeps one numerator over the running lcm of the
denominators and normalises once, at the end, instead of building a
normalised Fraction per term.  `common_scale` puts a list of Fractions
over one common denominator as ints, so that a certificate predicate can
decide every sum and comparison on ints and build a Fraction only to word
a failure.  Both serve the checker and model side (audits, LP certificate
predicates, instance totals).  The solving kernel (`kolen._packed_dual_update`,
`threshold._SymbolicPass`, the `merger.MergeContext` recursion) never
calls either, and the checker never reads the kernel's own scaling
(`Instance.scaled_profits()`, `scaled_costs()`, the packed ints): each
side scales the instance's Fractions with code of its own, so a fault in
one cannot be shared by the kernel and the checker that checks it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Union

Rational = Fraction

RationalLike = Union[int, Fraction, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats to keep the arithmetic exact.

    A Fraction is returned as it is: it is immutable, so sharing it is safe.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"floats are not allowed in exact arithmetic: {x!r}")
    return Fraction(x)


def fraction_sum(values: Iterable[Fraction | int]) -> Fraction:
    """Exact sum of Fractions and ints, equal to ``sum(values, Fraction(0))``.

    The numerator is kept over the running lcm of the denominators, and one
    Fraction is built (and normalised) at the end.
    """
    num, den = 0, 1
    for v in values:
        d = v.denominator
        if d == den:
            num += v.numerator
        elif not den % d:
            num += v.numerator * (den // d)
        else:
            g = gcd(den, d)
            num = num * (d // g) + v.numerator * (den // g)
            den *= d // g
    return Fraction(num, den)


_numerators = attrgetter("numerator")
_denominators = attrgetter("denominator")


def common_scale(values: Iterable[Fraction | int],
                 unit: int = 1) -> tuple[int, list[int]]:
    """(D, ints): D the lcm of `unit` and the values' denominators, and
    ints[k] = values[k] * D, exact.

    Ints compare and add like the values they scale, so a predicate can
    decide its clauses on them.  Passing `unit` makes D a multiple of it,
    so values known as ints over `unit` (a cap lambda * p_i, say) join the
    same denominator by one multiplication each.
    """
    values = list(values)
    dens = list(map(_denominators, values))
    distinct = set(dens)
    scale = lcm(unit, *distinct)
    factors = {d: scale // d for d in distinct}
    return scale, list(map(mul, map(_numerators, values),
                           map(factors.__getitem__, dens)))


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse 'num' or 'num/den' into a Fraction: an optional sign, digits,
    and optionally a slash and digits, around which whitespace is ignored.

    Anything else (an exponent, a decimal point, an underscore) is not a
    rational here, so no token reaches `Fraction` unchecked: a short
    exponent such as '1e999999999' would make it build 10**999999999.
    """
    parts = _RATIONAL.fullmatch(text.strip())
    if parts is not None:
        num, den = parts.groups()
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):  # too many digits, den 0
            pass
    raise ValueError(f"not a rational: {text!r}")


def format_rational(x: Fraction) -> str:
    """Canonical text form: 'num' for integers, otherwise 'num/den'."""
    return str(Fraction(x))


class DeltaRational:
    """The exact value ``value + delta * d`` for an infinitesimal d > 0.

    Supports addition, subtraction, negation, multiplication by a plain
    rational scalar, and total lexicographic ordering.  Multiplying two
    DeltaRationals is undefined (it would create a d**2 term) and raises.
    """

    __slots__ = ("value", "delta")

    def __init__(self, value: RationalLike = 0, delta: RationalLike = 0):
        self.value = as_rational(value)
        self.delta = as_rational(delta)

    @classmethod
    def of_fractions(cls, value: Fraction, delta: Fraction) -> "DeltaRational":
        """Build from two Fractions as they are, with no coercion."""
        self = object.__new__(cls)
        self.value = value
        self.delta = delta
        return self

    @staticmethod
    def of(x: "DeltaRational | RationalLike") -> "DeltaRational":
        if isinstance(x, DeltaRational):
            return x
        return DeltaRational(x)

    def __add__(self, other):
        other = DeltaRational.of(other)
        return DeltaRational.of_fractions(self.value + other.value,
                                          self.delta + other.delta)

    __radd__ = __add__

    def __sub__(self, other):
        other = DeltaRational.of(other)
        return DeltaRational.of_fractions(self.value - other.value,
                                          self.delta - other.delta)

    def __rsub__(self, other):
        return DeltaRational.of(other) - self

    def __neg__(self):
        return DeltaRational.of_fractions(-self.value, -self.delta)

    def __mul__(self, scalar):
        if isinstance(scalar, DeltaRational):
            raise TypeError("cannot multiply two DeltaRationals (d**2 is undefined)")
        s = as_rational(scalar)
        return DeltaRational.of_fractions(self.value * s, self.delta * s)

    __rmul__ = __mul__

    def _key(self):
        return (self.value, self.delta)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DeltaRational(other)
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        return self._key() < DeltaRational.of(other)._key()

    def __le__(self, other):
        return self._key() <= DeltaRational.of(other)._key()

    def __gt__(self, other):
        return self._key() > DeltaRational.of(other)._key()

    def __ge__(self, other):
        return self._key() >= DeltaRational.of(other)._key()

    def __hash__(self):
        return hash(self._key())

    def is_positive(self) -> bool:
        """Strictly positive for every sufficiently small infinitesimal."""
        return self.value > 0 or (self.value == 0 and self.delta > 0)

    def is_nonnegative(self) -> bool:
        return not (-self).is_positive()

    def __repr__(self):
        return f"DeltaRational({self.value}, {self.delta})"

    def __str__(self):
        if not self.delta:
            return format_rational(self.value)
        sign = "+" if self.delta > 0 else "-"
        return f"{format_rational(self.value)}{sign}{format_rational(abs(self.delta))}d"
