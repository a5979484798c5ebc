"""Exact scale arithmetic and finite range sets.

Every distance handled by this library is a non-negative rational kept in
exact form; comparisons, maxima and minima are never rounded.  Finite sets
of scales (always containing 0) index the petals of each model space.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

ScaleLike = Union[Fraction, int, str]


class Scale(Fraction):
    """A ``Fraction`` whose comparisons with another ``Scale`` are integer ones.

    ``Fraction`` compares through the ``numbers`` ABCs on every call.  Both
    sides here are normalised (lowest terms, positive denominator), so
    equality is equality of the two integer pairs and order is decided by
    one cross-multiplication.  Against anything else (a plain ``Fraction``,
    an int) the comparison is ``Fraction``'s own, so mixed comparisons,
    ``str``, ``hash`` and arithmetic are unchanged; arithmetic returns a
    plain ``Fraction``, which ``as_scale`` turns back into a ``Scale``.
    The hash is ``Fraction``'s, computed on the first ``hash()`` of each
    object and kept, so a parsed scale never hashed pays nothing for it.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        # Fraction's hash agrees with int's, and costs a modular pow per call
        try:
            return self._hash
        except AttributeError:
            self._hash = Fraction.__hash__(self)
            return self._hash

    def __eq__(self, other):
        if type(other) is Scale:
            return self._numerator == other._numerator and self._denominator == other._denominator
        return Fraction.__eq__(self, other)

    def __ne__(self, other):
        # without it, != falls back to object.__ne__, which calls __eq__
        if type(other) is Scale:
            return self._numerator != other._numerator or self._denominator != other._denominator
        eq = Fraction.__eq__(self, other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        if type(other) is Scale:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        if type(other) is Scale:
            return self._numerator * other._denominator <= other._numerator * self._denominator
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        if type(other) is Scale:
            return self._numerator * other._denominator > other._numerator * self._denominator
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        if type(other) is Scale:
            return self._numerator * other._denominator >= other._numerator * self._denominator
        return Fraction.__ge__(self, other)


def _scale(numerator: int, denominator: int) -> Scale:
    """The ``Scale`` of a numerator and a positive denominator in lowest terms."""
    x = object.__new__(Scale)
    x._numerator = numerator
    x._denominator = denominator
    return x


ZERO = _scale(0, 1)

# the whole input grammar of a scale string: p, p/q or p.q in ASCII digits
_SCALE_TEXT = re.compile(r"([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _parse_scale(text: str) -> Scale:
    m = _SCALE_TEXT.fullmatch(text)
    if m is None:
        raise ValueError(f"scale must be p, p/q or p.q in ASCII digits, got {text!r}")
    whole, denominator, decimals = m.groups()
    if decimals is not None:
        # one int() over all digits: the int-string limit refuses what str() could not print
        d = 10 ** len(decimals)
        n = int(whole + decimals)
    else:
        n = int(whole)
        d = 1 if denominator is None else int(denominator)
        if d == 0:
            raise ValueError(f"scale has a zero denominator: {text!r}")
    g = gcd(n, d)
    return _scale(n // g, d // g)


def as_scale(value: ScaleLike) -> Scale:
    """Coerce ``value`` to an exact non-negative rational ``Scale``.

    Only a Fraction, an int or a string is accepted; a float or a bool
    (say, from a JSON number) would be read as a rational it was never
    meant to be.  The exact type tests refuse bool, an int subclass.  A
    string must be ``p``, ``p/q`` or ``p.q`` in ASCII digits: no sign,
    exponent, underscore or surrounding whitespace, so a short string
    never stands for a huge number.
    """
    kind = type(value)
    if kind is Scale:
        x = value
    elif kind is str:
        x = _parse_scale(value)
    elif kind is int:
        x = _scale(value, 1)
    elif isinstance(value, Fraction):
        x = _scale(value._numerator, value._denominator)
    else:
        raise ValueError(f"scale must be a string or an integer, got {value!r}")
    if x._numerator < 0:
        raise ValueError(f"scale must be non-negative, got {x}")
    return x


class RangeSet:
    """Finite ascending set of scales; 0 is always a member.

    Immutable.  Used both as the trace of an element and as the index of
    a petal.
    """

    __slots__ = ("elems", "_members")

    def __init__(self, elems: Iterable[ScaleLike] = ()):
        members = {as_scale(e) for e in elems}
        members.add(ZERO)
        self.elems: tuple[Fraction, ...] = tuple(sorted(members))
        self._members = frozenset(members)

    def __contains__(self, value: object) -> bool:
        return value in self._members

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangeSet) and self.elems == other.elems

    def __hash__(self) -> int:
        return hash(self.elems)

    def __repr__(self) -> str:
        return "RangeSet({%s})" % ", ".join(str(e) for e in self.elems)

    def positives(self) -> tuple[Fraction, ...]:
        return self.elems[1:]

    def union(self, other: "RangeSet") -> "RangeSet":
        return RangeSet(self.elems + other.elems)

    def intersect(self, other: "RangeSet") -> "RangeSet":
        return RangeSet(e for e in self.elems if e in other)

    def issubset(self, other: "RangeSet") -> bool:
        return self._members <= other._members

    def tail_subset(self, other: "RangeSet", t: ScaleLike) -> bool:
        """True when every element strictly above ``t`` also lies in ``other``."""
        bound = as_scale(t)
        return all(e in other for e in self.elems if e > bound)

    def to_json(self) -> list[str]:
        return [str(e) for e in self.elems]

    @classmethod
    def from_json(cls, data: object) -> "RangeSet":
        if not isinstance(data, list):
            raise ValueError("range set must be a JSON array of scale strings")
        return cls(data)


def max_outside(trace: RangeSet, s: RangeSet) -> Fraction:
    """Largest element of ``trace`` missing from ``s``; 0 when contained.

    Scanning downward is exact because both sets are finite and 0 belongs
    to every range set.
    """
    for e in reversed(trace.elems):
        if e not in s:
            return e
    return ZERO
