"""Exact scale arithmetic and finite range sets.

Every distance handled by this library is a non-negative rational kept in
exact form; comparisons, maxima and minima are never rounded.  Finite sets
of scales (always containing 0) index the petals of each model space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

ScaleLike = Union[Fraction, int, str]

ZERO = Fraction(0)


def as_scale(value: ScaleLike) -> Fraction:
    """Coerce ``value`` to an exact non-negative rational.

    Only a Fraction, an int or a string is accepted; a float or a bool
    (say, from a JSON number) would be read as a rational it was never
    meant to be.  The exact type test refuses bool, an int subclass.
    """
    if isinstance(value, Fraction):
        x = value
    elif type(value) in (str, int):
        try:
            x = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"scale has a zero denominator: {value!r}") from None
    else:
        raise ValueError(f"scale must be a string or an integer, got {value!r}")
    if x < 0:
        raise ValueError(f"scale must be non-negative, got {x}")
    return x


def scale_str(value: Fraction) -> str:
    """Render a scale as ``p/q`` in lowest terms, or plain ``p`` when q == 1."""
    return str(value)


def nearly_discrete_metric(x: ScaleLike, y: ScaleLike) -> Fraction:
    """Distance between two scales: ``max(x, y)`` when they differ, else 0.

    This is an ultrametric on the non-negative rationals; its topology
    makes every map with finitely many values locally constant away
    from 0.
    """
    a = as_scale(x)
    b = as_scale(y)
    if a == b:
        return ZERO
    return a if a > b else b


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
        return [scale_str(e) for e in self.elems]

    @classmethod
    def from_json(cls, data: object) -> "RangeSet":
        if not isinstance(data, list):
            raise ValueError("range set must be a JSON array of scale strings")
        return cls(as_scale(e) for e in data)


def max_outside(trace: RangeSet, s: RangeSet) -> Fraction:
    """Largest element of ``trace`` missing from ``s``; 0 when contained.

    Scanning downward is exact because both sets are finite and 0 belongs
    to every range set.
    """
    for e in reversed(trace.elems):
        if e not in s:
            return e
    return ZERO
