"""The support-map model of a universal ultrametric space.

Elements are finitely supported maps from positive scales to positive
integers; the distance between two maps is the largest scale where they
disagree.  Petals are indexed by range sets: the petal of S holds the
maps supported inside S.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scales import RangeSet, ScaleLike, ZERO, as_scale


class SupportMap:
    """Finitely supported map from positive scales to positive integers.

    Entries are stored with descending keys; absent keys have value 0,
    and the value at 0 is always 0.  Immutable.

    Checked at the boundary, trusted inside: the public constructor
    coerces and checks every entry, while ``_from_entries`` stores
    entries the package built itself (``place``, ``truncate`` and the
    harness's ``gen_support_map``) unchecked.  Both hand the sorted
    entries to the one set-up path, ``_adopt``.
    """

    __slots__ = ("entries", "_map")

    def __init__(self, support: Mapping[ScaleLike, int] | Iterable[tuple[ScaleLike, int]] = ()):
        items = support.items() if isinstance(support, Mapping) else support
        table: dict[Fraction, int] = {}
        for key, value in items:
            k = as_scale(key)
            if k == ZERO:
                raise ValueError("support keys must be positive")
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"support value at {k} must be a positive integer")
            if k in table:
                raise ValueError(f"duplicate support key {k}")
            table[k] = value
        self._adopt(tuple(sorted(table.items(), reverse=True)))

    @classmethod
    def _from_entries(cls, entries: Iterable[tuple[Fraction, int]]) -> "SupportMap":
        """The map of entries the package built: positive, distinct ``Scale``
        keys in descending order with positive ``int`` values; unchecked."""
        f = object.__new__(cls)
        f._adopt(tuple(entries))
        return f

    def _adopt(self, entries: tuple[tuple[Fraction, int], ...]) -> None:
        self.entries = entries
        self._map = dict(entries)

    def value_at(self, key: ScaleLike) -> int:
        return self._map.get(as_scale(key), 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportMap) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.entries)
        return "SupportMap({%s})" % inner

    def to_json(self) -> dict:
        return {"support": [[str(k), v] for k, v in self.entries]}

    @classmethod
    def from_json(cls, data: object) -> "SupportMap":
        if not isinstance(data, Mapping) or "support" not in data:
            raise ValueError('support map file must be {"support": [[scale, count], ...]}')
        pairs = data["support"]
        if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2 for p in pairs):
            raise ValueError("support must be a list of [scale, count] pairs")
        return cls((k, v) for k, v in pairs)


def delta(f: SupportMap, g: SupportMap) -> Fraction:
    """Largest key where the two maps disagree; 0 when they are equal.

    Keys descend, so the first position where the entries differ decides:
    the larger of its two keys is missing from the other map, or the keys
    are equal and only the values differ.  When one map's entries are a
    prefix of the other's, the first key left over is the answer.  Keys
    are compared inline: the same object is equal to itself, and two
    distinct ones are ordered by one integer cross-multiplication; on
    equal keys with different values g's key object is returned.
    """
    a, b = f.entries, g.entries
    for (k, v), (l, w) in zip(a, b):
        if k is not l:
            p, q = k._numerator * l._denominator, l._numerator * k._denominator
            if p != q:
                return k if p > q else l
        if v != w:
            return l
    if len(a) != len(b):
        return a[len(b)][0] if len(a) > len(b) else b[len(a)][0]
    return ZERO


def trace(f: SupportMap) -> RangeSet:
    """The smallest range set whose petal contains ``f``: {0} plus the support."""
    return RangeSet(k for k, _ in f.entries)


def truncate(f: SupportMap, u: Fraction) -> SupportMap:
    """Keep the support keys above ``u``; the result is within ``u`` of ``f``."""
    return SupportMap._from_entries([(k, v) for k, v in f.entries if k > u])


def place(anchors: Sequence[SupportMap], want: list[Fraction], m: Fraction, i: int) -> SupportMap:
    """The new point of the one-point extension, m the least target attained first at i.

    The result copies anchor i above m, takes a fresh value at m (one
    more than any competing anchor), and vanishes below.  It realises
    every target exactly whenever the targets are consistent.

    If every anchor lies in the petal of S and every target belongs to S,
    the result lies in the petal of S as well.
    """
    m = as_scale(m)  # the one key stored that no anchor supplied
    fresh = 1 + max(anchor._map.get(m, 0) for anchor, t in zip(anchors, want) if t is m or t == m)
    return SupportMap._from_entries([(k, v) for k, v in anchors[i].entries if k > m] + [(m, fresh)])


__all__ = [
    "SupportMap",
    "delta",
    "trace",
    "truncate",
    "place",
]
