"""The locally constant function model on the Cantor set.

Elements are functions from the Cantor set into the scales, constant on
the cells of a finite binary partition and taking the value 0 somewhere.
The distance of two functions is the largest value involved in any
pointwise disagreement.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cells import check_prefixes, merge_equal_siblings, right_ends
from .scales import RangeSet, ScaleLike, ZERO, as_scale


class CantorFunction:
    """Locally constant scale-valued function with 0 in its image.

    Stored on the coarsest cell partition realising it (equal-valued
    sibling cells are merged on construction), which makes structural
    equality agree with pointwise equality.  Next to the sorted cell
    ``keys`` and their ``values`` it keeps ``ends``, the right endpoint
    of every cell as ``cells.right_ends`` writes it, for ``nabla``'s
    merge, and ``top``, the largest value, where ``nabla`` may stop.
    Immutable.

    Checked at the boundary, trusted inside: the public constructor
    coerces every value and checks the cells, while ``_from_cells`` takes
    cells the package built itself (``place``, ``truncate`` and the
    harness's ``gen_cantor_function`` and ``_twin_maps``) unchecked.  Both
    hand them to the one set-up path, ``_adopt``, which merges equal
    siblings, so the normal form is the same either way.
    """

    __slots__ = ("keys", "values", "ends", "top")

    def __init__(self, cells: Mapping[str, ScaleLike] | Iterable[tuple[str, ScaleLike]]):
        items = cells.items() if isinstance(cells, Mapping) else list(cells)
        table: dict[str, Fraction] = {}
        for key, value in items:
            if not isinstance(key, str):
                # before the dict lookup, where a JSON array would raise TypeError
                raise ValueError(f"cell prefix must be a binary string, got {key!r}")
            if key in table:
                raise ValueError(f"duplicate cell prefix {key!r}")
            table[key] = as_scale(value)
        keys = check_prefixes(table.keys())
        if ZERO not in table.values():
            raise ValueError("the image must contain 0")
        self._adopt(keys, table)

    @classmethod
    def _from_cells(cls, keys: Sequence[str], table: Mapping[str, Fraction]) -> "CantorFunction":
        """The function of cells the package built: ``keys`` sorted, complete and
        prefix-free, ``table`` giving each a ``Scale``, 0 among them; unchecked."""
        f = object.__new__(cls)
        f._adopt(keys, table)
        return f

    def _adopt(self, keys: Sequence[str], table: Mapping[str, Fraction]) -> None:
        self.keys, self.values = merge_equal_siblings(keys, table)
        self.ends = right_ends(self.keys)
        self.top = max(self.values)

    @property
    def cells(self) -> tuple[tuple[str, Fraction], ...]:
        """The (prefix, value) pairs in prefix order, as written to JSON."""
        return tuple(zip(self.keys, self.values))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CantorFunction) and self.keys == other.keys and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.keys, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self.cells)
        return "CantorFunction({%s})" % inner

    def to_json(self) -> dict:
        return {"cells": [[k, str(v)] for k, v in self.cells]}

    @classmethod
    def from_json(cls, data: object) -> "CantorFunction":
        if not isinstance(data, Mapping) or "cells" not in data:
            raise ValueError('cell function file must be {"cells": [[prefix, scale], ...]}')
        pairs = data["cells"]
        if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2 for p in pairs):
            raise ValueError("cells must be a list of [prefix, scale] pairs")
        return cls((k, v) for k, v in pairs)


def zero_function() -> CantorFunction:
    """The constant-zero function (one cell, the whole space)."""
    return CantorFunction({"": ZERO})


def nabla(f: CantorFunction, g: CantorFunction) -> Fraction:
    """Distance of two functions: the top value among pointwise disagreements.

    This closed form equals the least bound epsilon with
    f <= g v epsilon and g <= f v epsilon everywhere: at a disagreement
    point the larger value forces epsilon at least that high.

    The two partitions are merged in one pass over their cells' right
    endpoints: both current cells start at the same point, so the refined
    cell ends at the nearer of their two ends, and the cell ending there
    advances (both when the ends agree; the last cells end at the
    sentinel).  Each refined cell's two values are compared on the way
    by integer cross-multiplication; a strictly larger disagreement
    replaces the maximum, so the first maximal value object is returned.

    No disagreement exceeds the larger of the two tops, so the merge
    stops as soon as the maximum reaches it.  Since the maximum changes
    only to a strictly larger value, the object at which it stops is the
    one the full merge would return.
    """
    fe, fv, ge, gv = f.ends, f.values, g.ends, g.values
    tn, td, sn, sd = f.top._numerator, f.top._denominator, g.top._numerator, g.top._denominator
    if sn * td > tn * sd:
        tn, td = sn, sd
    worst = ZERO
    wn, wd = 0, 1
    i = j = 0
    while True:
        x, y = fv[i], gv[j]
        # values are mostly shared objects, which cannot disagree
        if x is not y:
            xn, xd, yn, yd = x._numerator, x._denominator, y._numerator, y._denominator
            p, q = xn * yd, yn * xd
            if p > q:
                if xn * wd > wn * xd:
                    # scales are in lowest terms: reaching the top is equality
                    if xn == tn and xd == td:
                        return x
                    worst, wn, wd = x, xn, xd
            elif p < q and yn * wd > wn * yd:
                if yn == tn and yd == td:
                    return y
                worst, wn, wd = y, yn, yd
        a, b = fe[i], ge[j]
        if a == b:
            if a == "2":
                return worst
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1


def trace(f: CantorFunction) -> RangeSet:
    """{0} together with every value the function takes."""
    return RangeSet(f.values)


def truncate(f: CantorFunction, u: Fraction) -> CantorFunction:
    """Flatten every value at or below ``u`` to 0.

    The cells keeping their value are exactly those above ``u``, and the
    result still contains 0, so it is again a member, within ``u`` of ``f``.
    """
    return CantorFunction._from_cells(f.keys, {k: v if v > u else ZERO for k, v in zip(f.keys, f.values)})


def place(anchors: Sequence[CantorFunction], want: list[Fraction], m: Fraction, i: int) -> CantorFunction:
    """The new point of the one-point extension, m the least target attained first at i.

    The first cell of the anchors' common refinement where anchor i
    vanishes is split in two, the result taking the value m on one half
    and 0 on the other, and copying anchor i elsewhere.  Anchors at
    distance m disagree with the result on one of the halves at
    magnitude exactly m, while larger targets keep their dominant
    disagreement with anchor i intact.

    If every anchor lies in the petal of S and every target belongs to S,
    the result lies in the petal of S as well: its values are anchor i's,
    m and 0.
    """
    m = as_scale(m)  # the one value stored that no anchor supplied
    # the first refined cell where anchor i vanishes lies in its first zero
    # cell z and holds the point z000...: it is the longest anchor cell z+"0"*k
    base = anchors[i]
    zero_cell = base.keys[base.values.index(ZERO)]
    split = zero_cell
    for anchor in anchors:
        keys = anchor.keys
        # the first key >= z extends z exactly when the anchor cuts z finer
        pos = bisect_left(keys, zero_cell)
        if pos < len(keys) and len(keys[pos]) > len(split) and keys[pos].startswith(zero_cell):
            split = keys[pos]
    table = dict(zip(base.keys, base.values))
    del table[zero_cell]
    for depth in range(len(zero_cell), len(split) + 1):  # split is zero_cell + "0" * k
        table[split[:depth] + "1"] = ZERO
    table[split + "0"] = m
    return CantorFunction._from_cells(sorted(table), table)


__all__ = [
    "CantorFunction",
    "zero_function",
    "nabla",
    "trace",
    "truncate",
    "place",
]
