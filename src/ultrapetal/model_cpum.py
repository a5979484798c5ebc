"""Continuous pseudo-ultrametrics on the Cantor set.

Elements are pseudo-ultrametrics constant on the cells of a finite
binary partition: a cell set plus a symmetric matrix over the cells that
satisfies the strong triangle inequality, with vanishing off-diagonal
entries allowed.  The distance of two elements is the top value involved
in any pointwise disagreement of the induced functions on pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .cells import align, check_prefixes, merge_equal_siblings
from .scales import RangeSet, ScaleLike, ZERO, as_scale
from .umspace import Dendrogram, check_matrix, matrix_json


class CantorPseudoUltrametric:
    """Cell partition with an exact pseudo-ultrametric matrix over the cells.

    Cells are stored in lexicographic order, together with the dendrogram
    over the cells, whose 0-nodes hold cells at distance 0; the rows are
    filled from the tree at once, in cell order, as ``ud`` reads them.
    Elements are compared up to the induced function on pairs, not up to
    cell structure: ``==`` and ``hash`` read the coarsest cell partition,
    so ``d == e`` exactly when ``ud(d, e) == 0``.  Immutable.
    """

    __slots__ = ("cells", "dist", "_tree")

    def __init__(self, cells: Sequence[str], dist: Sequence[Sequence[ScaleLike]]):
        given = list(cells)
        self._adopt(check_prefixes(given), check_matrix(dist, given, allow_zero=True))

    @classmethod
    def _from_tree(cls, cells: Sequence[str], tree: Dendrogram) -> "CantorPseudoUltrametric":
        """The element of a tree the package built over ``cells``, already sorted; unchecked."""
        d = object.__new__(cls)
        d._adopt(tuple(cells), tree)
        return d

    def _adopt(self, cells: tuple[str, ...], tree: Dendrogram) -> None:
        self.cells = cells
        self.dist: tuple[tuple[Fraction, ...], ...] = tree.rows(cells)
        self._tree = tree

    def _normal_form(self) -> tuple:
        # distance 0 is an equivalence; a class is named by its first cell,
        # sibling cells of one class fold into their parent, and the rows
        # between the classes of the folded cells complete the key
        first = [row.index(ZERO) for row in self.dist]
        merged, classes = merge_equal_siblings(self.cells, dict(zip(self.cells, first)))
        return merged, tuple(tuple(self.dist[a][b] for b in classes) for a in classes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CantorPseudoUltrametric) and self._normal_form() == other._normal_form()

    def __hash__(self) -> int:
        return hash(self._normal_form())

    def dendrogram(self) -> Dendrogram:
        """The tree over the cells; child order is arbitrary."""
        return self._tree

    def __repr__(self) -> str:
        return f"CantorPseudoUltrametric({len(self.cells)} cells)"

    def to_json(self) -> dict:
        return {"cells": list(self.cells), "dist": matrix_json(self.dist)}

    @classmethod
    def from_json(cls, data: object) -> "CantorPseudoUltrametric":
        if not isinstance(data, Mapping) or "cells" not in data or "dist" not in data:
            raise ValueError('file must be {"cells": [...], "dist": [[...]]}')
        if not isinstance(data["cells"], list):
            raise ValueError("cells must be a JSON array of binary strings")
        return cls(data["cells"], data["dist"])


def ud(d: CantorPseudoUltrametric, e: CantorPseudoUltrametric) -> Fraction:
    """Distance of two pseudo-ultrametrics over the common cell refinement.

    The max over pairs where the induced values differ of the larger
    value; this equals the least bound epsilon with d <= e v epsilon and
    e <= d v epsilon on all pairs.  As in ``nabla``, identical entries
    are skipped and the others compared by integer cross-multiplication;
    a strictly larger disagreement replaces the maximum, so the first
    maximal value object is returned.

    Also as in ``nabla``, the scan stops once the maximum reaches the
    larger of the two diameters (the roots' scales), which no entry
    exceeds; the object it stops at is the one the full scan returns.
    """
    od, oe = align(d.cells, e.cells)
    # a one-cell element's root is a leaf, with no scale
    top, other = d._tree.scale or ZERO, e._tree.scale or ZERO
    tn, td, sn, sd = top._numerator, top._denominator, other._numerator, other._denominator
    if sn * td > tn * sd:
        tn, td = sn, sd
    worst = ZERO
    wn, wd = 0, 1
    n = len(od)
    for i in range(n):
        di = d.dist[od[i]]
        ei = e.dist[oe[i]]
        for j in range(i + 1, n):
            a = di[od[j]]
            b = ei[oe[j]]
            if a is not b:
                an, ad, bn, bd = a._numerator, a._denominator, b._numerator, b._denominator
                p, q = an * bd, bn * ad
                if p > q:
                    if an * wd > wn * ad:
                        if an == tn and ad == td:
                            return a
                        worst, wn, wd = a, an, ad
                elif p < q and bn * wd > wn * bd:
                    if bn == tn and bd == td:
                        return b
                    worst, wn, wd = b, bn, bd
    return worst


def trace(d: CantorPseudoUltrametric) -> RangeSet:
    """{0} together with every matrix entry: the dendrogram's scales."""
    return RangeSet(d.dendrogram().scales())


def zero_node(leaves: Sequence[Dendrogram]) -> Dendrogram:
    """The tree of leaves at distance 0 from each other: a 0-node, or one leaf."""
    return leaves[0] if len(leaves) == 1 else Dendrogram(ZERO, None, tuple(leaves))


def flatten(tree: Dendrogram, u: Fraction) -> Dendrogram:
    """``tree`` with every subtree at or below ``u`` made one 0-node of its leaves."""
    return tree.cut(as_scale(u), lambda node: zero_node([n for n in node.nodes() if n.is_leaf]))


def truncate(d: CantorPseudoUltrametric, u: Fraction) -> CantorPseudoUltrametric:
    """Zero every entry at or below ``u``.

    Lowering small values to 0 cannot break the strong triangle
    inequality when all surviving entries are larger, so the result is
    again a pseudo-ultrametric, within ``u`` of ``d``.  On the dendrogram
    this flattens every subtree at or below ``u``.
    """
    return CantorPseudoUltrametric._from_tree(d.cells, flatten(d.dendrogram(), u))


__all__ = [
    "CantorPseudoUltrametric",
    "ud",
    "trace",
    "truncate",
]
