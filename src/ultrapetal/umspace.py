"""Finite ultrametric spaces as immutable values.

Provides validation against the strong triangle inequality, distance
spectra, closed-ball quotients, the dendrogram form, a canonical string
deciding isometry, and Hausdorff distance between subsets of one ambient
space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scales import RangeSet, ScaleLike, ZERO, as_scale, scale_str


class SpaceError(ValueError):
    """A candidate distance matrix is not a finite ultrametric space."""


class NotSymmetric(SpaceError):
    def __init__(self, i: int, j: int, message: str):
        super().__init__(message)
        self.indices = (i, j)


class NotPositive(SpaceError):
    def __init__(self, i: int, j: int, message: str):
        super().__init__(message)
        self.indices = (i, j)


class NotUltrametric(SpaceError):
    def __init__(self, i: int, j: int, k: int, message: str):
        super().__init__(message)
        self.indices = (i, j, k)


class EmptySubset(ValueError):
    """Hausdorff distance needs nonempty subsets."""


def check_matrix(
    dist: Sequence[Sequence[ScaleLike]],
    names: Sequence[str],
    allow_zero: bool = False,
) -> tuple[tuple[Fraction, ...], ...]:
    """Validate a square matrix of scales as a (pseudo-)ultrametric.

    Returns the coerced rows.  ``allow_zero`` admits vanishing
    off-diagonal entries (pseudo-ultrametrics).
    """
    n = len(names)
    if not isinstance(dist, (list, tuple)) or any(not isinstance(row, (list, tuple)) for row in dist):
        raise SpaceError("distance matrix must be a list of rows")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise SpaceError(f"distance matrix must be {n}x{n}")
    rows = tuple(tuple(as_scale(v) for v in row) for row in dist)
    for i in range(n):
        if rows[i][i] != ZERO:
            raise NotPositive(i, i, f"d({names[i]},{names[i]}) must be 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(
                    i, j, f"d({names[i]},{names[j]}) != d({names[j]},{names[i]})"
                )
            if not allow_zero and rows[i][j] == ZERO:
                raise NotPositive(
                    i, j, f"d({names[i]},{names[j]}) must be positive"
                )
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            dij = ri[j]
            for k in range(n):
                a = ri[k]
                b = rows[k][j]
                if dij > (a if a > b else b):
                    raise NotUltrametric(
                        i,
                        j,
                        k,
                        "strong triangle inequality fails: "
                        f"d({names[i]},{names[j]})={dij} > "
                        f"d({names[i]},{names[k]})={a} v d({names[k]},{names[j]})={b}",
                    )
    return rows


class Dendrogram:
    """Rooted tree equivalent of a finite ultrametric space.

    Internal nodes carry a scale (the diameter of their leaf set),
    strictly decreasing from root to leaves; leaves carry point labels.
    The distance between two leaves is the scale of their lowest common
    ancestor.
    """

    __slots__ = ("scale", "label", "children")

    def __init__(
        self,
        scale: Fraction | None = None,
        label: str | None = None,
        children: tuple["Dendrogram", ...] = (),
    ):
        self.scale = scale
        self.label = label
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.label or ""]
        out: list[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def encode(self) -> str:
        """Label-free canonical encoding: (scale; sorted child encodings)."""
        if self.is_leaf:
            return "*"
        inner = ",".join(sorted(child.encode() for child in self.children))
        return f"({self.scale};{inner})"

    def to_space(self) -> "FiniteUltraSpace":
        """Reconstruct the space whose dendrogram this is."""
        labels = sorted(self.leaves())
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        dist = [[ZERO] * n for _ in range(n)]

        def fill(node: Dendrogram) -> list[str]:
            if node.is_leaf:
                return [node.label or ""]
            groups = [fill(child) for child in node.children]
            for gi in range(len(groups)):
                for gj in range(gi + 1, len(groups)):
                    for a in groups[gi]:
                        for b in groups[gj]:
                            ia, ib = index[a], index[b]
                            dist[ia][ib] = dist[ib][ia] = node.scale
            return [lab for group in groups for lab in group]

        fill(self)
        return FiniteUltraSpace(labels, dist)


class FiniteUltraSpace:
    """A labelled finite set with an exact ultrametric distance matrix.

    Immutable; construction validates symmetry, positivity off the
    diagonal and the strong triangle inequality.
    """

    __slots__ = ("labels", "dist", "_index", "_canon")

    def __init__(self, labels: Iterable[str], dist: Sequence[Sequence[ScaleLike]]):
        labs = tuple(str(l) for l in labels)
        if not labs:
            raise SpaceError("a space needs at least one point")
        if len(set(labs)) != len(labs):
            raise SpaceError("point labels must be distinct")
        self.labels = labs
        self.dist = check_matrix(dist, labs, allow_zero=False)
        self._index = {lab: i for i, lab in enumerate(labs)}
        self._canon: str | None = None

    @classmethod
    def _unchecked(
        cls, labels: tuple[str, ...], dist: tuple[tuple[Fraction, ...], ...]
    ) -> "FiniteUltraSpace":
        # for internal constructions that are ultrametric by proof
        space = object.__new__(cls)
        space.labels = labels
        space.dist = dist
        space._index = {lab: i for i, lab in enumerate(labels)}
        space._canon = None
        return space

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"FiniteUltraSpace({len(self)} points)"

    def d(self, a: str, b: str) -> Fraction:
        return self.dist[self._index[a]][self._index[b]]

    def spectrum(self) -> RangeSet:
        """All distance values that occur, together with 0."""
        n = len(self.labels)
        values = {ZERO}
        for i in range(n):
            for j in range(i + 1, n):
                values.add(self.dist[i][j])
        return RangeSet(values)

    def quotient(self, eps: ScaleLike) -> "FiniteUltraSpace":
        """Merge points at distance <= eps (closed-ball classes).

        The quotient distance between two classes is the original
        distance between any representatives, which exceeds eps; class
        labels are the sorted member labels joined by ``+``.
        """
        bound = as_scale(eps)
        n = len(self.labels)
        classes: list[list[int]] = []
        for i in range(n):
            for cls_ in classes:
                if self.dist[cls_[0]][i] <= bound:
                    cls_.append(i)
                    break
            else:
                classes.append([i])
        labels = tuple(
            "+".join(sorted(self.labels[i] for i in cls_)) for cls_ in classes
        )
        if len(set(labels)) != len(labels):
            # only possible when point labels themselves contain "+"
            raise SpaceError("quotient class labels collide; avoid '+' in point labels")
        dist = tuple(
            tuple(self.dist[a[0]][b[0]] for b in classes) for a in classes
        )
        return FiniteUltraSpace._unchecked(labels, dist)

    def dendrogram(self) -> Dendrogram:
        dist = self.dist

        def build(indices: list[int]) -> Dendrogram:
            if len(indices) == 1:
                return Dendrogram(label=self.labels[indices[0]])
            diam = ZERO
            for a in range(len(indices)):
                for b in range(a + 1, len(indices)):
                    v = dist[indices[a]][indices[b]]
                    if v > diam:
                        diam = v
            # classes of the relation d < diam; an equivalence by the
            # strong triangle inequality
            groups: list[list[int]] = []
            for i in indices:
                for group in groups:
                    if dist[group[0]][i] < diam:
                        group.append(i)
                        break
                else:
                    groups.append([i])
            return Dendrogram(
                scale=diam, children=tuple(build(g) for g in groups)
            )

        return build(list(range(len(self.labels))))

    def canonical_form(self) -> str:
        """Canonical string: equal for two spaces iff they are isometric."""
        if self._canon is None:
            self._canon = self.dendrogram().encode()
        return self._canon

    def hausdorff(self, a_labels: Iterable[str], b_labels: Iterable[str]) -> Fraction:
        """Hausdorff distance between two nonempty subsets of this space."""
        a = [self._index[lab] for lab in a_labels]
        b = [self._index[lab] for lab in b_labels]
        if not a or not b:
            raise EmptySubset("hausdorff needs nonempty subsets")

        def directed(src: list[int], dst: list[int]) -> Fraction:
            worst = ZERO
            for p in src:
                row = self.dist[p]
                near = min(row[q] for q in dst)
                if near > worst:
                    worst = near
            return worst

        left = directed(a, b)
        right = directed(b, a)
        return left if left > right else right

    def to_json(self) -> dict:
        return {
            "points": list(self.labels),
            "dist": [[scale_str(v) for v in row] for row in self.dist],
        }

    @classmethod
    def from_json(cls, data: object) -> "FiniteUltraSpace":
        if not isinstance(data, Mapping) or "points" not in data or "dist" not in data:
            raise SpaceError('space file must be {"points": [...], "dist": [[...]]}')
        if not isinstance(data["points"], list):
            raise ValueError("points must be a JSON array of labels")
        return cls(data["points"], data["dist"])


def validate(
    labels: Iterable[str], dist: Sequence[Sequence[ScaleLike]]
) -> FiniteUltraSpace:
    """Validate a candidate matrix, raising a SpaceError on any violation."""
    return FiniteUltraSpace(labels, dist)
