"""Finite ultrametric spaces as immutable values.

Provides validation against the strong triangle inequality, distance
spectra, closed-ball quotients, the dendrogram form and a canonical
string deciding isometry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from .scales import RangeSet, Scale, ScaleLike, ZERO, as_scale


class SpaceError(ValueError):
    """A candidate distance matrix is not a finite ultrametric space.

    ``indices`` holds the row indices of the failing entry or triple,
    empty when the failure is not at one entry.
    """

    def __init__(self, message: str, *indices: int):
        super().__init__(message)
        self.indices = indices


class NotSymmetric(SpaceError):
    """d(i, j) != d(j, i); ``indices`` is (i, j)."""


class NotPositive(SpaceError):
    """A non-zero diagonal entry or a zero off-diagonal one; ``indices`` is (i, j)."""


class NotUltrametric(SpaceError):
    """d(i, j) > max(d(i, k), d(k, j)); ``indices`` is (i, j, k)."""


class _Parsed(dict):
    """Entry string to ``Scale``, filled by ``as_scale`` on a miss; one per matrix.

    Keyed by exact ``str`` only: ``True`` would find the entry of ``1``,
    and hashing a ``Fraction`` key costs a modular pow.
    """

    def __missing__(self, text: str) -> Scale:
        self[text] = scale = as_scale(text)
        return scale


class _Written(dict):
    """``Scale`` to its ``str``, filled on a miss; one per written matrix."""

    def __missing__(self, value: Scale) -> str:
        self[value] = text = str(value)
        return text


def matrix_json(rows: Sequence[Sequence[Scale]]) -> list[list[str]]:
    """A matrix as JSON rows of strings; a matrix holds few distinct scales, each formatted once."""
    text = _Written()
    return [list(map(text.__getitem__, row)) for row in rows]


def check_matrix(
    dist: Sequence[Sequence[ScaleLike]],
    names: Sequence[str],
    allow_zero: bool = False,
) -> "Dendrogram":
    """Validate point labels and a square matrix of scales as a (pseudo-)ultrametric.

    The labels must be distinct strings, at least one; returns the
    matrix's dendrogram, the leaves labelled by ``names``.  ``allow_zero``
    admits vanishing off-diagonal entries (pseudo-ultrametrics).
    """
    if any(not isinstance(name, str) for name in names):
        raise ValueError("point labels must be strings")
    if not names:
        raise SpaceError("a space needs at least one point")
    if len(set(names)) != len(names):
        raise SpaceError("point labels must be distinct")
    n = len(names)
    if not isinstance(dist, (list, tuple)) or any(not isinstance(row, (list, tuple)) for row in dist):
        raise SpaceError("distance matrix must be a list of rows")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise SpaceError(f"distance matrix must be {n}x{n}")
    parsed = _Parsed()  # each distinct string parsed once, its entries share one Scale
    rows = tuple(tuple([parsed[v] if type(v) is str else as_scale(v) for v in row]) for row in dist)
    for i in range(n):
        if rows[i][i] != ZERO:
            raise NotPositive(f"d({names[i]},{names[i]}) must be 0", i, i)
        for j in range(i + 1, n):
            if rows[i][j] is not rows[j][i] and rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"d({names[i]},{names[j]}) != d({names[j]},{names[i]})", i, j)
            if not allow_zero and rows[i][j]._numerator == 0:
                raise NotPositive(f"d({names[i]},{names[j]}) must be positive", i, j)
    return _build(rows, names)


def _build(rows: tuple[tuple[Fraction, ...], ...], labels: Sequence[str]) -> "Dendrogram":
    """The dendrogram of a symmetric matrix; raises NotUltrametric if it has none.

    A node's scale is the largest distance from its first point; its
    children are the classes of ``d < scale``.  Each pair is checked once,
    at its lowest common ancestor, against that node's scale.
    """
    root = Dendrogram()
    stack = [(root, list(range(len(rows))))]
    while stack:
        node, members = stack.pop()
        if len(members) == 1:
            node.label = labels[members[0]]
            continue
        scale = max(rows[members[0]][q] for q in members)
        groups: dict[int, list[int]] = {}
        for q in members:
            for rep, group in groups.items():
                if rows[rep][q] < scale:
                    group.append(q)
                    break
            else:
                groups[q] = [q]
        seen: list[int] = []
        for group in groups.values():
            if any((x := rows[a][b]) is not scale and x != scale for a in group for b in seen):
                _first_violation(rows, labels)
            seen.extend(group)
        node.scale = scale
        node.children = tuple(Dendrogram() for _ in groups)
        stack.extend(zip(node.children, groups.values()))
    return root


def _first_violation(rows: tuple[tuple[Fraction, ...], ...], names: Sequence[str]) -> NoReturn:
    """Raise NotUltrametric for the first violating triple in scan order.

    Scan order is i, then j > i, then k.  Pairs are swept in runs of equal
    value, ``near[i]`` holding (as an int bitset) the points strictly
    closer to i than the run, so one ``&`` finds a k closer to both ends:
    O(n^2 log n) steps, not a scan of all O(n^3) triples.
    """
    n = len(rows)
    # pair (i, j) as i * n + j, half the memory of a tuple; keyed by
    # (numerator, denominator), as a fresh Scale's hash costs a modular pow
    runs: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            v = ri[j]
            runs.setdefault((v._numerator, v._denominator), []).append(i * n + j)
    near = [0] * n
    bad: list[int] = []
    for key in sorted(runs, key=lambda nd: Fraction(*nd)):
        run = runs[key]
        bad += [p for p in run if near[p // n] & near[p % n]]
        for p in run:
            i, j = divmod(p, n)
            near[i] |= 1 << j
            near[j] |= 1 << i
    if not bad:
        raise AssertionError("a matrix without a dendrogram has a violating triple")
    i, j = divmod(min(bad), n)
    ri, dij = rows[i], rows[i][j]
    k = next(k for k in range(n) if dij > max(ri[k], rows[k][j]))
    raise NotUltrametric(
        "strong triangle inequality fails: "
        f"d({names[i]},{names[j]})={dij} > "
        f"d({names[i]},{names[k]})={ri[k]} v d({names[k]},{names[j]})={rows[k][j]}",
        i, j, k,
    )


class Dendrogram:
    """Rooted tree equivalent of a finite ultrametric space.

    Internal nodes carry a scale (the diameter of their leaf set),
    strictly decreasing from root to leaves; leaves carry point labels.
    The distance between two leaves is the scale of their lowest common
    ancestor.  Trees are checked at the boundary and trusted inside:
    ``check_matrix`` builds them from outside input, and the package's
    own constructions only cut and graft well-formed trees.
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

    def nodes(self) -> list["Dendrogram"]:
        """Every node of the tree, breadth first: parents before children."""
        order = [self]
        for node in order:
            order.extend(node.children)
        return order

    def scales(self) -> list[Fraction]:
        """The positive scales of the internal nodes, one per node, parents first."""
        return [node.scale for node in self._above(ZERO)]

    def leaves(self) -> list[str]:
        return [node.label or "" for node in self.nodes() if node.is_leaf]

    def rows(self, labels: Sequence[str]) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix of a well-formed tree, rows and columns in ``labels`` order.

        Children before parents, each pair is filled once, at its lowest
        common ancestor: O(n^2) assignments and no scale comparisons.
        """
        n = len(labels)
        index = dict(zip(labels, range(n)))
        rows = [[ZERO] * n for _ in range(n)]
        members: dict[Dendrogram, list[int]] = {}
        for node in reversed(self.nodes()):
            if not node.children:
                continue
            scale = node.scale
            seen: list[int] = []
            for child in node.children:
                group = members.pop(child) if child.children else [index[child.label]]
                for a in group:
                    row = rows[a]
                    for b in seen:
                        row[b] = scale
                        rows[b][a] = scale
                seen += group
            members[node] = seen
        return tuple(map(tuple, rows))

    def encode(self, floor: Fraction = ZERO) -> str:
        """Label-free canonical encoding: (scale; sorted child encodings).

        A node at or below ``floor`` is written as a point, which makes
        this the canonical form of the ``floor``-quotient.  Only the
        internal nodes above ``floor`` are visited.
        """
        codes: dict[Dendrogram, str] = {}
        for node in reversed(self._above(floor)):  # children before parents
            inner = [codes.pop(child, "*") for child in node.children]
            inner.sort()
            codes[node] = f"({node.scale};{','.join(inner)})"
        return codes.get(self, "*")

    def cut(self, bound: Fraction, stub: Callable[["Dendrogram"], "Dendrogram"]) -> "Dendrogram":
        """The tree above ``bound``, each subtree at or below it replaced.

        Every leaf and every maximal subtree whose scale is at most
        ``bound`` becomes ``stub(subtree)``; the nodes above keep their
        scales and child order.  The tree itself is not changed.
        """
        made: dict[Dendrogram, Dendrogram] = {}
        for node in reversed(self._above(bound)):  # children before parents
            children = tuple(made.pop(child, None) or stub(child) for child in node.children)
            made[node] = Dendrogram(node.scale, None, children)
        return made[self] if made else stub(self)

    def _above(self, bound: Fraction) -> list["Dendrogram"]:
        """The internal nodes above ``bound`` reached through such nodes, parents first."""
        above = [self] if self.children and self.scale > bound else []
        for node in above:
            for child in node.children:
                if child.children and child.scale > bound:
                    above.append(child)
        return above


class FiniteUltraSpace:
    """A labelled finite set with an exact ultrametric distance matrix.

    Immutable.  Checked at the boundary, trusted inside: the constructor
    validates symmetry, positivity off the diagonal and the strong
    triangle inequality into a dendrogram, while ``_from_tree`` stores a
    tree the package built from valid parts as it is.  Only the tree is
    kept until ``dist`` is first read.
    """

    __slots__ = ("labels", "_rows", "_index", "_tree")

    def __init__(self, labels: Iterable[str], dist: Sequence[Sequence[ScaleLike]]):
        labels = tuple(labels)
        self._adopt(labels, check_matrix(dist, labels))

    @classmethod
    def _from_tree(cls, labels: Sequence[str], tree: Dendrogram) -> "FiniteUltraSpace":
        """The space of a dendrogram over ``labels``, unchecked: a tree built by the package."""
        space = object.__new__(cls)
        space._adopt(tuple(labels), tree)
        return space

    def _adopt(self, labels: tuple[str, ...], tree: Dendrogram) -> None:
        self.labels = labels
        self._tree = tree
        self._rows = None
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix, rows and columns in label order, filled on first read."""
        if self._rows is None:
            self._rows = self._tree.rows(self.labels)
        return self._rows

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"FiniteUltraSpace({len(self)} points)"

    def d(self, a: str, b: str) -> Fraction:
        return self.dist[self._index[a]][self._index[b]]

    def spectrum(self) -> RangeSet:
        """All distance values that occur, together with 0: the dendrogram's scales."""
        return RangeSet(self._tree.scales())

    def quotient(self, eps: ScaleLike) -> "FiniteUltraSpace":
        """Merge points at distance <= eps (closed-ball classes).

        The quotient distance between two classes is the original
        distance between any representatives, which exceeds eps; class
        labels are the sorted member labels joined by ``+``.
        """
        classes: list[tuple[int, str]] = []

        def merge(node: Dendrogram) -> Dendrogram:
            members = node.leaves()
            label = "+".join(sorted(members))
            classes.append((min(self._index[m] for m in members), label))
            return Dendrogram(label=label)

        tree = self._tree.cut(as_scale(eps), merge)
        classes.sort()  # by first member, the order of the classes' first points
        labels = [label for _, label in classes]
        if len(set(labels)) != len(labels):
            # only possible when point labels themselves contain "+"
            raise SpaceError("quotient class labels collide; avoid '+' in point labels")
        return FiniteUltraSpace._from_tree(labels, tree)

    def dendrogram(self) -> Dendrogram:
        """The tree the space was validated into or built from; child order is arbitrary."""
        return self._tree

    def canonical_form(self) -> str:
        """Canonical string: equal for two spaces iff they are isometric."""
        return self.dendrogram().encode()

    def to_json(self) -> dict:
        return {"points": list(self.labels), "dist": matrix_json(self.dist)}

    @classmethod
    def from_json(cls, data: object) -> "FiniteUltraSpace":
        if not isinstance(data, Mapping) or "points" not in data or "dist" not in data:
            raise SpaceError('space file must be {"points": [...], "dist": [[...]]}')
        if not isinstance(data["points"], list):
            raise ValueError("points must be a JSON array of labels")
        return cls(data["points"], data["dist"])
