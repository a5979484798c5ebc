"""The non-Archimedean Gromov-Hausdorff space over finite ultrametric spaces.

Points are isometry classes of finite ultrametric spaces.  The distance
of two classes is the least quotient scale at which they agree, found by
binary search; a brute-force ambient-space oracle is provided for tiny
instances so the search can be checked against the defining infimum.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .scales import RangeSet, Scale, ScaleLike, ZERO, as_scale
from .umspace import FiniteUltraSpace


class TooLarge(ValueError):
    """The ambient oracle only handles very small instances."""


class GHPoint:
    """A finite ultrametric space held up to isometry.

    Equality and hashing go through the canonical form, so relabelled
    copies compare equal.  Immutable, so the code of each quotient is
    read off the dendrogram once and kept, keyed by its ``Scale``: a
    point met again (a corpus point of the oracle gate, the fixed side
    of many distances) is not encoded again.  The canonical form is the
    code at 0.  The dict is made empty with the point, which costs a
    one-shot point less than making it on first use.
    """

    __slots__ = ("space", "_codes")

    def __init__(self, space: FiniteUltraSpace):
        self.space = space
        self._codes: dict[Scale, str] = {}

    def canonical_form(self) -> str:
        return self.quotient_canon(ZERO)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GHPoint) and self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        return f"GHPoint({len(self.space)} points)"

    def to_json(self) -> dict:
        return self.space.to_json()

    @classmethod
    def from_json(cls, data: object) -> "GHPoint":
        return cls(FiniteUltraSpace.from_json(data))

    def quotient_canon(self, eps: ScaleLike) -> str:
        """Canonical form of the eps-quotient, read off the dendrogram once."""
        # coerce before the lookup: 0.5 == Fraction(1, 2) and both hash alike,
        # so a raw key would find the 1/2 code where as_scale refuses a float
        scale = as_scale(eps)
        code = self._codes.get(scale)
        if code is None:
            code = self._codes[scale] = self.space.dendrogram().encode(scale)
        return code


def na_distance(x: GHPoint, y: GHPoint) -> Fraction:
    """Least candidate scale at which the two quotients become isometric.

    Candidates are 0 and the two spectra, the largest of which always
    matches.  Quotients compose, so a match at eps holds at every larger
    eps, and a binary search finds the least one.  The spectra are the
    trees' internal scales, merged by a sort and an adjacent dedupe.
    """
    scales = x.space.dendrogram().scales() + y.space.dendrogram().scales()
    scales.sort()
    candidates = [ZERO]
    for scale in scales:
        if scale != candidates[-1]:
            candidates.append(scale)
    return candidates[bisect_left(
        candidates, True, key=lambda eps: x.quotient_canon(eps) == y.quotient_canon(eps)
    )]


def na_oracle(x: GHPoint, y: GHPoint) -> Fraction:
    """Defining infimum by brute force, for |X| + |Y| <= 6.

    Enumerates pseudo-ultrametrics on the disjoint union that keep both
    internal matrices, with cross distances drawn from the grid of both
    spectra (0 included); returns the least Hausdorff distance over the
    valid ambients.  Zero cross distances glue points, so overlapping
    embeddings are covered.
    """
    nx, ny = len(x.space), len(y.space)
    if nx + ny > 6:
        raise TooLarge(f"oracle limited to 6 points total, got {nx + ny}")
    values = trace(x).union(trace(y)).elems
    # the search only compares grid values, so it runs on their ranks
    rank = {v: r for r, v in enumerate(values)}
    dx = [[rank[v] for v in row] for row in x.space.dist]
    dy = [[rank[v] for v in row] for row in y.space.dist]
    total = nx * ny
    cross = [0] * total  # entry (i, j) at i * ny + j, filled row by row
    best = len(values)  # above every rank: no pruning before the first ambient

    def search(k: int, row_floor: int) -> None:
        nonlocal best
        if row_floor >= best:
            return
        if k == total:
            for j in range(ny):
                nearest = min(cross[j::ny])
                if nearest > row_floor:
                    row_floor = nearest
            if row_floor < best:
                best = row_floor
            return
        i, j = divmod(k, ny)
        # the entry takes the ranks in [lo, hi]: each filled entry a sharing
        # a point at internal rank s caps it at max(a, s), and when a != s
        # also forces it up to that value, so every triangle stays isosceles
        lo, hi = 0, len(values) - 1
        for a, s in zip(cross[k - j:k] + cross[j:k:ny], dy[j][:j] + dx[i][:i]):
            need = a if a > s else s
            if need < hi:
                hi = need
            if a != s and need > lo:
                lo = need
        for v in range(lo, hi + 1):
            cross[k] = v
            if j == ny - 1:
                nearest = min(cross[k - j:k + 1])
                search(k + 1, nearest if nearest > row_floor else row_floor)
            else:
                search(k + 1, row_floor)

    search(0, 0)
    return values[best]  # the all-maximal assignment is always valid


def trace(x: GHPoint) -> RangeSet:
    """The trace of a class is its distance spectrum."""
    return x.space.spectrum()


def truncate(x: GHPoint, u: Fraction) -> GHPoint:
    """The quotient at ``u``: its spectrum keeps exactly the values above ``u``, plus 0."""
    return GHPoint(x.space.quotient(u))


__all__ = [
    "GHPoint",
    "TooLarge",
    "na_distance",
    "na_oracle",
    "trace",
    "truncate",
]
