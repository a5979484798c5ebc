"""The model registry, with the petal operations written once for all models."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import extension, model_cpum, model_f, model_gh, model_maps
from .model_cpum import CantorPseudoUltrametric
from .model_f import SupportMap
from .model_gh import GHPoint
from .model_maps import CantorFunction
from .scales import RangeSet, ScaleLike, ZERO, as_scale, max_outside


@dataclass(frozen=True)
class Model:
    """One petal-carrying model space, given by its primitives.

    ``trace(x)`` is the least range set whose petal holds ``x``;
    ``truncate(x, u)`` drops every trace value <= u, keeps the values
    above u, and moves ``x`` by at most u.  The petal operations below use
    these two alone.  Where the model has a constructive one-point
    extension, ``origin()`` is its point for no anchors and
    ``place(anchors, want, m, i)`` its new point away from every anchor;
    ``locate`` holds the extension's policy, ``extend`` also checks its point
    with ``metric``, and ``embed`` copies a finite space by ``extend``; on a
    model without them all three raise NotImplementedError before any target
    is read.
    """

    name: str
    from_json: Callable
    metric: Callable
    trace: Callable
    truncate: Callable
    origin: Optional[Callable] = None
    place: Optional[Callable] = None

    def extend(self, anchors: Sequence, targets: Sequence[ScaleLike]):
        """``locate``'s point at the distances ``targets`` from ``anchors``, each
        checked exactly by ``extension.verify_extension``, which raises Inconsistent."""
        self._require_place()
        want = [as_scale(t) for t in targets]
        theta = self.locate(anchors, want)
        if anchors:  # the origin has no target to miss
            extension.verify_extension(self.metric, theta, anchors, want)
        return theta

    def locate(self, anchors: Sequence, want: Sequence):
        """The extension policy alone: a candidate point for the exact targets ``want``.

        ``want`` holds exact ``Scale`` or ``Fraction`` values; only ``extend``
        coerces, and ``place`` the one target it stores.  With no anchors
        this is ``origin()``; the first zero target pins it to that anchor;
        otherwise, with m the least target and i* the first index attaining
        it, it is ``place(anchors, want, m, i*)``.  The targets are scanned
        once and compared by integer cross-multiplication, so m is the first
        least target object.  Nothing is checked beyond the lengths: a caller
        that does not measure the point itself calls ``extend``.
        """
        self._require_place()
        if len(want) != len(anchors):
            raise ValueError("anchors and targets must have equal length")
        if not anchors:
            return self.origin()
        m, mn, md, first = None, 1, 0, 0  # mn/md = 1/0 lies above every target
        for i, t in enumerate(want):
            tn, td = t._numerator, t._denominator
            if not tn:
                return anchors[i]
            if tn * md < mn * td:
                m, mn, md, first = t, tn, td, i
        return self.place(anchors, want, m, first)

    def embed(self, space) -> dict:
        """Isometric copy of a finite ultrametric space, as a dict from label to element.

        The points are placed in label order, each by the checked ``extend``
        at its distances from the points before it; see ``extension.embed``.
        """
        return extension.embed(self.extend, sorted(space.labels), space.d)

    def _require_place(self) -> None:
        if self.place is None:
            raise NotImplementedError(f"model {self.name} has no constructive one-point extension")

    def in_petal(self, x, s: RangeSet) -> bool:
        return self.trace(x).issubset(s)

    def petal_distance(self, x, s: RangeSet) -> tuple[Fraction, object]:
        """Exact distance from ``x`` to the petal of ``s`` and a nearest member.

        The distance is the largest trace value outside ``s`` (0 for
        members); the witness truncates ``x`` there, so every trace value
        it keeps lies above the threshold and hence in ``s``.
        """
        u = max_outside(self.trace(x), s)
        if u == ZERO:
            return ZERO, x
        return u, self.truncate(x, u)

    def approximate_into_petal(self, x, s: RangeSet, r: ScaleLike) -> tuple[RangeSet, object]:
        """(T, g) with g in the petal of T, d(x, g) < r, and ``s`` inside T.

        g truncates ``x`` at the largest trace value below r, so T adds to
        ``s`` only the finitely many trace values >= r.
        """
        bound = as_scale(r)
        if bound <= ZERO:
            raise ValueError("approximation radius must be positive")
        values = self.trace(x).elems
        g = self.truncate(x, values[bisect_left(values, bound) - 1])
        return s.union(self.trace(g)), g

    def covering_petal(self, points: Sequence) -> RangeSet:
        """A range set whose petal contains every given point: the traces' union."""
        return RangeSet(v for p in points for v in self.trace(p))


# one module-level name per record: perfbench/layer_trace.py rebinds the
# functions held by module-level records, and only those
F = Model(name="f", from_json=SupportMap.from_json, metric=model_f.delta,
          trace=model_f.trace, truncate=model_f.truncate, origin=SupportMap, place=model_f.place)
MAPS = Model(name="maps", from_json=CantorFunction.from_json, metric=model_maps.nabla,
             trace=model_maps.trace, truncate=model_maps.truncate,
             origin=model_maps.zero_function, place=model_maps.place)
CPUM = Model(name="cpum", from_json=CantorPseudoUltrametric.from_json, metric=model_cpum.ud,
             trace=model_cpum.trace, truncate=model_cpum.truncate)
GH = Model(name="gh", from_json=GHPoint.from_json, metric=model_gh.na_distance,
           trace=model_gh.trace, truncate=model_gh.truncate)

MODELS = {m.name: m for m in (F, MAPS, CPUM, GH)}

__all__ = ["Model", "F", "MAPS", "CPUM", "GH", "MODELS"]
