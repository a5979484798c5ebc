"""The constructive one-point extension, written once for every model.

The model registry (``petal.Model``) supplies each model's metric, its
origin and its placement ``place``; ``locate`` holds the policy,
``extend`` adds the exact check, and ``embed`` places a finite point
set in a given order (``Model.embed`` passes a space's label order).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .scales import ScaleLike, as_scale


class Inconsistent(ValueError):
    """Requested one-point distances cannot form an ultrametric space."""

    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(
            f"targets {i} and {j} violate the strong triangle inequality "
            "against the anchor distances"
        )


def violating_pair(metric: Callable, anchors: Sequence, targets: Sequence):
    """First index pair breaking the extension consistency, or None.

    Consistency for the extension by one new point at distances
    ``targets``: for all i, j the triple (d(a_i, a_j), t_i, t_j) must
    attain its maximum at least twice.
    """
    n = len(anchors)
    for i in range(n):
        ti = targets[i]
        for j in range(i + 1, n):
            tj = targets[j]
            dij = metric(anchors[i], anchors[j])
            top = max(dij, ti, tj)
            if (dij == top) + (ti == top) + (tj == top) < 2:
                return i, j
    return None


def verify_extension(
    metric: Callable, theta, anchors: Sequence, targets: Sequence
) -> None:
    """Check that ``theta`` realises every target distance exactly.

    A failure implies the request was inconsistent (a realising point
    is itself a witness of consistency), so the offending pair is
    located and reported.
    """
    for idx, (anchor, want) in enumerate(zip(anchors, targets)):
        if metric(theta, anchor) != want:
            pair = violating_pair(metric, anchors, targets)
            if pair is None:
                pair = (idx, idx)
            raise Inconsistent(*pair)


def locate(origin: Callable, place: Callable, anchors: Sequence, want: Sequence):
    """The extension policy alone: a candidate point for the exact targets ``want``.

    ``want`` holds exact ``Scale`` or ``Fraction`` values; only ``extend``
    coerces.  With no anchors this is ``origin()``; the first zero target
    pins it to that anchor; otherwise, with m the least target and i* the
    first index attaining it, it is ``place(anchors, want, m, i*)``.  The
    targets are scanned once and compared by integer cross-multiplication,
    so m is the first least target object.  Nothing is checked beyond the
    lengths: a caller that does not measure the point itself calls
    ``extend``.
    """
    if len(want) != len(anchors):
        raise ValueError("anchors and targets must have equal length")
    if not anchors:
        return origin()
    m, mn, md, first = None, 1, 0, 0  # mn/md = 1/0 lies above every target
    for i, t in enumerate(want):
        tn, td = t._numerator, t._denominator
        if not tn:
            return anchors[i]
        if tn * md < mn * td:
            m, mn, md, first = t, tn, td, i
    return place(anchors, want, m, first)


def extend(metric: Callable, origin: Callable, place: Callable, anchors: Sequence, targets: Sequence[ScaleLike]):
    """A point at the prescribed distances from each anchor.

    The point is ``locate``'s; every target is checked exactly, and
    Inconsistent names a violating pair.
    """
    want = [as_scale(t) for t in targets]
    theta = locate(origin, place, anchors, want)
    if anchors:  # the origin has no target to miss
        verify_extension(metric, theta, anchors, want)
    return theta


def embed(extend_one: Callable, order: Sequence, d: Callable) -> dict:
    """Image of each point ``a`` of ``order``, placed in turn by ``extend_one``
    at distances ``d(a, b)`` from every earlier point ``b``."""
    images: dict = {}
    for a in order:
        images[a] = extend_one(list(images.values()), [d(a, b) for b in images])
    return images
