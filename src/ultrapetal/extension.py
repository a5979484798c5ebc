"""The model-free parts of the one-point extension.

The extension itself is the model registry's: ``petal.Model.locate``
holds the policy and ``petal.Model.extend`` checks its point by
``verify_extension``.  This module keeps that exact check, the
consistency witness ``violating_pair`` it reports through
``Inconsistent``, and ``embed``, which places a finite point set in a
given order (``Model.embed`` passes a space's label order).
"""

from __future__ import annotations

from typing import Callable, Sequence


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


def embed(extend_one: Callable, order: Sequence, d: Callable) -> dict:
    """Image of each point ``a`` of ``order``, placed in turn by ``extend_one``
    at distances ``d(a, b)`` from every earlier point ``b``."""
    images: dict = {}
    for a in order:
        images[a] = extend_one(list(images.values()), [d(a, b) for b in images])
    return images
