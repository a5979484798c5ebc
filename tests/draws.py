"""Draws, scale spellings and a petal-distance oracle shared by the test modules."""

from fractions import Fraction

from ultrapetal.scales import RangeSet


def spellings(v):
    """Strings and objects that as_scale reads as the scale v."""
    n, d = v.numerator, v.denominator
    out = [str(v), f"{3 * n}/{3 * d}", v]
    if d == 1:
        out += [n, f"{n}.0", f"{n}/1"]
    if 1000 % d == 0:
        m = n * (1000 // d)
        out.append(f"{m // 1000}.{m % 1000:03d}")
    return out


def random_petal(rng) -> RangeSet:
    """A range set of at most 7 random positive scales p/q, with p <= 12 and q <= 9."""
    return RangeSet(Fraction(rng.randint(1, 12), rng.randint(1, 9)) for _ in range(rng.randint(0, 7)))


def consistent_request(sampler, rng):
    """1-5 anchors drawn by ``sampler`` and the distances of a hidden point: always consistent."""
    anchors = [sampler.gen(rng) for _ in range(rng.randint(1, 5))]
    hidden = sampler.gen(rng)
    return anchors, [sampler.model.metric(hidden, a) for a in anchors]


def scan_petal_distance(tr: RangeSet, s: RangeSet) -> Fraction:
    """Independent oracle: the least threshold of ``tr`` whose tail lies in ``s``."""
    return next(t for t in tr.elems if tr.tail_subset(s, t))
