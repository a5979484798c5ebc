from fractions import Fraction

import pytest

from ultrapetal.extension import Inconsistent
from ultrapetal.model_f import (
    SupportMap,
    delta,
    embed_space,
    one_point_extension,
    trace,
)
from ultrapetal.petal import F
from ultrapetal.petal_harness import POOL, gen_space, gen_support_map, spawn_rng
from ultrapetal.scales import RangeSet, ZERO
from ultrapetal.umspace import FiniteUltraSpace

THREE = FiniteUltraSpace(
    ["a", "b", "c"],
    [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]],
)


def brute_delta(f: SupportMap, g: SupportMap) -> Fraction:
    keys = {k for k, _ in f.entries} | {k for k, _ in g.entries}
    disagreements = [k for k in keys if f.value_at(k) != g.value_at(k)]
    return max(disagreements) if disagreements else ZERO


def test_support_map_validation():
    with pytest.raises(ValueError):
        SupportMap({"0": 1})
    with pytest.raises(ValueError):
        SupportMap({"1/2": 0})
    with pytest.raises(ValueError):
        SupportMap({"1/2": -3})
    with pytest.raises(ValueError):
        SupportMap([("1/2", 1), ("1/2", 2)])


def test_delta_examples():
    f = SupportMap({"1": 2, "1/2": 1})
    g = SupportMap({"1": 2, "1/2": 3})
    assert brute_delta(f, g) == Fraction(1, 2)
    assert delta(f, g) == Fraction(1, 2)
    assert delta(f, SupportMap(f.entries)) == ZERO
    assert brute_delta(SupportMap({"1": 2}), SupportMap()) == Fraction(1)
    assert delta(SupportMap({"1": 2}), SupportMap()) == Fraction(1)


def test_delta_agrees_with_brute_force():
    rng = spawn_rng(41)
    for _ in range(300):
        f = gen_support_map(rng)
        g = gen_support_map(rng)
        assert delta(f, g) == brute_delta(f, g)


def test_trace_examples():
    assert trace(SupportMap()).to_json() == ["0"]
    assert trace(SupportMap({"1": 2, "1/2": 1})).to_json() == ["0", "1/2", "1"]
    assert trace(SupportMap({"3/4": 5})).to_json() == ["0", "3/4"]


def test_in_petal_examples():
    assert F.in_petal(SupportMap(), RangeSet())
    assert F.in_petal(SupportMap({"1": 1}), RangeSet(["0", "1"]))
    assert not F.in_petal(SupportMap({"1": 1, "1/3": 2}), RangeSet(["0", "1"]))


def scan_petal_distance(tr: RangeSet, s: RangeSet) -> Fraction:
    # independent oracle: least threshold whose tail is contained in s
    return next(t for t in tr.elems if tr.tail_subset(s, t))


def test_petal_distance_examples():
    f = SupportMap({"1": 1, "1/3": 2})
    s = RangeSet(["0", "1"])
    assert scan_petal_distance(trace(f), s) == Fraction(1, 3)
    value, witness = F.petal_distance(f, s)
    assert value == Fraction(1, 3)
    assert witness == SupportMap({"1": 1})
    member = SupportMap({"1": 1})
    assert F.petal_distance(member, RangeSet(["0", "1"])) == (ZERO, member)
    value, witness = F.petal_distance(SupportMap({"1": 1}), RangeSet())
    assert value == Fraction(1) and witness == SupportMap()


def test_petal_distance_matches_scan():
    rng = spawn_rng(42)
    pool = POOL.positives()
    for _ in range(300):
        f = gen_support_map(rng)
        s = RangeSet(v for v in pool if rng.random() < 0.5)
        value, witness = F.petal_distance(f, s)
        assert value == scan_petal_distance(trace(f), s)
        assert F.in_petal(witness, s)
        assert delta(f, witness) == value


def test_approximate_into_petal_examples():
    f = SupportMap({"1": 1, "1/8": 2})
    widened, g = F.approximate_into_petal(f, RangeSet(), "1/2")
    assert widened.to_json() == ["0", "1"]
    assert g == SupportMap({"1": 1})
    assert delta(f, g) == Fraction(1, 8) < Fraction(1, 2)
    widened, g = F.approximate_into_petal(SupportMap(), RangeSet(["0", "2"]), "1/4")
    assert widened == RangeSet(["0", "2"]) and g == SupportMap()
    member = SupportMap({"1": 1})
    widened, g = F.approximate_into_petal(member, RangeSet(["0", "1"]), "1/2")
    assert widened.to_json() == ["0", "1"] and g == member
    with pytest.raises(ValueError):
        F.approximate_into_petal(member, RangeSet(), 0)


def test_one_point_extension_examples():
    theta = one_point_extension([SupportMap()], ["1/2"])
    assert brute_delta(theta, SupportMap()) == Fraction(1, 2)
    assert theta == SupportMap({"1/2": 1})

    anchors = [SupportMap(), SupportMap({"1": 1})]
    theta = one_point_extension(anchors, ["1/2", "1"])
    assert theta == SupportMap({"1/2": 1})
    assert brute_delta(theta, anchors[0]) == Fraction(1, 2)
    assert brute_delta(theta, anchors[1]) == Fraction(1)

    pinned = one_point_extension([SupportMap({"1": 1})], [0])
    assert pinned == SupportMap({"1": 1})


def test_one_point_extension_empty_and_errors():
    assert one_point_extension([], []) == SupportMap()
    with pytest.raises(ValueError):
        one_point_extension([SupportMap()], [])
    with pytest.raises(Inconsistent) as err:
        one_point_extension(
            [SupportMap(), SupportMap({"1": 1})], ["1/4", "1/4"]
        )
    assert err.value.indices == (0, 1)
    # two equal anchors cannot sit at different distances
    with pytest.raises(Inconsistent):
        one_point_extension([SupportMap(), SupportMap()], ["1/2", "1"])


def test_one_point_extension_petal_preservation():
    s = RangeSet(["0", "1/2", "1"])
    anchors = [SupportMap(), SupportMap({"1": 1}), SupportMap({"1": 1, "1/2": 2})]
    omega = SupportMap({"1/2": 5})
    targets = [delta(omega, a) for a in anchors]
    assert targets == [Fraction(1, 2), Fraction(1), Fraction(1)]
    theta = one_point_extension(anchors, targets)
    for anchor, want in zip(anchors, targets):
        assert delta(theta, anchor) == want
    assert F.in_petal(theta, s)


def test_embed_space_examples():
    single = FiniteUltraSpace(["only"], [["0"]])
    assert embed_space(single) == {"only": SupportMap()}

    two = FiniteUltraSpace(["p", "q"], [["0", "1"], ["1", "0"]])
    images = embed_space(two)
    assert images["p"] == SupportMap() and images["q"] == SupportMap({"1": 1})

    images = embed_space(THREE)
    for a in THREE.labels:
        for b in THREE.labels:
            assert delta(images[a], images[b]) == THREE.d(a, b)


def test_embed_space_random_matrices():
    rng = spawn_rng(43)
    for _ in range(60):
        space = gen_space(rng, max_points=10)
        images = embed_space(space)
        for a in space.labels:
            for b in space.labels:
                assert delta(images[a], images[b]) == space.d(a, b)


def test_covering_petal_examples():
    assert F.covering_petal([SupportMap()]).to_json() == ["0"]
    out = F.covering_petal([SupportMap({"1": 1}), SupportMap({"1/2": 3})])
    assert out.to_json() == ["0", "1/2", "1"]
    assert F.covering_petal([]).to_json() == ["0"]


def test_support_map_json_round_trip():
    f = SupportMap({"1": 2, "1/2": 1})
    assert SupportMap.from_json(f.to_json()) == f
    assert f.to_json() == {"support": [["1", 2], ["1/2", 1]]}
    with pytest.raises(ValueError):
        SupportMap.from_json({"support": [["1/2"]]})
    with pytest.raises(ValueError):
        SupportMap.from_json(["nope"])
