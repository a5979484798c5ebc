import json
from fractions import Fraction

import pytest

from ultrapetal.extension import Inconsistent
from ultrapetal.model_f import (
    SupportMap,
    delta,
    trace,
    truncate,
)
from ultrapetal.petal import F
from ultrapetal.petal_harness import POOL, TrialConfig, back_and_forth, gen_support_map, spawn_rng
from ultrapetal.scales import RangeSet, Scale, ZERO
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


def merged_delta(f: SupportMap, g: SupportMap) -> Fraction:
    # oracle: the two-index merge over the descending entries
    if f.entries == g.entries:
        return ZERO
    a, b = f.entries, g.entries
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i][0] > b[j][0]):
            return a[i][0]
        if i >= len(a) or b[j][0] > a[i][0]:
            return b[j][0]
        if a[i][1] != b[j][1]:
            return a[i][0]
        i += 1
        j += 1
    return ZERO


def _ref_delta(f: SupportMap, g: SupportMap) -> Fraction:
    # oracle: the tuple-comparing body delta had before it compared keys
    # inline; its result object is the one delta must return
    a, b = f.entries, g.entries
    for p, q in zip(a, b):
        if p != q:
            return p[0] if p[0] > q[0] else q[0]
    if len(a) != len(b):
        return a[len(b)][0] if len(a) > len(b) else b[len(a)][0]
    return ZERO


def _parsed(f: SupportMap) -> SupportMap:
    return SupportMap.from_json(json.loads(json.dumps(f.to_json())))


def test_delta_matches_merge_oracle():
    rng = spawn_rng(43)
    generated = [gen_support_map(rng) for _ in range(60)]
    pairing = back_and_forth(TrialConfig(seed=4, trials=25))
    grown = pairing.left
    maps = generated + grown
    # same keys with one value changed, every proper prefix of the entries,
    # and parsed copies: equal keys held in distinct objects, where delta
    # returns g's key object
    revalued = [
        SupportMap(f.entries[:k] + ((f.entries[k][0], f.entries[k][1] + 1),) + f.entries[k + 1:])
        for f in maps for k in range(len(f.entries))
    ]
    prefixes = [SupportMap(f.entries[:k]) for f in maps for k in range(len(f.entries))]
    copies = [_parsed(f) for f in maps]
    assert any(len(f.entries) > 2 for f in grown)
    for f in maps:
        for g in maps:
            assert delta(f, g) is _ref_delta(f, g)
            assert delta(f, g) == merged_delta(f, g)
    for f, g in zip(maps, copies):
        assert delta(f, g) is _ref_delta(f, g) is ZERO
        assert merged_delta(f, g) == ZERO
    for others in (revalued, prefixes, copies, [_parsed(g) for g in revalued]):
        for g in others:
            for f in maps:
                assert delta(f, g) is _ref_delta(f, g)
                assert delta(g, f) is _ref_delta(g, f)
                assert delta(f, g) == merged_delta(f, g)
                assert delta(g, f) == merged_delta(g, f)


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
    theta = F.extend([SupportMap()], ["1/2"])
    assert brute_delta(theta, SupportMap()) == Fraction(1, 2)
    assert theta == SupportMap({"1/2": 1})

    anchors = [SupportMap(), SupportMap({"1": 1})]
    theta = F.extend(anchors, ["1/2", "1"])
    assert theta == SupportMap({"1/2": 1})
    assert brute_delta(theta, anchors[0]) == Fraction(1, 2)
    assert brute_delta(theta, anchors[1]) == Fraction(1)

    pinned = F.extend([SupportMap({"1": 1})], [0])
    assert pinned == SupportMap({"1": 1})


def test_one_point_extension_empty_and_errors():
    assert F.extend([], []) == SupportMap()
    with pytest.raises(ValueError):
        F.extend([SupportMap()], [])
    with pytest.raises(Inconsistent) as err:
        F.extend(
            [SupportMap(), SupportMap({"1": 1})], ["1/4", "1/4"]
        )
    assert err.value.indices == (0, 1)
    # two equal anchors cannot sit at different distances
    with pytest.raises(Inconsistent):
        F.extend([SupportMap(), SupportMap()], ["1/2", "1"])


def test_one_point_extension_petal_preservation():
    s = RangeSet(["0", "1/2", "1"])
    anchors = [SupportMap(), SupportMap({"1": 1}), SupportMap({"1": 1, "1/2": 2})]
    omega = SupportMap({"1/2": 5})
    targets = [delta(omega, a) for a in anchors]
    assert targets == [Fraction(1, 2), Fraction(1), Fraction(1)]
    theta = F.extend(anchors, targets)
    for anchor, want in zip(anchors, targets):
        assert delta(theta, anchor) == want
    assert F.in_petal(theta, s)


def test_embed_space_examples():
    single = FiniteUltraSpace(["only"], [["0"]])
    assert F.embed(single) == {"only": SupportMap()}

    two = FiniteUltraSpace(["p", "q"], [["0", "1"], ["1", "0"]])
    images = F.embed(two)
    assert images["p"] == SupportMap() and images["q"] == SupportMap({"1": 1})

    images = F.embed(THREE)
    for a in THREE.labels:
        for b in THREE.labels:
            assert delta(images[a], images[b]) == THREE.d(a, b)


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


def _random_petal(rng) -> RangeSet:
    return RangeSet(Fraction(rng.randint(1, 12), rng.randint(1, 9)) for _ in range(rng.randint(0, 7)))


def _consistent_request(rng):
    # the distances of a hidden point are always a consistent request
    anchors = [gen_support_map(rng) for _ in range(rng.randint(1, 5))]
    hidden = gen_support_map(rng)
    return anchors, [delta(hidden, a) for a in anchors]


def _assert_checked_rebuild(made: SupportMap, rebuilt: SupportMap) -> None:
    # a trusted construction equals its rebuild through the checked
    # constructor, field by field, and holds only Scale keys
    assert made.entries == rebuilt.entries
    assert made._map == rebuilt._map
    assert all(type(k) is Scale and type(v) is int for k, v in made.entries)


def test_trusted_support_maps_match_the_checked_constructor():
    # every construction through ``_from_entries``: the generator, on POOL
    # and on random petals, ``truncate`` and ``place``; a truncation is
    # rebuilt from its definition, the keys of f above u
    for seed in range(2000):
        rng = spawn_rng(seed, 31)
        for f in (gen_support_map(rng), gen_support_map(rng, _random_petal(rng))):
            _assert_checked_rebuild(f, SupportMap(reversed(f.entries)))
            for u in sorted({*POOL, *trace(f)}):
                _assert_checked_rebuild(truncate(f, u), SupportMap({k: v for k, v in f.entries if k > u}))
        anchors, want = _consistent_request(rng)
        theta = F.locate(anchors, want)
        _assert_checked_rebuild(theta, SupportMap(theta.entries))
        assert [delta(theta, a) for a in anchors] == want


def test_locate_stores_a_scale_for_plain_fraction_targets():
    # Model.locate takes plain Fractions; place coerces the one target it
    # stores, so the element is extend's, with Scale keys only
    cases = [([SupportMap({"1": 1}), SupportMap({"1": 2})], [Fraction(1), Fraction(1)])]
    rng = spawn_rng(32)
    for _ in range(300):
        anchors, want = _consistent_request(rng)
        cases.append((anchors, [Fraction(t) for t in want]))
    for anchors, want in cases:
        assert all(type(t) is Fraction for t in want)
        theta = F.locate(anchors, want)
        assert theta == F.extend(anchors, want)
        assert all(type(k) is Scale for k, _ in theta.entries)
        assert all(type(k) is Scale for k in theta._map)
    assert F.locate(*cases[0]) == SupportMap({"1": 3})
