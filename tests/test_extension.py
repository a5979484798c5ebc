import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from draws import consistent_request
from ultrapetal.extension import Inconsistent, embed, violating_pair
from ultrapetal.model_f import SupportMap
from ultrapetal.model_maps import CantorFunction, zero_function
from ultrapetal.petal import F, MAPS, MODELS
from ultrapetal.petal_harness import (
    POOL,
    SAMPLERS,
    gen_cantor_function,
    gen_scale,
    gen_space,
    gen_support_map,
    spawn_rng,
)
from ultrapetal.scales import RangeSet, Scale, ZERO, as_scale
from ultrapetal.umspace import FiniteUltraSpace


def _outcome(extend, anchors, targets):
    try:
        return extend(anchors, targets).to_json()
    except Inconsistent as err:
        return {"inconsistent": list(err.indices), "message": str(err)}


def _requests(model, gen, rng, count):
    # targets read off a generated point are consistent; every third
    # request has one target replaced by a draw from the scale pool
    out = []
    for _ in range(count):
        anchors = [gen(rng) for _ in range(rng.randint(0, 5))]
        point = gen(rng)
        targets = [model.metric(point, a) for a in anchors]
        if anchors and rng.random() < 1 / 3:
            targets[rng.randrange(len(targets))] = gen_scale(rng, POOL)
        out.append(_outcome(model.extend, anchors, targets))
    return out


def test_pinned_extension_outcomes():
    # fixed digest of extension outputs, Inconsistent pairs and messages,
    # and finite embeddings: the construction of the new point is pinned
    record = {
        "f": _requests(F, gen_support_map, spawn_rng(11, 0), 1500),
        "maps": _requests(MAPS, gen_cantor_function, spawn_rng(11, 1), 1500),
    }
    rng = spawn_rng(11, 2)
    record["embed"] = [
        {label: m.to_json() for label, m in F.embed(gen_space(rng, max_points=10)).items()}
        for _ in range(300)
    ]
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == "1bfff0e23b9f49ee9b1410dfdc5a447f12bea09817cbf1f5de94c49b1efe1615"


def _embed_in_label_order(extend_one, space):
    # embed as it was when it took a space: a reference for the ordered loop
    images = {}
    for label in sorted(space.labels):
        images[label] = extend_one(list(images.values()), [space.d(label, p) for p in images])
    return images


def test_embed_in_sorted_order_matches_label_order_reference():
    # the generated labels are already sorted, so each space is also
    # relabelled in reverse to make sorted order differ from stored order
    rng = spawn_rng(11, 3)
    for _ in range(300):
        space = gen_space(rng, max_points=10)
        relabelled = FiniteUltraSpace([f"q{len(space) - i}" for i in range(len(space))], space.dist)
        for s in (space, relabelled):
            for extend_one in (F.extend, MAPS.extend):
                got = embed(extend_one, sorted(s.labels), s.d)
                want = _embed_in_label_order(extend_one, s)
                assert [(k, v.to_json()) for k, v in got.items()] == [
                    (k, v.to_json()) for k, v in want.items()
                ]


@pytest.mark.parametrize("model", MODELS.values(), ids=lambda m: m.name)
def test_model_embed_reproduces_random_matrices(model):
    # each model with a placement copies every space exactly under its own
    # metric; a model without one names itself on the first point
    rng = spawn_rng(43)
    for _ in range(60):
        space = gen_space(rng, max_points=10)
        if model.place is None:
            with pytest.raises(NotImplementedError, match=f"model {model.name} "):
                model.embed(space)
            continue
        images = model.embed(space)
        for a in space.labels:
            for b in space.labels:
                assert model.metric(images[a], images[b]) == space.d(a, b)


def _support_maps():
    # each of the keys 1/2, 1, 2 absent or holding 1 or 2
    keys = ("1/2", "1", "2")
    return [
        SupportMap({k: v for k, v in zip(keys, values) if v})
        for values in itertools.product(range(3), repeat=len(keys))
    ]


def _cantor_functions():
    # values 0, 1/2, 1 on each partition of at most 3 cells, 0 among them;
    # a function with equal sibling values is met once, on its coarsest partition
    partitions = [[""], ["0", "1"], ["0", "10", "11"], ["00", "01", "1"]]
    return list(dict.fromkeys(
        CantorFunction(zip(cells, values))
        for cells in partitions
        for values in itertools.product(("0", "1/2", "1"), repeat=len(cells))
        if "0" in values
    ))


# per model: its universe, the universe's size, and how many requests are realised
UNIVERSES = {"f": (_support_maps, 27, 3159), "maps": (_cantor_functions, 33, 4316)}
GATE_TARGETS = [as_scale(t) for t in ("0", "1/3", "1/2", "1", "2")]


# the models with a constructive one-point extension
PLACED = [m for m in MODELS.values() if m.place]


@pytest.mark.parametrize("model", PLACED, ids=lambda m: m.name)
def test_extension_realises_exactly_the_consistent_requests(model):
    # every request on every anchor set of one or two points of a small
    # universe: realised exactly when violating_pair finds no pair, and
    # then exactly; rejected with Inconsistent otherwise.  The unchecked
    # locate gives extend's point, and on a rejected request that point
    # misses a target, so the exact check alone does the rejecting
    build, size, want_realised = UNIVERSES[model.name]
    universe = build()
    assert len(set(universe)) == len(universe) == size
    requests = realised = 0
    for count in (1, 2):
        for anchors in itertools.combinations(universe, count):
            anchors = list(anchors)
            for targets in itertools.product(GATE_TARGETS, repeat=count):
                requests += 1
                consistent = violating_pair(model.metric, anchors, targets) is None
                located = model.locate(anchors, targets)
                try:
                    theta = model.extend(anchors, targets)
                except Inconsistent:
                    assert not consistent, (anchors, targets)
                    assert [model.metric(located, a) for a in anchors] != list(targets), (anchors, targets)
                    continue
                assert consistent, (anchors, targets)
                assert located == theta, (anchors, targets)
                assert [model.metric(theta, a) for a in anchors] == list(targets), (anchors, targets)
                realised += 1
    assert requests == size * 5 + size * (size - 1) // 2 * 25
    assert realised == want_realised


class ExtensionRow(NamedTuple):
    """One model's hand-written extension cases, read by the three tests below."""

    petal: RangeSet  # a petal S holding ``anchors`` and ``omega``
    anchors: list  # the first two are at distance 1: no point is at 1/4 from both
    omega: object  # a hidden point, whose distances are the request
    targets: list  # ... and those distances
    seed: int  # the stream of 300 consistent requests given to locate
    hand: tuple  # a request (anchors, plain Fraction targets) and the point locate gives
    scales: Callable  # the scales a placed point stores


HALF_ONE = RangeSet(["0", "1/2", "1"])
EXTENSION_ROWS = {
    "f": ExtensionRow(
        petal=HALF_ONE,
        anchors=[SupportMap(), SupportMap({"1": 1}), SupportMap({"1": 1, "1/2": 2})],
        omega=SupportMap({"1/2": 5}),
        targets=[Fraction(1, 2), Fraction(1), Fraction(1)],
        seed=32,
        hand=([SupportMap({"1": 1}), SupportMap({"1": 2})], [Fraction(1), Fraction(1)], SupportMap({"1": 3})),
        scales=lambda theta: [k for k, _ in theta.entries] + list(theta._map),
    ),
    "maps": ExtensionRow(
        petal=HALF_ONE,
        anchors=[zero_function(), CantorFunction({"0": "1", "1": "0"}), CantorFunction({"00": "1", "01": "1/2", "1": "0"})],
        omega=CantorFunction({"0": "1/2", "1": "0"}),
        targets=[Fraction(1, 2), Fraction(1), Fraction(1)],
        seed=54,
        hand=([zero_function(), CantorFunction({"0": "1", "1": "0"})], [Fraction(1, 2), Fraction(1)],
              CantorFunction({"00": "1/2", "01": "0", "1": "0"})),
        scales=lambda theta: theta.values,
    ),
}


@pytest.mark.parametrize("model", PLACED, ids=lambda m: m.name)
def test_one_point_extension_empty_and_errors(model):
    assert model.extend([], []) == model.origin()
    with pytest.raises(ValueError):
        model.extend([model.origin()], [])
    with pytest.raises(Inconsistent) as err:
        model.extend(EXTENSION_ROWS[model.name].anchors[:2], ["1/4", "1/4"])
    assert err.value.indices == (0, 1)
    # two equal anchors cannot sit at different distances
    with pytest.raises(Inconsistent):
        model.extend([model.origin(), model.origin()], ["1/2", "1"])


@pytest.mark.parametrize("model", PLACED, ids=lambda m: m.name)
def test_one_point_extension_petal_preservation(model):
    # anchors and a hidden point in S: the point placed at its distances is in S
    row = EXTENSION_ROWS[model.name]
    assert all(model.in_petal(x, row.petal) for x in [*row.anchors, row.omega])
    targets = [model.metric(row.omega, a) for a in row.anchors]
    assert targets == row.targets
    theta = model.extend(row.anchors, targets)
    assert [model.metric(theta, a) for a in row.anchors] == targets
    assert model.in_petal(theta, row.petal)


@pytest.mark.parametrize("model", PLACED, ids=lambda m: m.name)
def test_locate_stores_a_scale_for_plain_fraction_targets(model):
    # Model.locate takes plain Fractions; place coerces the one target it
    # stores, so the element is extend's, with Scale scales only
    row = EXTENSION_ROWS[model.name]
    *hand, point = row.hand
    cases = [hand]
    rng = spawn_rng(row.seed)
    for _ in range(300):
        anchors, want = consistent_request(SAMPLERS[model.name], rng)
        cases.append((anchors, [Fraction(t) for t in want]))
    for anchors, want in cases:
        assert all(type(t) is Fraction for t in want)
        theta = model.locate(anchors, want)
        assert theta == model.extend(anchors, want)
        assert all(type(v) is Scale for v in row.scales(theta))
    assert model.locate(*hand) == point


def _ref_locate(origin, place, anchors, want):
    # oracle: the body locate had before it compared targets inline
    if len(want) != len(anchors):
        raise ValueError("anchors and targets must have equal length")
    if not anchors:
        return origin()
    if ZERO in want:
        return anchors[want.index(ZERO)]
    m = min(want)
    return place(anchors, want, m, want.index(m))


def _spy_place(anchors, want, m, i):
    return ("placed", m, i)


def test_locate_matches_reference_policy():
    # want lists of 1-8 targets from POOL, each the pool object, a parsed
    # copy or a plain Fraction: zeros anywhere and ties across distinct
    # objects; locate must pin the same anchor, or place at the same m
    # object and index
    rng = spawn_rng(11, 4)
    forms = (lambda v: v, lambda v: as_scale(str(v)), Fraction)
    anchors = [object() for _ in range(8)]
    spy = dataclasses.replace(F, place=_spy_place)
    assert spy.locate([], []) == _ref_locate(SupportMap, _spy_place, [], []) == SupportMap()
    pinned = placed = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        want = [rng.choice(forms)(rng.choice(POOL.elems)) for _ in range(n)]
        got = spy.locate(anchors[:n], want)
        ref = _ref_locate(SupportMap, _spy_place, anchors[:n], want)
        if type(ref) is tuple:
            placed += 1
            assert type(got) is tuple and got[1] is ref[1] and got[2] == ref[2], want
        else:
            pinned += 1
            assert got is ref, want
    assert pinned > 1000 and placed > 1000
    with pytest.raises(ValueError, match="equal length"):
        spy.locate(anchors[:2], [ZERO])


@pytest.mark.parametrize("model", [m for m in MODELS.values() if not m.place], ids=lambda m: m.name)
def test_model_without_extension_names_itself(model):
    # cpum and gh have no constructive extension: one clear error naming
    # the model, also for the requests the policy answers without placing
    x = SAMPLERS[model.name].gen(spawn_rng(0))
    message = f"model {model.name} has no constructive one-point extension"
    for call, anchors, targets in [
        (model.extend, [], []), (model.extend, [x], ["0"]), (model.extend, [x], ["1"]),
        (model.extend, [x], ["-1"]), (model.extend, [x], [0.5]),
        (model.locate, [], []), (model.locate, [x], [ZERO]),
    ]:
        with pytest.raises(NotImplementedError) as err:
            call(anchors, targets)
        assert str(err.value) == message
