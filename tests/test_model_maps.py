from fractions import Fraction

import pytest

from ultrapetal.cells import cell_owners, check_prefixes, refinement
from ultrapetal.extension import Inconsistent
from ultrapetal.model_maps import (
    CantorFunction,
    nabla,
    one_point_extension,
    trace,
    zero_function,
)
from ultrapetal.petal import MAPS
from ultrapetal.petal_harness import gen_cantor_function, spawn_rng
from ultrapetal.scales import RangeSet, ZERO


def value_at(fun: CantorFunction, point: str) -> Fraction:
    # the unique cell prefix of the point decides the value
    table = dict(fun.cells)
    for i in range(len(point) + 1):
        if point[:i] in table:
            return table[point[:i]]
    raise AssertionError(f"no cell owns {point!r}")


def brute_nabla(f: CantorFunction, g: CantorFunction) -> Fraction:
    # oracle: evaluate both functions at one point per refinement cell
    worst = ZERO
    for point in refinement((f.prefixes(), g.prefixes())):
        a, b = value_at(f, point), value_at(g, point)
        if a != b:
            worst = max(worst, a, b)
    return worst


def test_partition_validation():
    check_prefixes([""])
    check_prefixes(["0", "10", "11"])
    with pytest.raises(ValueError):
        check_prefixes([])
    with pytest.raises(ValueError):
        check_prefixes(["0"])  # measure 1/2 only
    with pytest.raises(ValueError):
        check_prefixes(["0", "1", "11"])  # prefix collision
    with pytest.raises(ValueError):
        check_prefixes(["0", "2"])  # alphabet
    with pytest.raises(ValueError):
        check_prefixes(["0", "0", "1"])  # duplicate


def test_constructor_requires_zero_and_merges():
    with pytest.raises(ValueError):
        CantorFunction({"0": "1", "1": "1/2"})
    merged = CantorFunction({"00": "0", "01": "0", "1": "1"})
    assert merged.cells == (("0", ZERO), ("1", Fraction(1)))
    allzero = CantorFunction({"0": 0, "1": 0})
    assert allzero == zero_function()


def test_refinement_and_owners():
    left = ("0", "10", "11")
    right = ("00", "01", "1")
    refined = refinement((left, right))
    assert refined == ["00", "01", "10", "11"]
    assert cell_owners(refined, left) == [0, 0, 1, 2]
    assert cell_owners(refined, right) == [0, 1, 2, 2]


def test_nabla_examples():
    f = CantorFunction({"0": "1/2", "1": "0"})
    g = CantorFunction({"0": "1/4", "1": "0"})
    assert brute_nabla(f, g) == Fraction(1, 2)
    assert nabla(f, g) == Fraction(1, 2)
    assert nabla(f, CantorFunction(f.cells)) == ZERO
    f2 = CantorFunction({"0": "0", "1": "1"})
    g2 = CantorFunction({"0": "0", "1": "1/3"})
    assert brute_nabla(f2, g2) == Fraction(1)
    assert nabla(f2, g2) == Fraction(1)


def test_nabla_across_different_partitions():
    f = CantorFunction({"00": "1", "01": "1/2", "1": "0"})
    g = CantorFunction({"0": "1", "10": "0", "11": "2"})
    # refinement cells: 00, 01, 10, 11 -> pairs (1,1), (1/2,1), (0,0), (0,2)
    assert nabla(f, g) == Fraction(2)
    assert nabla(f, g) == brute_nabla(f, g)


def test_trace_examples():
    assert trace(zero_function()).to_json() == ["0"]
    assert trace(CantorFunction({"0": "1/2", "1": "0"})).to_json() == ["0", "1/2"]
    assert trace(CantorFunction({"00": "1", "01": "1/2", "1": "0"})).to_json() == ["0", "1/2", "1"]


def test_petal_distance_examples():
    f = CantorFunction({"0": "1/2", "1": "0"})
    value, witness = MAPS.petal_distance(f, RangeSet())
    assert value == Fraction(1, 2) and witness == zero_function()
    member = CantorFunction({"0": "1", "1": "0"})
    assert MAPS.petal_distance(member, RangeSet(["0", "1"])) == (ZERO, member)
    f3 = CantorFunction({"00": "1", "01": "1/3", "1": "0"})
    value, witness = MAPS.petal_distance(f3, RangeSet(["0", "1"]))
    assert value == Fraction(1, 3)
    assert witness == CantorFunction({"00": "1", "01": "0", "1": "0"})
    assert nabla(f3, witness) == value
    assert MAPS.in_petal(witness, RangeSet(["0", "1"]))


def test_petal_ops_examples():
    assert MAPS.in_petal(zero_function(), RangeSet())
    assert MAPS.covering_petal([CantorFunction({"0": "1/2", "1": "0"})]).to_json() == ["0", "1/2"]
    f = CantorFunction({"0": "1/8", "1": "0"})
    widened, g = MAPS.approximate_into_petal(f, RangeSet(), "1/2")
    assert widened.to_json() == ["0"]
    assert g == zero_function()
    assert nabla(f, g) == Fraction(1, 8) < Fraction(1, 2)


def test_one_point_extension_examples():
    theta = one_point_extension([zero_function()], ["1/2"])
    assert theta == CantorFunction({"0": "1/2", "1": "0"})
    assert brute_nabla(theta, zero_function()) == Fraction(1, 2)

    anchors = [zero_function(), CantorFunction({"0": "1", "1": "0"})]
    theta = one_point_extension(anchors, ["1/2", "1"])
    assert nabla(theta, anchors[0]) == Fraction(1, 2)
    assert nabla(theta, anchors[1]) == Fraction(1)

    f = CantorFunction({"0": "1/2", "1": "0"})
    assert one_point_extension([f], [0]) == f


def test_one_point_extension_empty_and_errors():
    assert one_point_extension([], []) == zero_function()
    with pytest.raises(Inconsistent):
        one_point_extension(
            [zero_function(), CantorFunction({"0": "1", "1": "0"})],
            ["1/4", "1/4"],
        )


def test_one_point_extension_petal_preservation():
    s = RangeSet(["0", "1/2", "1"])
    anchors = [
        zero_function(),
        CantorFunction({"0": "1", "1": "0"}),
        CantorFunction({"00": "1", "01": "1/2", "1": "0"}),
    ]
    omega = CantorFunction({"0": "1/2", "1": "0"})
    targets = [nabla(omega, a) for a in anchors]
    theta = one_point_extension(anchors, targets)
    for anchor, want in zip(anchors, targets):
        assert nabla(theta, anchor) == want
    assert MAPS.in_petal(theta, s)


def test_canonicalization_round_trip():
    rng = spawn_rng(51)
    for _ in range(120):
        f = gen_cantor_function(rng)
        refined = dict(f.cells)
        for _ in range(rng.randint(1, 4)):
            keys = sorted(refined)
            pick = keys[rng.randrange(len(keys))]
            value = refined.pop(pick)
            refined[pick + "0"] = value
            refined[pick + "1"] = value
        rebuilt = CantorFunction(refined)
        assert rebuilt.cells == f.cells
        assert nabla(f, rebuilt) == ZERO


def test_nabla_against_brute_force():
    rng = spawn_rng(52)
    for _ in range(200):
        f = gen_cantor_function(rng)
        g = gen_cantor_function(rng)
        assert nabla(f, g) == brute_nabla(f, g)


def test_cantor_function_json_round_trip():
    f = CantorFunction({"00": "1", "01": "1/3", "1": "0"})
    assert CantorFunction.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        CantorFunction.from_json({"cells": [["0", "1"]]})
    with pytest.raises(ValueError):
        CantorFunction.from_json({"cells": "zzz"})
