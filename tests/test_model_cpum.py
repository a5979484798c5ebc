from fractions import Fraction

import pytest

from ultrapetal.cells import cell_owners, refinement
from ultrapetal.model_cpum import (
    CantorPseudoUltrametric,
    trace,
    ud,
)
from ultrapetal.petal import CPUM
from ultrapetal.petal_harness import gen_cpum, gen_range_set, spawn_rng
from ultrapetal.scales import RangeSet, ZERO
from ultrapetal.umspace import NotSymmetric, NotUltrametric, check_matrix


def brute_ud(d, e) -> Fraction:
    refined = refinement((d.cells, e.cells))
    od = cell_owners(refined, d.cells)
    oe = cell_owners(refined, e.cells)
    worst = ZERO
    for i in range(len(refined)):
        for j in range(len(refined)):
            a = d.dist[od[i]][od[j]]
            b = e.dist[oe[i]][oe[j]]
            if a != b:
                worst = max(worst, a, b)
    return worst


def test_constructor_allows_pseudo_but_validates():
    CantorPseudoUltrametric(["0", "1"], [["0", "0"], ["0", "0"]])
    with pytest.raises(NotSymmetric):
        CantorPseudoUltrametric(["0", "1"], [["0", "1"], ["1/2", "0"]])
    with pytest.raises(NotUltrametric):
        CantorPseudoUltrametric(
            ["00", "01", "1"],
            [["0", "1/2", "1"], ["1/2", "0", "1/4"], ["1", "1/4", "0"]],
        )
    with pytest.raises(ValueError):
        CantorPseudoUltrametric(["0"], [["0"]])  # incomplete partition


def test_cells_are_sorted_with_matrix_permuted():
    d = CantorPseudoUltrametric(
        ["1", "01", "00"],
        [["0", "1", "1"], ["1", "0", "1/4"], ["1", "1/4", "0"]],
    )
    assert d.cells == ("00", "01", "1")
    assert d.dist[0][1] == Fraction(1, 4)
    assert d.dist[0][2] == Fraction(1)


def test_ud_examples():
    d = CantorPseudoUltrametric(["0", "1"], [["0", "1"], ["1", "0"]])
    assert ud(d, d) == ZERO
    e = CantorPseudoUltrametric(["0", "1"], [["0", "1/2"], ["1/2", "0"]])
    assert ud(d, e) == Fraction(1)
    d3 = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/4", "1"], ["1/4", "0", "1"], ["1", "1", "0"]],
    )
    e3 = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "0", "1"], ["0", "0", "1"], ["1", "1", "0"]],
    )
    assert ud(d3, e3) == Fraction(1, 4)


def test_ud_across_partitions_and_brute_force():
    rng = spawn_rng(61)
    for _ in range(200):
        d = gen_cpum(rng)
        e = gen_cpum(rng)
        assert ud(d, e) == brute_ud(d, e)
        assert ud(d, e) == ud(e, d)


def test_spectrum_examples():
    allzero = CantorPseudoUltrametric([""], [["0"]])
    assert allzero.spectrum().to_json() == ["0"]
    d = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"]],
    )
    assert d.spectrum().to_json() == ["0", "1/3", "1"]
    assert trace(d) == d.spectrum()


def test_petal_distance_truncation_witness():
    d = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"]],
    )
    s = RangeSet(["0", "1"])
    value, witness = CPUM.petal_distance(d, s)
    assert value == Fraction(1, 3)
    assert witness.dist[0][1] == ZERO and witness.dist[0][2] == Fraction(1)
    assert CPUM.in_petal(witness, s)
    assert ud(d, witness) == value
    member = CPUM.petal_distance(witness, s)
    assert member == (ZERO, witness)


def test_witness_is_valid_pseudo_ultrametric():
    rng = spawn_rng(62)
    for _ in range(150):
        d = gen_cpum(rng)
        s = gen_range_set(rng)
        _, witness = CPUM.petal_distance(d, s)
        check_matrix(witness.dist, witness.cells, allow_zero=True)
        assert CPUM.in_petal(witness, s)


def test_approximate_and_covering():
    d = CantorPseudoUltrametric(
        ["0", "1"], [["0", "1/8"], ["1/8", "0"]]
    )
    widened, e = CPUM.approximate_into_petal(d, RangeSet(), "1/2")
    assert widened.to_json() == ["0"]
    assert e.spectrum().to_json() == ["0"]
    assert ud(d, e) == Fraction(1, 8) < Fraction(1, 2)
    assert CPUM.covering_petal([d]).to_json() == ["0", "1/8"]
    assert CPUM.covering_petal([]).to_json() == ["0"]


def test_json_round_trip():
    d = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/4", "1"], ["1/4", "0", "1"], ["1", "1", "0"]],
    )
    again = CantorPseudoUltrametric.from_json(d.to_json())
    assert again.cells == d.cells and again.dist == d.dist
    with pytest.raises(ValueError):
        CantorPseudoUltrametric.from_json({"cells": ["0", "1"]})
