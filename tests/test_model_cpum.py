import json
from fractions import Fraction

import pytest

from cell_oracle import cell_owners, refinement
from ultrapetal.cells import check_prefixes
from ultrapetal.model_cpum import (
    CantorPseudoUltrametric,
    trace,
    truncate,
    ud,
)
from ultrapetal.petal import CPUM
from ultrapetal.petal_harness import POOL, gen_cpum, gen_range_set, spawn_rng
from ultrapetal.scales import RangeSet, Scale, ZERO, as_scale
from ultrapetal.umspace import NotSymmetric, NotUltrametric, SpaceError, check_matrix


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


def refined_ud(d, e) -> Fraction:
    # oracle: the refinement-based ud, sorting the union of the cells
    refined = refinement((d.cells, e.cells))
    od = cell_owners(refined, d.cells)
    oe = cell_owners(refined, e.cells)
    worst = ZERO
    n = len(refined)
    for i in range(n):
        di = d.dist[od[i]]
        ei = e.dist[oe[i]]
        for j in range(i + 1, n):
            a = di[od[j]]
            b = ei[oe[j]]
            if a != b:
                hi = a if a > b else b
                if hi > worst:
                    worst = hi
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


def _ref_sorted(cells, dist):
    # oracle: the validated rows permuted into sorted cell order, one lookup per entry
    given = list(cells)
    ordered = check_prefixes(given)
    check_matrix(dist, given, allow_zero=True)
    rows = tuple(tuple(as_scale(v) for v in row) for row in dist)
    order = sorted(range(len(given)), key=lambda i: given[i])
    return ordered, tuple(tuple(rows[a][b] for b in order) for a in order)


def test_shuffled_input_matches_permutation_oracle():
    rng = spawn_rng(63)
    with_zeros = 0
    for t in range(600):
        d = gen_cpum(rng)
        if t % 3 == 0:
            d = truncate(d, POOL.elems[rng.randrange(len(POOL.elems))])
        n = len(d.cells)
        with_zeros += any(d.dist[i][j] == ZERO for i in range(n) for j in range(i + 1, n))
        perm = list(range(n))
        rng.shuffle(perm)
        cells = [d.cells[p] for p in perm]
        dist = [[d.dist[p][q] for q in perm] for p in perm]
        if t % 2:
            dist = [[str(v) for v in row] for row in dist]
        e = CantorPseudoUltrametric(cells, dist)
        assert (e.cells, e.dist) == _ref_sorted(cells, dist) == (d.cells, d.dist)
        assert all(type(v) is Scale for row in e.dist for v in row)
    assert with_zeros > 100


@pytest.mark.parametrize(
    "cells, message",
    [
        (["0", "2"], "binary string"),
        (["0", "0"], "duplicate"),
        (["0", "01", "1"], "is a prefix of"),
        (["0"], "not the whole space"),
        ([], "nonempty"),
    ],
)
def test_prefix_error_comes_before_matrix_error(cells, message):
    malformed = [["0", "1"], ["1/2", "x"]]
    with pytest.raises(ValueError, match=message) as err:
        CantorPseudoUltrametric(cells, malformed)
    assert not isinstance(err.value, SpaceError)


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


def _parsed(d):
    return CantorPseudoUltrametric.from_json(json.loads(json.dumps(d.to_json())))


def _halved(d):
    return CantorPseudoUltrametric(d.cells, [[v / 2 for v in row] for row in d.dist])


def test_ud_across_partitions_and_brute_force():
    # refined_ud compares with Scale methods in the same pair order, so ud
    # returns its very object, also where it stops at the larger diameter;
    # parsed copies hold equal values in distinct objects, halved copies
    # keep the cells and change every nonzero entry
    rng = spawn_rng(61)
    one_cell = CantorPseudoUltrametric([""], [["0"]])
    all_zero = CantorPseudoUltrametric(["0", "10", "11"], [["0"] * 3] * 3)
    assert one_cell._tree.scale is None and all_zero._tree.scale == ZERO
    # 1/2 and 1/4 below a shared top of 1, which the scan never reaches
    ca = CantorPseudoUltrametric(["00", "01", "1"], [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]])
    cb = CantorPseudoUltrametric(["00", "01", "1"], [["0", "1/4", "1"], ["1/4", "0", "1"], ["1", "1", "0"]])
    fixed = [one_cell, all_zero, ca, cb, _parsed(ca)]
    assert ud(ca, cb) == ud(cb, ca) == Fraction(1, 2)
    for _ in range(200):
        d = gen_cpum(rng)
        e = gen_cpum(rng)
        dc, ec = _parsed(d), _parsed(e)
        dh, eh = _halved(d), _halved(e)
        pairs = [(d, e), (d, ec), (dc, e), (dc, ec), (d, dc), (d, dh), (dh, e), (dh, eh), (dc, eh)]
        pairs += [(x, z) for x in (d, dh) for z in fixed]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                assert ud(a, b) is refined_ud(a, b), (a.to_json(), b.to_json())
                assert ud(a, b) == brute_ud(a, b)
        assert ud(d, e) == ud(e, d)
        assert ud(d, d) is ud(d, dc) is ZERO
    for x in fixed:
        for y in fixed:
            assert ud(x, y) is refined_ud(x, y), (x.to_json(), y.to_json())


def test_spectrum_examples():
    allzero = CantorPseudoUltrametric([""], [["0"]])
    assert trace(allzero).to_json() == ["0"]
    d = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"]],
    )
    assert trace(d).to_json() == ["0", "1/3", "1"]
    assert trace(d) == RangeSet(v for row in d.dist for v in row)


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
    assert trace(e).to_json() == ["0"]
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
    assert again == d and hash(again) == hash(d)
    other = CantorPseudoUltrametric(
        ["00", "01", "1"],
        [["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"]],
    )
    assert other != d
    with pytest.raises(ValueError):
        CantorPseudoUltrametric.from_json({"cells": ["0", "1"]})
