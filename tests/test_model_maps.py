import json
import random
from fractions import Fraction

import pytest

from cell_oracle import cell_owners, refinement
from draws import consistent_request, random_petal
from ultrapetal.cells import align, check_prefixes, merge_equal_siblings, right_ends
from ultrapetal.model_maps import (
    CantorFunction,
    nabla,
    place,
    trace,
    truncate,
    zero_function,
)
from ultrapetal.petal import MAPS
from ultrapetal.petal_harness import (
    _MAPS,
    POOL,
    TrialConfig,
    _twin_maps,
    back_and_forth,
    gen_cantor_function,
    gen_partition,
    spawn_rng,
)
from ultrapetal.scales import RangeSet, Scale, ZERO


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
    for point in refinement((f.keys, g.keys)):
        a, b = value_at(f, point), value_at(g, point)
        if a != b:
            worst = max(worst, a, b)
    return worst


def refined_nabla(f: CantorFunction, g: CantorFunction) -> Fraction:
    # oracle: the refinement-based nabla, sorting the union of the prefixes
    if f.cells == g.cells:
        return ZERO
    pf = f.keys
    pg = g.keys
    refined = refinement((pf, pg))
    of = cell_owners(refined, pf)
    og = cell_owners(refined, pg)
    worst = ZERO
    for pos in range(len(refined)):
        a = f.cells[of[pos]][1]
        b = g.cells[og[pos]][1]
        if a != b:
            hi = a if a > b else b
            if hi > worst:
                worst = hi
    return worst


def merged_nabla(f: CantorFunction, g: CantorFunction) -> Fraction:
    # oracle: the prefix merge of the two sorted key tuples (as in
    # cells.align), comparing each refined cell's values with Scale's own
    # operators; the strict > keeps the first maximal value object
    fk, fv, gk, gv = f.keys, f.values, g.keys, g.values
    nf, ng = len(fk), len(gk)
    worst = ZERO
    i = j = 0
    while i < nf:
        x, y = fv[i], gv[j]
        if x is not y:
            hi = x if x > y else y
            if hi > worst and x != y:
                worst = hi
        a, b = fk[i], gk[j]
        if a == b:
            i += 1
            j += 1
        elif a < b:  # a proper prefix sorts first
            j += 1
            if j == ng or not gk[j].startswith(a):
                i += 1
        else:
            i += 1
            if i == nf or not fk[i].startswith(b):
                j += 1
    return worst


def right_end(key: str) -> Fraction:
    # oracle: the right endpoint of the dyadic cell named by the prefix
    return Fraction(int(key or "0", 2) + 1, 2 ** len(key))


def decoded_end(stored: str) -> Fraction:
    # a stored end is a binary fraction without trailing zeros, or "2" for 1
    if stored == "2":
        return Fraction(1)
    assert stored.endswith("1") and not stored.strip("01"), stored
    return Fraction(int(stored, 2), 2 ** len(stored))


def assert_ends(fun: CantorFunction) -> None:
    ends = fun.ends
    assert len(ends) == len(fun.keys)
    assert [decoded_end(e) for e in ends] == [right_end(k) for k in fun.keys], fun
    assert ends[-1] == "2"
    assert all(a < b for a, b in zip(ends, ends[1:])), fun
    assert all(decoded_end(a) < decoded_end(b) for a, b in zip(ends, ends[1:])), fun


def refined_place(anchors, want, m, i) -> CantorFunction:
    # oracle: split the first cell of the anchors' common refinement where
    # anchor i vanishes, found by refining every anchor
    base = anchors[i]
    refined = refinement(tuple(a.keys for a in anchors))
    owners = cell_owners(refined, base.keys)
    split, zero_cell = next(
        (cell, base.cells[owner][0])
        for cell, owner in zip(refined, owners)
        if base.cells[owner][1] == ZERO
    )
    table = {k: v for k, v in base.cells if k != zero_cell}
    walk = zero_cell
    for step in split[len(zero_cell):]:
        table[walk + ("1" if step == "0" else "0")] = ZERO
        walk += step
    table[split + "0"] = m
    table[split + "1"] = ZERO
    return CantorFunction(table)


def grown_functions(seed: int, trials: int) -> list[CantorFunction]:
    # the locally constant side of a back-and-forth run: the anchors the
    # one-point extension refines round after round
    return back_and_forth(TrialConfig(seed=seed, trials=trials)).right


def reference_align(a, b):
    refined = refinement((a, b))
    return cell_owners(refined, a), cell_owners(refined, b)


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


# Reference oracles: the level-by-level sibling merge and the measure sum
# that the one-pass sibling fold replaced.


def _ref_check_prefixes(prefixes):
    keys = list(prefixes)
    if not keys:
        raise ValueError("cell partition must be nonempty")
    for k in keys:
        if not isinstance(k, str) or any(c not in "01" for c in k):
            raise ValueError(f"cell prefix must be a binary string, got {k!r}")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate cell prefixes")
    keys.sort()
    for a, b in zip(keys, keys[1:]):
        if b.startswith(a):
            raise ValueError(f"cell {a!r} is a prefix of cell {b!r}")
    depth = max(len(k) for k in keys)
    if sum(1 << (depth - len(k)) for k in keys) != 1 << depth:
        total = sum(Fraction(1, 2 ** len(k)) for k in keys)
        raise ValueError(f"cells cover measure {total}, not the whole space")
    return tuple(keys)


def _ref_merge_equal_siblings(values):
    out = dict(values)
    longest = max((len(k) for k in out), default=0)
    for length in range(longest, 0, -1):
        level = [k for k in out if len(k) == length and k[-1] == "0"]
        for key in level:
            sibling = key[:-1] + "1"
            if sibling in out and key in out and out[sibling] == out[key]:
                merged_value = out.pop(key)
                out.pop(sibling)
                out[key[:-1]] = merged_value
    return out


def _merged(table):
    # the fold takes the keys as check_prefixes returns them: sorted
    return dict(zip(*merge_equal_siblings(check_prefixes(table), table)))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as err:
        return str(err)


def test_cell_fold_matches_reference_oracles():
    rng = spawn_rng(17, 0)
    values = [ZERO, Fraction(1, 2), Fraction(1)]
    for _ in range(1500):
        cells = gen_partition(rng, rng.randint(1, 12))
        assert check_prefixes(cells) == _ref_check_prefixes(cells)
        table = {cell: values[rng.randrange(rng.randint(1, 3))] for cell in cells}
        merged = _merged(table)
        assert merged == _ref_merge_equal_siblings(table)
        assert list(merged) == sorted(merged)
        # a damaged partition gets the same verdict and message
        bad = list(cells)
        change = rng.randrange(5)
        pick = rng.randrange(len(bad))
        if change == 0:
            bad.pop(pick)
        elif change == 1:
            bad.append(bad[pick])
        elif change == 2:
            bad[pick] += rng.choice("01")
        elif change == 3:
            bad[pick] = bad[pick][:-1]
        else:
            bad[pick] += rng.choice("2a ")
        assert _outcome(check_prefixes, bad) == _outcome(_ref_check_prefixes, bad)


def test_cell_fold_on_a_deep_chain():
    # the chain 1, 01, 001, ..., 0^k1, 0^(k+1): one cell per depth
    k = 2000
    cells = ["0" * i + "1" for i in range(k)] + ["0" * k]
    random.Random(5).shuffle(cells)
    assert check_prefixes(cells) == _ref_check_prefixes(cells)
    table = {cell: Fraction(len(cell) % 3) for cell in cells}
    assert _merged(table) == _ref_merge_equal_siblings(table)
    flat = dict.fromkeys(cells, ZERO)
    assert _merged(flat) == {"": ZERO}
    assert _outcome(check_prefixes, cells[1:]) == _outcome(_ref_check_prefixes, cells[1:])


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


def test_align_matches_refinement_oracle():
    rng = spawn_rng(53)
    # the 2000-cell chain 1, 01, 001, ..., 0^1999 1, 0^2000
    chain = tuple(sorted(["0" * k + "1" for k in range(2000)] + ["0" * 2000]))
    fixed = [("",), ("0", "1"), ("0", "10", "11"), ("00", "01", "1")]
    generated = [tuple(gen_partition(rng, rng.choice((1, 2, 6, 30, 200)))) for _ in range(400)]
    grown = [f.keys for seed in (1, 2) for f in grown_functions(seed, 30)]
    keysets = fixed + generated + grown
    pairs = [(a, a) for a in keysets + [chain]]
    pairs += [(a, b) for a in fixed for b in keysets] + [(b, a) for a in fixed for b in keysets]
    pairs += [(chain, b) for b in keysets[::10]] + [(b, chain) for b in keysets[::10]]
    pairs += [(rng.choice(keysets), rng.choice(keysets)) for _ in range(3000)]
    pairs += list(zip(grown, grown[1:]))
    for a, b in pairs:
        assert align(a, b) == reference_align(a, b), (a, b)
    oa, ob = align(("",), chain)
    assert oa == [0] * 2001 and ob == list(range(2001))


def test_nabla_and_place_match_refinement_oracles():
    rng = spawn_rng(54)
    grown = grown_functions(3, 25)
    pools = [grown] + [[gen_cantor_function(rng) for _ in range(8)] for _ in range(40)]
    # nabla returns the same object as the prefix merge, so printed
    # distances cannot drift
    for pool in pools:
        for f in pool:
            for g in pool:
                got = nabla(f, g)
                assert got == refined_nabla(f, g) and got is merged_nabla(f, g), (f, g)
    # parsed copies hold equal values in other objects; halved copies keep
    # the cells and change every nonzero value
    parsed = [CantorFunction.from_json(json.loads(json.dumps(f.to_json()))) for f in grown]
    halved = [CantorFunction((k, v / 2) for k, v in f.cells) for f in grown]
    for f in grown:
        for g in parsed + halved:
            for a, b in ((f, g), (g, f)):
                got = nabla(a, b)
                assert got == refined_nabla(a, b) and got is merged_nabla(a, b), (a, b)
    for seed in range(10):
        chain = grown_functions(60 + seed, 30)
        for f in chain:
            for g in chain:
                assert nabla(f, g) is merged_nabla(f, g), (f, g)
    for _ in range(3000):
        pool = rng.choice(pools)
        anchors = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        m = rng.choice(POOL.positives())
        i = rng.randrange(len(anchors))
        assert place(anchors, [], m, i) == refined_place(anchors, [], m, i)


def test_stored_right_ends_match_the_dyadic_oracle():
    assert zero_function().ends == ("2",)
    assert right_ends(("0", "10", "110", "111")) == ("1", "11", "111", "2")
    assert CantorFunction({"00": "1", "01": "1/2", "1": "0"}).ends == ("01", "1", "2")
    rng = spawn_rng(56)
    funs = [zero_function()] + grown_functions(4, 20)
    funs += [gen_cantor_function(rng) for _ in range(300)]
    funs += [truncate(f, rng.choice(POOL.elems)) for f in funs[:200]]
    funs += [CantorFunction.from_json(json.loads(json.dumps(f.to_json()))) for f in funs[:200]]
    for _ in range(300):
        anchors = [rng.choice(funs) for _ in range(rng.randint(1, 6))]
        funs.append(place(anchors, [], rng.choice(POOL.positives()), rng.randrange(len(anchors))))
    for f in funs:
        assert_ends(f)
    for f in funs[:300]:
        # a twin cuts cells that the constructor merges back into the parent's
        twin = _twin_maps(rng, f)
        assert_ends(twin)
        assert twin.keys == f.keys and twin.ends == f.ends


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


def test_nabla_stops_only_at_the_larger_top():
    # nabla returns once its maximum reaches the larger of the two tops;
    # each pair is checked in both orders against the full merge
    halves = [CantorFunction({"0": v, "1": "0"}) for v in ("1/2", "2/4", "0.5")]
    assert len({id(f.top) for f in halves}) == 3
    cases = [
        # the larger top, 1, is never reached
        (
            CantorFunction({"00": "1", "01": "0", "1": "1/2"}),
            CantorFunction({"00": "1", "01": "0", "1": "0"}),
            Fraction(1, 2),
        ),
        # the smaller top, 1/2, is reached first, on cell 0
        (CantorFunction({"0": "1/2", "1": "0"}), CantorFunction({"0": "0", "1": "1"}), Fraction(1)),
        # equal tops held in distinct parsed objects
        (halves[0], CantorFunction({"0": "0", "1": "2/4"}), Fraction(1, 2)),
        (halves[1], CantorFunction({"00": "0.5", "01": "0", "1": "1/4"}), Fraction(1, 2)),
        (halves[2], halves[0], ZERO),
        (zero_function(), zero_function(), ZERO),
    ]
    for f, g, want in cases:
        for a, b in ((f, g), (g, f)):
            got = nabla(a, b)
            assert got == want and got is merged_nabla(a, b), (a, b)


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
    theta = MAPS.extend([zero_function()], ["1/2"])
    assert theta == CantorFunction({"0": "1/2", "1": "0"})
    assert brute_nabla(theta, zero_function()) == Fraction(1, 2)

    anchors = [zero_function(), CantorFunction({"0": "1", "1": "0"})]
    theta = MAPS.extend(anchors, ["1/2", "1"])
    assert nabla(theta, anchors[0]) == Fraction(1, 2)
    assert nabla(theta, anchors[1]) == Fraction(1)

    f = CantorFunction({"0": "1/2", "1": "0"})
    assert MAPS.extend([f], [0]) == f


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


def _assert_checked_rebuild(made: CantorFunction, rebuilt: CantorFunction) -> None:
    # a trusted construction equals its rebuild through the checked
    # constructor, field by field, and holds only Scale values
    assert made.keys == rebuilt.keys
    assert made.values == rebuilt.values
    assert made.ends == rebuilt.ends
    assert made.top == rebuilt.top == max(made.values)
    assert all(type(v) is Scale for v in made.values)


def test_trusted_cantor_functions_match_the_checked_constructor():
    # every construction through ``_from_cells``: the generator, on POOL and
    # on random petals, ``_twin_maps``, ``truncate`` and ``place``; a
    # truncation is rebuilt from its definition, values at most u flattened
    for seed in range(2000):
        rng = spawn_rng(seed, 53)
        for f in (gen_cantor_function(rng), gen_cantor_function(rng, random_petal(rng))):
            _assert_checked_rebuild(f, CantorFunction(f.cells[::-1]))
            twin = _twin_maps(rng, f)
            _assert_checked_rebuild(twin, CantorFunction(f.cells))
            for u in sorted({*POOL, *trace(f)}):
                flat = CantorFunction({k: v if v > u else ZERO for k, v in f.cells})
                _assert_checked_rebuild(truncate(f, u), flat)
        anchors, want = consistent_request(_MAPS, rng)
        theta = MAPS.locate(anchors, want)
        _assert_checked_rebuild(theta, CantorFunction(theta.cells))
        assert [nabla(theta, a) for a in anchors] == want
