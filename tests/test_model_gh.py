from fractions import Fraction

import pytest

from ultrapetal.model_gh import (
    GHPoint,
    TooLarge,
    na_distance,
    na_oracle,
    trace,
)
from ultrapetal.petal import GH
from ultrapetal.petal_harness import (
    POOL,
    enumerate_small_spaces,
    gen_space,
    small_corpus,
    spawn_rng,
)
from ultrapetal.scales import RangeSet, ZERO
from ultrapetal.umspace import FiniteUltraSpace


def point(*rows, labels=None):
    n = len(rows)
    labels = labels or [f"p{i}" for i in range(n)]
    return GHPoint(FiniteUltraSpace(labels, rows))


ONE = point(["0"])
TWO_QUARTER = point(["0", "1/4"], ["1/4", "0"])
TWO_HALF = point(["0", "1/2"], ["1/2", "0"])
TWO_ONE = point(["0", "1"], ["1", "0"])


def test_na_distance_examples():
    relabeled = point(["0", "1/4"], ["1/4", "0"], labels=["x", "y"])
    assert na_distance(TWO_QUARTER, relabeled) == ZERO
    assert TWO_QUARTER == relabeled
    assert na_distance(TWO_QUARTER, TWO_ONE) == Fraction(1)
    assert na_distance(ONE, TWO_HALF) == Fraction(1, 2)


def test_na_oracle_examples():
    assert na_oracle(ONE, ONE) == ZERO
    assert na_oracle(TWO_QUARTER, TWO_ONE) == Fraction(1)
    assert na_oracle(ONE, TWO_HALF) == Fraction(1, 2)


def test_na_oracle_size_limit():
    big = point(
        ["0", "1", "1", "1"],
        ["1", "0", "1", "1"],
        ["1", "1", "0", "1"],
        ["1", "1", "1", "0"],
    )
    with pytest.raises(TooLarge):
        na_oracle(big, point(["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]))


def test_small_corpus_is_exhaustive():
    corpus = small_corpus()
    assert len(corpus) == 10  # 1 singleton, 3 two-point, 6 three-point classes
    forms = {p.canonical_form() for p in corpus}
    assert len(forms) == len(corpus)
    again = enumerate_small_spaces()
    assert {p.canonical_form() for p in again} == forms


def test_oracle_agreement_on_corpus():
    corpus = small_corpus()
    for x in corpus:
        for y in corpus:
            assert na_distance(x, y) == na_oracle(x, y)


def reference_infimum(x, y):
    # no-pruning reference: full grid product, every mixed triple checked
    import itertools

    from ultrapetal.scales import ZERO as Z

    nx, ny = len(x.space), len(y.space)
    grid = sorted({Z} | set(x.spectrum().elems) | set(y.spectrum().elems))
    dx, dy = x.space.dist, y.space.dist
    best = None
    for combo in itertools.product(grid, repeat=nx * ny):
        cross = [combo[i * ny:(i + 1) * ny] for i in range(nx)]
        ok = True
        for i in range(nx):
            for i2 in range(i + 1, nx):
                for j in range(ny):
                    triple = (dx[i][i2], cross[i][j], cross[i2][j])
                    top = max(triple)
                    if sum(v == top for v in triple) < 2:
                        ok = False
        for j in range(ny):
            for j2 in range(j + 1, ny):
                for i in range(nx):
                    triple = (dy[j][j2], cross[i][j], cross[i][j2])
                    top = max(triple)
                    if sum(v == top for v in triple) < 2:
                        ok = False
        if not ok:
            continue
        hd = max(
            max(min(cross[i][j] for j in range(ny)) for i in range(nx)),
            max(min(cross[i][j] for i in range(nx)) for j in range(ny)),
        )
        if best is None or hd < best:
            best = hd
    return best


def test_oracle_matches_no_pruning_reference():
    rng = spawn_rng(74)
    small = [p for p in small_corpus() if len(p.space) <= 2]
    for x in small:
        for y in small:
            want = reference_infimum(x, y)
            assert na_oracle(x, y) == want
            assert na_distance(x, y) == want
    for _ in range(20):
        x = GHPoint(gen_space(rng, max_points=2))
        y = GHPoint(gen_space(rng, max_points=2))
        assert na_oracle(x, y) == reference_infimum(x, y)


def test_oracle_grid_extension_never_improves():
    # adding finer grid values must not find a better ambient
    rng = spawn_rng(71)
    extras = ["1/8", "5/12", "7/12", "5/6", "3/2", "3"]
    for _ in range(25):
        x = GHPoint(gen_space(rng, max_points=3))
        y = GHPoint(gen_space(rng, max_points=3))
        assert na_oracle(x, y) == na_oracle(x, y, extra_scales=extras)


def test_trace_and_petal_examples():
    x = point(["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"])
    assert trace(x).to_json() == ["0", "1/3", "1"]
    s = RangeSet(["0", "1"])
    assert not GH.in_petal(x, s)
    value, witness = GH.petal_distance(x, s)
    assert value == Fraction(1, 3)
    assert witness.canonical_form() == x.space.quotient("1/3").canonical_form()
    assert GH.in_petal(witness, s)
    assert na_distance(x, witness) == value

    member = GH.petal_distance(witness, s)
    assert member[0] == ZERO and member[1] is witness

    collapse_value, collapse_witness = GH.petal_distance(TWO_ONE, RangeSet())
    assert collapse_value == Fraction(1)
    assert len(collapse_witness.space) == 1


def test_na_distance_is_zero_iff_isometric():
    rng = spawn_rng(72)
    for _ in range(100):
        x = GHPoint(gen_space(rng))
        y = GHPoint(gen_space(rng))
        assert (na_distance(x, y) == ZERO) == (x == y)


def test_quotient_contraction():
    rng = spawn_rng(73)
    for _ in range(100):
        x = GHPoint(gen_space(rng))
        pool = sorted(set(POOL.elems) | set(x.spectrum().elems))
        eps = pool[rng.randrange(len(pool))]
        q = GHPoint(x.space.quotient(eps))
        value = na_distance(x, q)
        assert value <= eps
        if eps != ZERO and eps in x.spectrum():
            assert value == eps


def _scan_na(x, y):
    # reference: the linear quotient scan that the binary search replaced
    candidates = sorted(set(x.spectrum().elems) | set(y.spectrum().elems))
    for eps in candidates:
        if x.space.quotient(eps).canonical_form() == y.space.quotient(eps).canonical_form():
            return eps
    raise AssertionError("quotient scan must terminate at the joint diameter")


def test_binary_search_matches_linear_scan():
    rng = spawn_rng(75)
    for _ in range(1000):
        x = GHPoint(gen_space(rng))
        spec = x.spectrum().elems
        if rng.random() < 0.4:
            y = GHPoint(x.space.quotient(spec[rng.randrange(len(spec))]))
        else:
            y = GHPoint(gen_space(rng))
        assert na_distance(x, y) == _scan_na(x, y)
        for eps in spec:
            assert x.quotient_canon(eps) == x.space.quotient(eps).canonical_form()
