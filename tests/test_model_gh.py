import itertools
from fractions import Fraction
from typing import Iterable, Sequence

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
from ultrapetal.scales import RangeSet, Scale, ScaleLike, ZERO, as_scale
from ultrapetal.umspace import Dendrogram, FiniteUltraSpace


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
    grid = sorted({Z} | set(x.space.spectrum().elems) | set(y.space.spectrum().elems))
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


EXTRAS = ["1/8", "5/12", "7/12", "5/6", "3/2", "3"]


def test_oracle_grid_extension_never_improves():
    # adding finer grid values must not find a better ambient
    rng = spawn_rng(71)
    for _ in range(25):
        x = GHPoint(gen_space(rng, max_points=3))
        y = GHPoint(gen_space(rng, max_points=3))
        assert na_oracle(x, y) == _ref_na_oracle(x, y, extra_scales=EXTRAS)


def _as_each_kind(value: Scale) -> list[ScaleLike]:
    kinds = [value, Fraction(value), str(value)]
    if value.denominator == 1:
        kinds.append(int(value))
    return kinds


def test_quotient_codes_are_kept_per_scale():
    rng = spawn_rng(76)
    points = list(small_corpus()) + [GHPoint(gen_space(rng)) for _ in range(200)]
    for x in points:
        x = GHPoint(x.space)  # no codes kept yet
        values = list(x.space.spectrum().elems) + list(POOL.elems) + [as_scale(e) for e in EXTRAS]
        asks = [eps for value in values for eps in _as_each_kind(value)] * 2
        rng.shuffle(asks)
        for eps in asks:
            assert x.quotient_canon(eps) == x.space.dendrogram().encode(as_scale(eps))
        assert x.canonical_form() == x.space.canonical_form()
        assert x.canonical_form() == x.quotient_canon(0)


def test_kept_codes_do_not_admit_what_as_scale_refuses():
    # 0.5 == Fraction(1, 2) and True == 1, with equal hashes: a lookup
    # before the coercion would answer them from the kept 1/2 and 1 codes
    x = point(["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"])
    assert x.quotient_canon("1/2") == "(1;*,*)"
    assert x.quotient_canon(1) == "*"
    for bad in (0.5, True, "-1"):
        with pytest.raises(ValueError):
            x.quotient_canon(bad)


def _ref_na_oracle(
    x: GHPoint, y: GHPoint, extra_scales: Iterable[ScaleLike] = ()
) -> Fraction:
    """The Fraction-grid search that the ranked ``na_oracle`` replaced.

    Defining infimum by brute force, for |X| + |Y| <= 6.

    Enumerates pseudo-ultrametrics on the disjoint union that keep both
    internal matrices, with cross distances drawn from the grid of both
    spectra, 0, and any extra scales; returns the least Hausdorff
    distance over the valid ambients.  Zero cross distances glue points,
    so overlapping embeddings are covered.
    """
    nx, ny = len(x.space), len(y.space)
    if nx + ny > 6:
        raise TooLarge(f"oracle limited to 6 points total, got {nx + ny}")
    dx = x.space.dist
    dy = y.space.dist
    grid = sorted(
        {ZERO}
        | set(trace(x).elems)
        | set(trace(y).elems)
        | {as_scale(v) for v in extra_scales}
    )
    total = nx * ny
    cross = [[ZERO] * ny for _ in range(nx)]
    best: list[Fraction | None] = [None]

    def finish(row_floor: Fraction) -> None:
        worst = row_floor
        for j in range(ny):
            nearest = min(cross[i][j] for i in range(nx))
            if nearest > worst:
                worst = nearest
        if best[0] is None or worst < best[0]:
            best[0] = worst

    def search(k: int, row_floor: Fraction) -> None:
        if best[0] is not None and row_floor >= best[0]:
            return
        if k == total:
            finish(row_floor)
            return
        i, j = divmod(k, ny)
        forced: Fraction | None = None
        cap: Fraction | None = None
        # each already-assigned entry sharing a point forces this one to
        # the larger side, or caps it on a tie
        for jj in range(j):
            a = cross[i][jj]
            s = dy[jj][j]
            if a == s:
                if cap is None or a < cap:
                    cap = a
            else:
                need = a if a > s else s
                if forced is None:
                    forced = need
                elif forced != need:
                    return
        for ii in range(i):
            a = cross[ii][j]
            s = dx[ii][i]
            if a == s:
                if cap is None or a < cap:
                    cap = a
            else:
                need = a if a > s else s
                if forced is None:
                    forced = need
                elif forced != need:
                    return
        if forced is not None:
            if cap is not None and forced > cap:
                return
            options: Sequence[Fraction] = (forced,)
        elif cap is not None:
            options = [g for g in grid if g <= cap]
        else:
            options = grid
        closing_row = j == ny - 1
        for v in options:
            cross[i][j] = v
            if closing_row:
                nearest = min(cross[i][t] for t in range(ny))
                search(k + 1, nearest if nearest > row_floor else row_floor)
            else:
                search(k + 1, row_floor)

    search(0, ZERO)
    assert best[0] is not None  # the all-maximal assignment is always valid
    return best[0]


def _assert_same_oracle(x, y, extra_scales=()):
    # the extra scales reach only the reference: a finer grid must not
    # change the infimum
    got = na_oracle(x, y)
    want = _ref_na_oracle(x, y, extra_scales)
    assert got == want and type(got) is type(want) is Scale and str(got) == str(want)


def test_ranked_oracle_matches_fraction_grid_reference():
    corpus = small_corpus()
    for x in corpus:
        for y in corpus:
            _assert_same_oracle(x, y)
            _assert_same_oracle(x, y, EXTRAS)
    rng = spawn_rng(76)
    for t in range(300):
        x = GHPoint(gen_space(rng, max_points=5))
        y = GHPoint(gen_space(rng, max_points=6 - len(x.space)))
        assert len(x.space) + len(y.space) <= 6
        _assert_same_oracle(x, y, EXTRAS if t % 3 == 0 else ())


def _shapes(n, below):
    """Every tree over n unlabelled leaves with integer internal scales < below.

    A leaf is None and an internal node is (scale, children); children
    are listed in every order, so shapes repeat up to isomorphism.
    """
    if n == 1:
        yield None
        return
    # one or more cuts among the n leaves: a node needs two or more children
    cut_sets = [c for k in range(1, n) for c in itertools.combinations(range(1, n), k)]
    for scale in range(1, below):
        for cuts in cut_sets:
            bounds = (0, *cuts, n)
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            for kids in itertools.product(*(list(_shapes(m, scale)) for m in sizes)):
                yield scale, kids


def _grow(shape, labels):
    if shape is None:
        return Dendrogram(label=labels.pop())
    scale, kids = shape
    return Dendrogram(as_scale(scale), None, tuple(_grow(kid, labels) for kid in kids))


def _dendrogram_classes(max_points, top):
    """One space per isometry class with at most max_points points and
    internal scales in 1..top, deduplicated by the dendrogram encoding."""
    seen = {}
    for n in range(1, max_points + 1):
        labels = [f"p{i}" for i in range(n)]
        for shape in _shapes(n, top + 1):
            tree = _grow(shape, labels[::-1])
            seen.setdefault(tree.encode(), GHPoint(FiniteUltraSpace._from_tree(labels, tree)))
    return list(seen.values())


def test_oracle_gate_is_exhaustive_on_six_points():
    # with |X| + |Y| <= 6 the two spectra hold at most 4 positive values,
    # so scales 1..4 give the oracle every rank pattern it can meet
    classes = _dendrogram_classes(5, 4)
    assert len(classes) == 120
    pairs = 0
    for x in classes:
        for y in classes:
            if len(x.space) + len(y.space) <= 6:
                pairs += 1
                want = _ref_na_oracle(x, y)
                got = na_oracle(x, y)
                assert got == na_distance(x, y) == want
                assert type(got) is Scale and str(got) == str(want)
    assert pairs == 675


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
        pool = sorted(set(POOL.elems) | set(x.space.spectrum().elems))
        eps = pool[rng.randrange(len(pool))]
        q = GHPoint(x.space.quotient(eps))
        value = na_distance(x, q)
        assert value <= eps
        if eps != ZERO and eps in x.space.spectrum():
            assert value == eps


def _scan_na(x, y):
    # reference: the linear quotient scan that the binary search replaced
    candidates = sorted(set(x.space.spectrum().elems) | set(y.space.spectrum().elems))
    for eps in candidates:
        if x.space.quotient(eps).canonical_form() == y.space.quotient(eps).canonical_form():
            return eps
    raise AssertionError("quotient scan must terminate at the joint diameter")


def test_binary_search_matches_linear_scan():
    rng = spawn_rng(75)
    for _ in range(1000):
        x = GHPoint(gen_space(rng))
        spec = x.space.spectrum().elems
        if rng.random() < 0.4:
            y = GHPoint(x.space.quotient(spec[rng.randrange(len(spec))]))
        else:
            y = GHPoint(gen_space(rng))
        assert na_distance(x, y) == _scan_na(x, y)
        for eps in spec:
            assert x.quotient_canon(eps) == x.space.quotient(eps).canonical_form()
    # one long-lived x, its codes kept, against fresh points and its quotients
    x = GHPoint(gen_space(rng))
    while len(x.space.spectrum().elems) < 4:
        x = GHPoint(gen_space(rng))
    spec = x.space.spectrum().elems
    for _ in range(200):
        if rng.random() < 0.4:
            y = GHPoint(x.space.quotient(spec[rng.randrange(len(spec))]))
        else:
            y = GHPoint(gen_space(rng))
        assert na_distance(x, y) == _scan_na(x, y)
