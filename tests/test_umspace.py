import importlib.util
import json
import random
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest

from ultrapetal.model_cpum import CantorPseudoUltrametric, trace, truncate
from ultrapetal.model_gh import GHPoint, na_distance
from ultrapetal.petal_harness import (
    POOL,
    _twin_cpum,
    _twin_gh,
    gen_cpum,
    gen_range_set,
    gen_space,
    random_ultrametric_tree,
    spawn_rng,
)
from ultrapetal.scales import RangeSet, Scale, ZERO, as_scale
from ultrapetal.umspace import (
    Dendrogram,
    FiniteUltraSpace,
    NotPositive,
    NotSymmetric,
    NotUltrametric,
    SpaceError,
    check_matrix,
)

def _space_of(tree):
    # the space whose dendrogram ``tree`` is, its points in sorted order
    return FiniteUltraSpace._from_tree(sorted(tree.leaves()), tree)


THREE = FiniteUltraSpace(
    ["a", "b", "c"],
    [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]],
)


def test_validate_examples():
    assert len(FiniteUltraSpace(["p", "q"], [["0", "1"], ["1", "0"]])) == 2
    assert len(THREE) == 3
    with pytest.raises(NotUltrametric) as err:
        FiniteUltraSpace(
            ["a", "b", "c"],
            [["0", "1/2", "1"], ["1/2", "0", "1/4"], ["1", "1/4", "0"]],
        )
    assert set(err.value.indices) == {0, 1, 2}


def test_validate_rejects_bad_matrices():
    with pytest.raises(NotSymmetric):
        FiniteUltraSpace(["a", "b"], [["0", "1"], ["1/2", "0"]])
    with pytest.raises(NotPositive):
        FiniteUltraSpace(["a", "b"], [["0", "0"], ["0", "0"]])
    with pytest.raises(NotPositive):
        FiniteUltraSpace(["a", "b"], [["1", "1"], ["1", "0"]])
    with pytest.raises(SpaceError):
        FiniteUltraSpace(["a", "a"], [["0", "1"], ["1", "0"]])
    with pytest.raises(SpaceError):
        FiniteUltraSpace([], [])
    with pytest.raises(SpaceError):
        FiniteUltraSpace(["a", "b"], [["0", "1"]])


def test_spectrum_examples():
    assert FiniteUltraSpace(["x"], [["0"]]).spectrum().to_json() == ["0"]
    assert THREE.spectrum().to_json() == ["0", "1/2", "1"]
    two = FiniteUltraSpace(["p", "q"], [["0", "3/4"], ["3/4", "0"]])
    assert two.spectrum().to_json() == ["0", "3/4"]


def test_quotient_examples():
    q = THREE.quotient("1/2")
    assert q.labels == ("a+b", "c")
    assert q.d("a+b", "c") == Fraction(1)
    same = THREE.quotient(0)
    assert same.labels == ("a", "b", "c")
    assert same.dist == THREE.dist
    two = FiniteUltraSpace(["p", "q"], [["0", "3/4"], ["3/4", "0"]])
    assert len(two.quotient("3/4")) == 1


def test_canonical_form_examples():
    relabeled = FiniteUltraSpace(
        ["z", "y", "x"],
        [["0", "1", "1"], ["1", "0", "1/2"], ["1", "1/2", "0"]],
    )
    assert relabeled.canonical_form() == THREE.canonical_form()
    half = FiniteUltraSpace(["p", "q"], [["0", "1/2"], ["1/2", "0"]])
    one = FiniteUltraSpace(["p", "q"], [["0", "1"], ["1", "0"]])
    assert half.canonical_form() != one.canonical_form()
    even = FiniteUltraSpace(
        ["a", "b", "c"],
        [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    )
    assert even.canonical_form() != THREE.canonical_form()


def test_canonical_form_invariant_under_permutation():
    rng = spawn_rng(31)
    for _ in range(60):
        space = gen_space(rng, max_points=7)
        order = list(range(len(space)))
        rng.shuffle(order)
        shuffled = FiniteUltraSpace(
            [space.labels[i] for i in order],
            [[space.dist[i][j] for j in order] for i in order],
        )
        assert shuffled.canonical_form() == space.canonical_form()


def test_canonical_form_separates_different_spectra():
    rng = spawn_rng(32)
    for _ in range(60):
        a = gen_space(rng, max_points=6)
        b = gen_space(rng, max_points=6)
        if a.spectrum() != b.spectrum():
            assert a.canonical_form() != b.canonical_form()


def test_dendrogram_reconstructs_space():
    rng = spawn_rng(33)
    for _ in range(40):
        space = gen_space(rng, max_points=7)
        rebuilt = _space_of(space.dendrogram())
        assert rebuilt.labels == tuple(sorted(space.labels))
        for a in space.labels:
            for b in space.labels:
                assert rebuilt.d(a, b) == space.d(a, b)


def test_dendrogram_scales_decrease():
    def check(node, bound):
        if node.is_leaf:
            return
        if bound is not None:
            assert node.scale < bound
        for child in node.children:
            check(child, node.scale)

    rng = spawn_rng(34)
    for _ in range(40):
        check(gen_space(rng, max_points=8).dendrogram(), None)


def test_generated_spaces_validate():
    rng = spawn_rng(35)
    for _ in range(60):
        space = gen_space(rng, max_points=8)
        FiniteUltraSpace(space.labels, space.dist)


def test_quotient_composition_and_spectrum_law():
    rng = spawn_rng(36)
    pool = sorted(POOL.elems)
    for _ in range(60):
        space = gen_space(rng, max_points=7)
        e1 = pool[rng.randrange(len(pool))]
        e2 = pool[rng.randrange(len(pool))]
        lo, hi = min(e1, e2), max(e1, e2)
        twice = space.quotient(lo).quotient(hi)
        once = space.quotient(hi)
        assert twice.canonical_form() == once.canonical_form()
        expected = RangeSet(v for v in space.spectrum() if v > lo or v == ZERO)
        assert space.quotient(lo).spectrum() == expected


def test_quotient_label_collision_is_detected():
    # a point literally named "a+b" next to mergeable "a", "b"
    tricky = FiniteUltraSpace(
        ["a", "b", "a+b"],
        [["0", "1/4", "1"], ["1/4", "0", "1"], ["1", "1", "0"]],
    )
    with pytest.raises(SpaceError):
        tricky.quotient("1/4")


def test_space_json_round_trip():
    data = THREE.to_json()
    again = FiniteUltraSpace.from_json(data)
    assert again.labels == THREE.labels
    assert again.dist == THREE.dist
    with pytest.raises(SpaceError):
        FiniteUltraSpace.from_json([1, 2, 3])


def test_space_json_formats_like_str_per_entry():
    # oracle: one str() per matrix entry; the written form formats each
    # distinct scale once, so equal values in other objects, plain
    # Fractions and values spelt several ways must all come out the same
    rng = random.Random(25)
    spaces = [THREE, FiniteUltraSpace(["x"], [["0"]])]
    for t in range(60):
        n = rng.randint(2, 30)
        rows = (spacegen.chain_rows if t % 3 == 0 else spacegen.dendrogram_rows)(rng, n)
        labels = [f"p{i}" for i in range(n)]
        spaces.append(FiniteUltraSpace(labels, [[rng.choice(_spellings(v)) for v in row] for row in rows]))
        spaces.append(FiniteUltraSpace(labels, rows))
    mixed = FiniteUltraSpace(["a", "b"], [[ZERO, Scale(1, 2)], [Scale(1, 2), ZERO]])
    mixed._rows = ((ZERO, Fraction(1, 2)), (Scale(1, 2), Fraction(0)))  # equal values, other objects and types
    spaces.append(mixed)
    for space in spaces:
        want = {"points": list(space.labels), "dist": [[str(v) for v in row] for row in space.dist]}
        assert json.dumps(space.to_json(), indent=2) == json.dumps(want, indent=2)


def test_space_json_refuses_non_string_labels():
    with pytest.raises(ValueError):
        FiniteUltraSpace.from_json({"points": [None, "a"], "dist": [["0", "1"], ["1", "0"]]})
    with pytest.raises(ValueError, match="point labels must be strings"):
        FiniteUltraSpace([None, 1], [["0", "1"], ["1", "0"]])


# Reference oracles: the cubic triple scan, the recursive dendrogram and
# encoding, and the pair-scan spectrum that the single tree replaced.


def _ref_violation(rows):
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if rows[i][j] > max(rows[i][k], rows[k][j]):
                    return (i, j, k)
    return None


def _ref_tree(rows, labels):
    def build(indices):
        if len(indices) == 1:
            return (None, labels[indices[0]], ())
        diam = max(rows[a][b] for a in indices for b in indices)
        groups = []
        for i in indices:
            for group in groups:
                if rows[group[0]][i] < diam:
                    group.append(i)
                    break
            else:
                groups.append([i])
        return (diam, None, tuple(build(g) for g in groups))

    return build(list(range(len(rows))))


def _ref_encode(shape):
    scale, _, children = shape
    if not children:
        return "*"
    return f"({scale};{','.join(sorted(_ref_encode(c) for c in children))})"


def _ref_spectrum(rows):
    n = len(rows)
    return RangeSet({rows[i][j] for i in range(n) for j in range(i + 1, n)})


def _shape(node):
    return (node.scale, node.label, tuple(_shape(c) for c in node.children))


def _random_rows(rng, n, positives):
    """The rows of ``random_ultrametric_tree`` over n points, as lists."""
    labels = [str(i) for i in range(n)]
    tree = random_ultrametric_tree(rng, labels, [as_scale(v) for v in positives])
    return [list(row) for row in tree.rows(labels)]


def _random_matrix(rng, allow_zero):
    """A random (pseudo-)ultrametric, with one pair perturbed half the time."""
    n = rng.randint(1, 9)
    pool = [Fraction(k, 4) for k in range(1, 9)]
    positives = sorted(rng.sample(pool, rng.randint(1, 4)))
    rows = _random_rows(rng, n, positives)
    if allow_zero and rng.random() < 0.5:
        cut = rng.choice(positives)
        rows = [[v if v > cut else ZERO for v in row] for row in rows]
    if n > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rng.choice(pool + [ZERO] if allow_zero else pool)
    return rows


def test_single_tree_matches_reference_oracles():
    rng = random.Random(41)
    accepted = rejected = 0
    for t in range(1200):
        allow_zero = t % 2 == 1
        rows = _random_matrix(rng, allow_zero)
        labels = [f"p{i}" for i in range(len(rows))]
        want = _ref_violation(rows)
        if want is not None:
            rejected += 1
            with pytest.raises(NotUltrametric) as err:
                check_matrix(rows, labels, allow_zero=allow_zero)
            assert err.value.indices == want
            continue
        accepted += 1
        tree = check_matrix(rows, labels, allow_zero=allow_zero)
        assert _shape(tree) == _ref_tree(rows, labels)
        if not allow_zero:
            space = FiniteUltraSpace(labels, rows)
            assert space.canonical_form() == _ref_encode(_ref_tree(rows, labels))
            assert space.spectrum() == _ref_spectrum(rows)
    assert accepted > 200 and rejected > 200


def test_violation_sweep_matches_scan_past_one_bitset_word():
    # 10-60 points with one to three pairs changed, wider than the cases
    # above; with more than one pair changed, the first violated pair in
    # scan order need not have the smallest value
    rng = random.Random(17)
    pool = [Fraction(k, 4) for k in range(1, 9)]
    rejected = 0
    for t in range(150):
        allow_zero = t % 2 == 1
        n = rng.randint(10, 60)
        positives = sorted(rng.sample(pool, rng.randint(1, 5)))
        rows = _random_rows(rng, n, positives)
        if allow_zero:
            cut = rng.choice(positives)
            rows = [[v if v > cut else ZERO for v in row] for row in rows]
        for _ in range(1 + t % 3):
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rng.choice(pool)
        labels = [f"p{x}" for x in range(n)]
        want = _ref_violation(rows)
        if want is None:
            check_matrix(rows, labels, allow_zero=allow_zero)
            continue
        rejected += 1
        with pytest.raises(NotUltrametric) as err:
            check_matrix(rows, labels, allow_zero=allow_zero)
        assert err.value.indices == want
        a, b, c = want
        assert str(err.value) == (
            f"strong triangle inequality fails: d(p{a},p{b})={rows[a][b]} > "
            f"d(p{a},p{c})={rows[a][c]} v d(p{c},p{b})={rows[c][b]}"
        )
    assert rejected > 100


def test_rejected_chain_is_not_cubic():
    # nested balls with only the last pair broken: the scan of every
    # triple took about 10 s at 400 points on a 2-vCPU VM
    n = 400
    rows = [[ZERO if i == j else Fraction(1, min(i, j) + 1) for j in range(n)] for i in range(n)]
    rows[n - 2][n - 1] = rows[n - 1][n - 2] = Fraction(2)
    start = time.perf_counter()
    with pytest.raises(NotUltrametric) as err:
        FiniteUltraSpace([f"p{i}" for i in range(n)], rows)
    assert time.perf_counter() - start < 2
    assert err.value.indices == (n - 2, n - 1, 0)


def test_deep_chain_needs_no_recursion():
    # 1100 nested balls: deeper than the default recursion limit
    n = 1100
    scales = [Fraction(1, i + 1) for i in range(n)]
    rows = [[ZERO if i == j else scales[min(i, j)] for j in range(n)] for i in range(n)]
    space = FiniteUltraSpace([f"p{i:04d}" for i in range(n)], rows)
    assert space.canonical_form().count("(") == n - 1
    eps = scales[n // 2]
    q = space.quotient(eps)
    assert len(q) == n // 2 + 1
    _assert_same_space(q, FiniteUltraSpace(q.labels, q.dist))
    assert na_distance(GHPoint(space), GHPoint(q)) == eps
    _assert_same_space(_space_of(space.dendrogram()), space)


# The parse table and the identity-first compares of check_matrix, against
# the un-tabled path: the same matrix with every entry coerced by as_scale
# beforehand, so no two entries share a Scale unless the caller shares it.

_SPACEGEN = importlib.util.spec_from_file_location(
    "spacegen", Path(__file__).resolve().parent.parent / "perfbench" / "spacegen.py")
spacegen = importlib.util.module_from_spec(_SPACEGEN)
_SPACEGEN.loader.exec_module(spacegen)


def _outcome(dist, labels, allow_zero):
    try:
        tree = check_matrix(dist, labels, allow_zero=allow_zero)
    except ValueError as err:
        return type(err), str(err), getattr(err, "indices", None)
    return tree.encode(), tree.rows(labels)


def _assert_matches_untabled(dist, labels, allow_zero=False):
    try:
        coerced = [[as_scale(v) for v in row] for row in dist]
    except ValueError as err:  # the first bad entry in row-major order
        want = (ValueError, str(err), None)
    else:
        want = _outcome(coerced, labels, allow_zero)
    got = _outcome(dist, labels, allow_zero)
    assert got == want
    return got


def _spellings(v):
    """Strings and objects that as_scale reads as the scale v."""
    n, d = v.numerator, v.denominator
    out = [str(v), f"{3 * n}/{3 * d}", v]
    if d == 1:
        out += [n, f"{n}.0", f"{n}/1"]
    if 1000 % d == 0:
        m = n * (1000 // d)
        out.append(f"{m // 1000}.{m % 1000:03d}")
    return out


def test_distinct_spellings_of_one_value_compare_equal():
    half = ["1/2", "2/4", "0.5", "0.50", Fraction(1, 2)]
    labels = ["a", "b", "c"]
    for x, y in [(a, b) for a in half for b in half]:
        # asymmetric spellings across the diagonal and inside one group
        dist = [["0", x, "1"], [y, 0, "1.0"], ["1", 1, "0.0"]]
        assert _assert_matches_untabled(dist, labels)[0] == "(1;(1/2;*,*),*)"
    dist = [["0", "1/2", "1/2"], ["2/4", "0", "0.5"], ["0.50", "1/2", "0"]]
    assert _assert_matches_untabled(dist, labels)[0] == "(1/2;*,*,*)"
    # a spelling of another value is still told apart
    want = (NotSymmetric, "d(a,b) != d(b,a)", (0, 1))
    assert _assert_matches_untabled([["0", "1/2"], ["1/3", "0"]], ["a", "b"]) == want
    assert _assert_matches_untabled([["0", "1/2"], ["0.51", "0"]], ["a", "b"]) == want


@pytest.mark.parametrize("bad", [True, 0.1, "-1", "1/0"])
def test_bad_entries_fail_as_untabled_at_every_position(bad):
    base = [["0", "1/2", 1], ["1/2", 0, "1"], [1, "1", "0"]]  # an int 1 ahead of True
    for i, j in [(i, j) for i in range(3) for j in range(3)]:
        dist = [row[:] for row in base]
        dist[i][j] = bad
        got = _assert_matches_untabled(dist, ["a", "b", "c"])
        assert got[0] is ValueError and repr(bad) in got[1]
        # a repeated bad entry, and a bad one behind a good copy of its spelling
        dist[2 - i][2 - j] = bad
        assert _assert_matches_untabled(dist, ["a", "b", "c"]) == got
        dist[2 - i][2 - j] = "1/0" if bad == "-1" else "-1"
        _assert_matches_untabled(dist, ["a", "b", "c"])


def test_generated_matrices_match_untabled():
    # the benchmark's dendrogram and chain inputs, each entry spelt at
    # random, half of them with one symmetric pair changed or broken
    rng = random.Random(24)
    verdicts = set()
    for t in range(300):
        n = rng.randint(2, 24)
        rows = (spacegen.chain_rows if t % 3 == 0 else spacegen.dendrogram_rows)(rng, n)
        if t % 4 == 1:
            rows = spacegen.break_entry(rng, rows)
        elif t % 4 == 2:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rng.choice(spacegen.spectrum(rows)) / rng.choice([1, 2])
        dist = [[rng.choice(_spellings(v)) for v in row] for row in rows]
        if t % 8 == 3:
            i, j = rng.sample(range(n), 2)
            dist[i][j] = rng.choice(_spellings(rows[i][j] + 1))
        got = _assert_matches_untabled(dist, [f"p{i}" for i in range(n)], allow_zero=t % 5 == 0)
        verdicts.add(got[0] if isinstance(got[0], type) else str)
    assert verdicts == {str, NotSymmetric, NotUltrametric}


# Reference oracles for the tree path: the matrix-built quotient,
# dendrogram reconstruction, truncation and random rows that building
# from trees replaced, each validated through check_matrix.


def _ref_quotient(space, eps):
    bound = as_scale(eps)
    classes = []
    for i in range(len(space)):
        for cls_ in classes:
            if space.dist[cls_[0]][i] <= bound:
                cls_.append(i)
                break
        else:
            classes.append([i])
    labels = ["+".join(sorted(space.labels[i] for i in cls_)) for cls_ in classes]
    return FiniteUltraSpace(labels, [[space.dist[a[0]][b[0]] for b in classes] for a in classes])


def _ref_to_space(tree):
    labels = sorted(tree.leaves())
    index = {lab: i for i, lab in enumerate(labels)}
    dist = [[ZERO] * len(labels) for _ in labels]
    for node in tree.nodes():
        seen = []
        for child in node.children:
            group = [index[lab] for lab in child.leaves()]
            for a in group:
                for b in seen:
                    dist[a][b] = dist[b][a] = node.scale
            seen.extend(group)
    return FiniteUltraSpace(labels, dist)


def _ref_truncate(d, u):
    return CantorPseudoUltrametric(d.cells, [[v if v > u else ZERO for v in row] for row in d.dist])


def _ref_random_rows(rng, n, positives):
    rows = [[ZERO] * n for _ in range(n)]

    def build(indices, avail):
        if len(indices) <= 1:
            return
        scale = avail[rng.randrange(len(avail))]
        below = [v for v in avail if v < scale]
        nblocks = rng.randint(2, len(indices)) if below else len(indices)
        items = indices[:]
        rng.shuffle(items)
        if nblocks < len(items):
            cuts = sorted(rng.sample(range(1, len(items)), nblocks - 1))
        else:
            cuts = list(range(1, len(items)))
        blocks = [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for a in blocks[bi]:
                    for b in blocks[bj]:
                        rows[a][b] = rows[b][a] = scale
        for block in blocks:
            build(block, below)

    build(list(range(n)), sorted(positives))
    return rows


def _unordered(tree):
    """A dendrogram written with its child order forgotten."""
    codes = {}
    for node in reversed(list(tree.nodes())):
        inner = sorted(codes.pop(id(child)) for child in node.children)
        codes[id(node)] = f"{node.scale}|{node.label}({','.join(inner)})"
    return codes[id(tree)]


def _assert_same_space(built, want):
    assert built.labels == want.labels
    assert built.dist == want.dist
    assert all(type(v) is Scale for row in built.dist for v in row)
    assert built.canonical_form() == want.canonical_form()
    assert built.spectrum() == want.spectrum()
    assert _unordered(built.dendrogram()) == _unordered(want.dendrogram())


def _assert_same_cpum(built, want):
    assert built.cells == want.cells
    assert built.dist == want.dist
    assert trace(built) == trace(want)
    assert _unordered(built.dendrogram()) == _unordered(want.dendrogram())


def test_tree_path_matches_check_matrix():
    rng = spawn_rng(23, 0)
    for _ in range(300):
        pool = gen_range_set(rng)
        for space in (gen_space(rng, max_points=8), gen_space(rng, pool=pool)):
            _assert_same_space(space, FiniteUltraSpace(space.labels, space.dist))
            checked = FiniteUltraSpace(space.labels, space.dist).dendrogram()
            _assert_same_space(_space_of(checked), _ref_to_space(checked))
            for eps in space.spectrum():
                _assert_same_space(space.quotient(eps), _ref_quotient(space, eps))
        for d in (gen_cpum(rng), gen_cpum(rng, pool=pool)):
            _assert_same_cpum(d, CantorPseudoUltrametric(d.cells, d.dist))
            for u in POOL:
                _assert_same_cpum(truncate(d, u), _ref_truncate(d, u))


def test_random_rows_match_recursive_builder():
    # same rows from the same draws, leaving the stream in the same state
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        n = rng.randint(1, 12)
        ref.randint(1, 12)
        positives = [Fraction(k, 8) for k in range(1, rng.randint(2, 9))]
        ref.randint(2, 9)
        assert _random_rows(rng, n, positives) == _ref_random_rows(ref, n, positives)
        assert rng.random() == ref.random()


def _leaf(label):
    return Dendrogram(label=label)


HALF, ONE = as_scale("1/2"), as_scale(1)


def _ref_tree_of_comprehension(rng, labels, positives):
    # reference: random_ultrametric_tree with ``below`` taken by a comprehension
    root = Dendrogram()
    stack = [(root, list(labels), sorted(positives))]
    while stack:
        node, items, avail = stack.pop()
        if len(items) == 1:
            node.label = items[0]
            continue
        node.scale = avail[rng.randrange(len(avail))]
        below = [v for v in avail if v < node.scale]
        nblocks = rng.randint(2, len(items)) if below else len(items)
        rng.shuffle(items)
        if nblocks < len(items):
            cuts = sorted(rng.sample(range(1, len(items)), nblocks - 1))
        else:
            cuts = list(range(1, len(items)))
        node.children = tuple(Dendrogram() for _ in range(nblocks))
        blocks = [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]
        stack.extend((child, block, below) for child, block in zip(node.children[::-1], blocks[::-1]))
    return root


def test_generator_slice_matches_comprehension():
    # unsorted positives with repeats: ``below`` must drop every copy of the scale
    pool = [as_scale(Fraction(k, 6)) for k in range(1, 7)]
    repeats = 0
    for seed in range(200):
        draw = random.Random(-seed)
        labels = [f"p{i}" for i in range(draw.randint(1, 10))]
        positives = draw.choices(pool, k=draw.randint(1, 8))
        rng, ref = random.Random(seed), random.Random(seed)
        repeats += len(set(positives)) < len(positives)
        assert _shape(random_ultrametric_tree(rng, labels, positives)) == _shape(
            _ref_tree_of_comprehension(ref, labels, positives)
        )
        assert rng.random() == ref.random()
    assert repeats > 100


def _ref_random_ultrametric_tree(rng, labels, positives):
    # reference: the generator that placed Dendrogram() placeholders and
    # took ``below`` by a bisect slice per node
    root = Dendrogram()
    stack = [(root, list(labels), sorted(positives))]
    while stack:
        node, items, avail = stack.pop()
        if len(items) == 1:
            node.label = items[0]
            continue
        node.scale = avail[rng.randrange(len(avail))]
        below = avail[:bisect_left(avail, node.scale)]
        nblocks = rng.randint(2, len(items)) if below else len(items)
        rng.shuffle(items)
        if nblocks < len(items):
            cuts = sorted(rng.sample(range(1, len(items)), nblocks - 1))
        else:
            cuts = list(range(1, len(items)))
        node.children = tuple(Dendrogram() for _ in range(nblocks))
        blocks = [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]
        stack.extend((child, block, below) for child, block in zip(node.children[::-1], blocks[::-1]))
    return root


def test_generator_matches_placeholder_builder():
    # same tree from the same draws, leaving the stream in the same state,
    # on the pool, generated pools, one scale and unsorted pools with repeats
    sixths = [as_scale(Fraction(k, 6)) for k in range(1, 7)]
    for seed in range(600):
        draw = random.Random(-seed - 1)
        labels = [f"p{i}" for i in range(draw.randint(1, 10))]
        positives = [
            POOL.positives(),
            gen_range_set(draw).positives(),
            [draw.choice(sixths)],
            draw.choices(sixths, k=draw.randint(1, 8)),
        ][seed % 4]
        if not positives:  # an empty generated pool: one point only
            labels = labels[:1]
        rng, ref = random.Random(seed), random.Random(seed)
        tree = random_ultrametric_tree(rng, labels, positives)
        want = _ref_random_ultrametric_tree(ref, labels, positives)
        assert _shape(tree) == _shape(want)
        assert tree.encode() == want.encode()
        assert tree.leaves() == want.leaves()
        assert rng.random() == ref.random()
    for n in range(2, 11):  # two or more points need a scale
        labels = [f"p{i}" for i in range(n)]
        for build in (random_ultrametric_tree, _ref_random_ultrametric_tree):
            with pytest.raises(ValueError):
                build(random.Random(n), labels, [])


def test_generator_depth_is_bounded_by_the_pool():
    # each level draws below its parent's scale: at most 6 internal
    # levels over POOL's 6 positives, whatever the number of labels
    labels = [f"p{i}" for i in range(3000)]
    for seed in range(3):
        tree = random_ultrametric_tree(random.Random(seed), labels, POOL.positives())
        depth, level = 0, [tree]
        while level:
            depth += 1
            level = [child for node in level for child in node.children]
        assert depth <= len(POOL.positives()) + 1 == 7
        assert sorted(tree.leaves()) == sorted(labels)
        _ref_walk_tree(labels, tree, False, fill=False)  # scales strictly decrease downwards


def _assert_lazy_rows(space):
    assert space._rows is None
    tree = space.dendrogram()
    want = tree.rows(space.labels)
    eager = FiniteUltraSpace(space.labels, want)
    assert space.dist == want
    assert space._rows is not None
    assert json.dumps(space.to_json()) == json.dumps(eager.to_json())


def test_rows_are_filled_on_first_read():
    rng = spawn_rng(16, 0)
    for _ in range(300):
        space = gen_space(rng)
        twin = _twin_gh(rng, GHPoint(space)).space
        quotients = [space.quotient(u) for u in POOL]
        for built in (space, twin, *quotients):
            _assert_lazy_rows(built)
        matrix = [[str(v) for v in row] for row in space.dist]
        checked = FiniteUltraSpace(space.labels, matrix)
        _assert_lazy_rows(checked)
        assert checked.dist == tuple(tuple(as_scale(v) for v in row) for row in matrix)
    x, y = gen_space(rng, max_points=8), gen_space(rng, max_points=8)
    na_distance(GHPoint(x), GHPoint(y))
    assert x._rows is None and y._rows is None
    assert x.quotient(ONE)._rows is None
    # a matrix from outside is kept as its tree too
    x, y = (FiniteUltraSpace(s.labels, s.dist) for s in (x, y))
    assert x._rows is None and y._rows is None
    x.canonical_form()
    x.spectrum()
    na_distance(GHPoint(x), GHPoint(y))
    assert x._rows is None and y._rows is None
    assert x.quotient(ONE)._rows is None and x._rows is None


def _ref_walk_encode(tree, floor):
    # reference: the full pre-order walk that ``encode`` replaced
    codes = {}
    for node in reversed(list(tree.nodes())):
        inner = [codes.pop(id(child)) for child in node.children]
        if inner and node.scale > floor:
            codes[id(node)] = f"({node.scale};{','.join(sorted(inner))})"
        else:
            codes[id(node)] = "*"
    return codes[id(tree)]


def _assert_encodes_match(tree, floors):
    for floor in floors:
        assert tree.encode(floor) == _ref_walk_encode(tree, floor)


def test_floor_bounded_encode_matches_full_walk():
    assert _leaf("a").encode() == _leaf("a").encode(ONE) == "*"
    rng = spawn_rng(24, 0)
    for _ in range(200):
        space = gen_space(rng, max_points=8)
        spec = space.spectrum().elems
        # node scales themselves sit on the boundary of "above the floor"
        floors = sorted({ZERO, *spec, *POOL, as_scale(spec[-1] + 1)})
        _assert_encodes_match(space.dendrogram(), floors)
        for eps in spec:
            _assert_encodes_match(space.quotient(eps).dendrogram(), floors)
    n = 1100
    chain = _leaf("p0")
    for i in range(1, n):
        chain = Dendrogram(as_scale(Fraction(i, n)), None, (_leaf(f"p{i}"), chain))
    levels = chain.scales()
    assert len(levels) == n - 1
    _assert_encodes_match(chain, [ZERO, *levels[::100], levels[-1], levels[0], *POOL])


@pytest.mark.parametrize(
    "labels, tree, allow_zero",
    [
        (["a"], Dendrogram(ONE, None, (_leaf("a"),)), False),  # one child
        (["a", "b"], Dendrogram(Fraction(1), None, (_leaf("a"), _leaf("b"))), False),  # not a Scale
        (["a", "b"], Dendrogram(1, None, (_leaf("a"), _leaf("b"))), False),
        (["a", "b"], Dendrogram(None, None, (_leaf("a"), _leaf("b"))), False),
        (["a", "b"], Dendrogram(ZERO, None, (_leaf("a"), _leaf("b"))), False),  # 0 in a metric
        (["a", "b"], Dendrogram(Scale(-1), None, (_leaf("a"), _leaf("b"))), True),
        (  # a 0-node over an internal node
            ["a", "b", "c"],
            Dendrogram(ZERO, None, (_leaf("a"), Dendrogram(ZERO, None, (_leaf("b"), _leaf("c"))))),
            True,
        ),
        (  # child scale equal to its parent's
            ["a", "b", "c"],
            Dendrogram(ONE, None, (_leaf("a"), Dendrogram(ONE, None, (_leaf("b"), _leaf("c"))))),
            False,
        ),
        (  # child scale above its parent's
            ["a", "b", "c"],
            Dendrogram(HALF, None, (_leaf("a"), Dendrogram(ONE, None, (_leaf("b"), _leaf("c"))))),
            False,
        ),
        (["a", "b"], Dendrogram(ONE, None, (_leaf("a"), _leaf("a"))), False),  # a label twice
        (["a", "b", "c"], Dendrogram(ONE, None, (_leaf("a"), _leaf("b"))), False),  # c missing
        (["a", "b"], Dendrogram(ONE, None, (_leaf("a"), _leaf("x"))), False),  # x is no point
        (["a", "a"], Dendrogram(ONE, None, (_leaf("a"), _leaf("a"))), False),  # labels repeat
        ([], _leaf("a"), False),
    ],
)
def test_malformed_trees_are_refused(labels, tree, allow_zero):
    with pytest.raises(SpaceError):
        _ref_walk_tree(labels, tree, allow_zero, fill=False)


def test_malformed_cpum_trees_are_refused():
    cells = ["0", "10", "11"]
    for tree in (
        Dendrogram(ZERO, None, (_leaf("0"), Dendrogram(ZERO, None, (_leaf("10"), _leaf("11"))))),
        Dendrogram(ONE, None, (_leaf("0"), _leaf("10"))),
        Dendrogram(HALF, None, (_leaf("0"), Dendrogram(HALF, None, (_leaf("10"), _leaf("11"))))),
    ):
        with pytest.raises(SpaceError):
            _ref_walk_tree(cells, tree, True, fill=False)


def test_well_formed_trees_are_accepted():
    chain = Dendrogram(ONE, None, (_leaf("a"), Dendrogram(HALF, None, (_leaf("b"), _leaf("c")))))
    assert _oracle_accepts(["c", "b", "a"], chain)
    assert chain.rows(["c", "b", "a"]) == ((0, HALF, 1), (HALF, 0, 1), (1, 1, 0))
    zeros = Dendrogram(ONE, None, (_leaf("a"), Dendrogram(ZERO, None, (_leaf("b"), _leaf("c")))))
    assert _oracle_accepts(["a", "b", "c"], zeros, allow_zero=True)
    assert zeros.rows(["a", "b", "c"]) == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    assert _oracle_accepts(["a"], _leaf("a"))
    assert _leaf("a").rows(["a"]) == ((0,),)


def test_quotient_refuses_colliding_class_labels():
    # the class {a+b, c} and the class {a, b+c} are both named a+b+c
    space = FiniteUltraSpace(
        ["a+b", "c", "a", "b+c"],
        [["0", "1/2", "1", "1"], ["1/2", "0", "1", "1"], ["1", "1", "0", "1/2"], ["1", "1", "1/2", "0"]],
    )
    with pytest.raises(SpaceError) as err:
        space.quotient(HALF)
    assert str(err.value) == "quotient class labels collide; avoid '+' in point labels"


def _ref_walk_tree(labels, tree, allow_zero, fill):
    # the oracle for every tree the package builds unchecked: it checks the
    # tree in one walk and, with ``fill``, fills its rows
    n = len(labels)
    index = dict(zip(labels, range(n)))
    if len(index) != n:
        raise SpaceError("point labels must be distinct")
    rows = [[ZERO] * n for _ in range(n)] if fill else None
    order = [tree]
    for node in order:  # breadth first: parents before children
        order.extend(node.children)
    members = {}
    for node in reversed(order):
        children = node.children
        if not children:
            i = index.pop(node.label, None)
            if i is None:
                raise SpaceError(f"leaf {node.label!r} is not a point or appears twice")
            members[node] = [i]
            continue
        scale = node.scale
        if len(children) < 2:
            raise SpaceError("an internal node needs at least two children")
        if type(scale) is not Scale or scale._numerator < 0 or (scale._numerator == 0 and not allow_zero):
            kind = "non-negative" if allow_zero else "positive"
            raise SpaceError(f"node scale must be a {kind} Scale, got {scale!r}")
        seen = []
        for child in children:
            if child.children and not child.scale < scale:
                raise SpaceError(f"child scale {child.scale} is not below its parent's {scale}")
            group = members.pop(child)
            if fill:
                for a in group:
                    row = rows[a]
                    for b in seen:
                        row[b] = scale
                        rows[b][a] = scale
            seen += group
        members[node] = seen
    if index:
        raise SpaceError(f"point {next(iter(index))!r} is not a leaf of the tree")
    return tuple(map(tuple, rows)) if fill else None


def _oracle_accepts(labels, tree, allow_zero=False):
    """Whether the reference walk accepts; if it does, ``rows`` fills what it fills."""
    try:
        want = _ref_walk_tree(labels, tree, allow_zero, fill=True)
    except SpaceError:
        return False
    assert tree.rows(labels) == want
    return True


def _copy_tree(tree):
    made = {}
    for node in reversed(tree.nodes()):
        made[node] = Dendrogram(node.scale, node.label, tuple(made[c] for c in node.children))
    return made[tree]


def _defects(rng, tree):
    """Copies of a well-formed tree, each with one defect the tree has room for."""
    out = []
    for kind, room in (
        ("raised", lambda v: any(c.children for c in v.children)),
        ("one child", lambda v: v.children),
        ("plain Fraction", lambda v: v.children),
        ("renamed", lambda v: v.is_leaf),
        ("duplicated", lambda v: v.is_leaf),
    ):
        copy = _copy_tree(tree)
        spots = [v for v in copy.nodes() if room(v)]
        if len(spots) < (2 if kind == "duplicated" else 1):
            continue
        node = spots[rng.randrange(len(spots))]
        if kind == "raised":  # a child scale raised to its parent's
            rng.choice([c for c in node.children if c.children]).scale = node.scale
        elif kind == "one child":
            node.children = node.children[:1]
        elif kind == "plain Fraction":
            node.scale = Fraction(node.scale)
        elif kind == "renamed":  # no generated point or cell is named x
            node.label = "x"
        else:
            node.label = rng.choice([v for v in spots if v is not node]).label
        out.append((kind, copy))
    return out


def _assert_rebuilt_equal(made, rebuilt, points):
    # a trusted construction equals its rebuild through the checked constructor
    assert getattr(made, points) == getattr(rebuilt, points)
    assert made.dist == rebuilt.dist
    assert made.dendrogram().encode() == rebuilt.dendrogram().encode()


def test_check_tree_and_rows_match_the_one_walk():
    # every construction that calls a ``_from_tree``: the generators, the
    # twins, ``quotient`` and ``truncate``
    rng, draw = spawn_rng(19, 0), random.Random(19)
    trees = []
    for _ in range(300):
        space = gen_space(rng, max_points=10)
        twin = _twin_gh(rng, GHPoint(space)).space
        for q in (space, twin, *(space.quotient(u) for u in sorted({*POOL, *space.spectrum()}))):
            _assert_rebuilt_equal(q, FiniteUltraSpace(q.labels, q.dist), "labels")
            trees.append((q.labels, q.dendrogram(), False))
        d = gen_cpum(rng)
        for e in (d, _twin_cpum(rng, d), *(truncate(d, u) for u in sorted({*POOL, *trace(d)}))):
            _assert_rebuilt_equal(e, CantorPseudoUltrametric(e.cells, e.dist), "cells")
            trees.append((e.cells, e.dendrogram(), True))
    kinds = {}
    for labels, tree, allow_zero in trees:
        assert _oracle_accepts(labels, tree, allow_zero)
        for kind, bad in _defects(draw, tree):
            assert not _oracle_accepts(labels, bad, allow_zero)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 5 and min(kinds.values()) > 100
    table = next(m for m in test_malformed_trees_are_refused.pytestmark if m.name == "parametrize")
    for labels, tree, allow_zero in table.args[1]:
        assert not _oracle_accepts(labels, tree, allow_zero)
