import random
from fractions import Fraction

import pytest

from ultrapetal.model_gh import GHPoint, na_distance
from ultrapetal.petal_harness import POOL, gen_space, random_ultrametric_rows, spawn_rng
from ultrapetal.scales import RangeSet, ZERO
from ultrapetal.umspace import (
    EmptySubset,
    FiniteUltraSpace,
    NotPositive,
    NotSymmetric,
    NotUltrametric,
    SpaceError,
    check_matrix,
    validate,
)

THREE = FiniteUltraSpace(
    ["a", "b", "c"],
    [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]],
)


def test_validate_examples():
    assert len(validate(["p", "q"], [["0", "1"], ["1", "0"]])) == 2
    assert len(THREE) == 3
    with pytest.raises(NotUltrametric) as err:
        validate(
            ["a", "b", "c"],
            [["0", "1/2", "1"], ["1/2", "0", "1/4"], ["1", "1/4", "0"]],
        )
    assert set(err.value.indices) == {0, 1, 2}


def test_validate_rejects_bad_matrices():
    with pytest.raises(NotSymmetric):
        validate(["a", "b"], [["0", "1"], ["1/2", "0"]])
    with pytest.raises(NotPositive):
        validate(["a", "b"], [["0", "0"], ["0", "0"]])
    with pytest.raises(NotPositive):
        validate(["a", "b"], [["1", "1"], ["1", "0"]])
    with pytest.raises(SpaceError):
        validate(["a", "a"], [["0", "1"], ["1", "0"]])
    with pytest.raises(SpaceError):
        validate([], [])
    with pytest.raises(SpaceError):
        validate(["a", "b"], [["0", "1"]])


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
        rebuilt = space.dendrogram().to_space()
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
        validate(space.labels, space.dist)


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


def test_hausdorff_examples():
    assert THREE.hausdorff(["a", "b"], ["a", "b"]) == ZERO
    two = FiniteUltraSpace(["p", "q"], [["0", "1"], ["1", "0"]])
    assert two.hausdorff(["p"], ["q"]) == Fraction(1)
    # oracle: both directed terms evaluated by hand
    #   sup over {a} of inf to {b,c} = 1/2; sup over {b,c} of inf to {a} = 1
    assert THREE.hausdorff(["a"], ["b", "c"]) == Fraction(1)
    with pytest.raises(EmptySubset):
        THREE.hausdorff([], ["a"])


def test_hausdorff_brute_force_agreement():
    rng = spawn_rng(37)
    for _ in range(60):
        space = gen_space(rng, max_points=7)
        labels = list(space.labels)
        a = [l for l in labels if rng.random() < 0.5] or [labels[0]]
        b = [l for l in labels if rng.random() < 0.5] or [labels[-1]]
        directed_ab = max(min(space.d(x, y) for y in b) for x in a)
        directed_ba = max(min(space.d(y, x) for x in a) for y in b)
        assert space.hausdorff(a, b) == max(directed_ab, directed_ba)


def test_hausdorff_strong_triangle_over_subsets():
    rng = spawn_rng(38)
    for _ in range(60):
        space = gen_space(rng, max_points=7)
        labels = list(space.labels)
        subsets = []
        for _ in range(3):
            subsets.append([l for l in labels if rng.random() < 0.6] or [labels[0]])
        a, b, c = subsets
        assert space.hausdorff(a, b) <= max(space.hausdorff(a, c), space.hausdorff(c, b))


def test_space_json_round_trip():
    data = THREE.to_json()
    again = FiniteUltraSpace.from_json(data)
    assert again.labels == THREE.labels
    assert again.dist == THREE.dist
    with pytest.raises(SpaceError):
        FiniteUltraSpace.from_json([1, 2, 3])


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


def _random_matrix(rng, allow_zero):
    """A random (pseudo-)ultrametric, with one pair perturbed half the time."""
    n = rng.randint(1, 9)
    pool = [Fraction(k, 4) for k in range(1, 9)]
    positives = sorted(rng.sample(pool, rng.randint(1, 4)))
    rows = random_ultrametric_rows(rng, n, positives)
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
        _, tree = check_matrix(rows, labels, allow_zero=allow_zero)
        assert _shape(tree) == _ref_tree(rows, labels)
        if not allow_zero:
            space = FiniteUltraSpace(labels, rows)
            assert space.canonical_form() == _ref_encode(_ref_tree(rows, labels))
            assert space.spectrum() == _ref_spectrum(rows)
    assert accepted > 200 and rejected > 200


def test_deep_chain_needs_no_recursion():
    # 1100 nested balls: deeper than the default recursion limit
    n = 1100
    scales = [Fraction(1, i + 1) for i in range(n)]
    rows = [[ZERO if i == j else scales[min(i, j)] for j in range(n)] for i in range(n)]
    space = validate([f"p{i:04d}" for i in range(n)], rows)
    assert space.canonical_form().count("(") == n - 1
    eps = scales[n // 2]
    q = space.quotient(eps)
    assert len(q) == n // 2 + 1
    assert na_distance(GHPoint(space), GHPoint(q)) == eps
    assert space.dendrogram().to_space().dist == space.dist
