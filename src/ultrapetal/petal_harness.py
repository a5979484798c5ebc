"""Randomised generators, axiom suites, and back-and-forth isometry runs.

Everything here is deterministic given a seed: generators draw from a
Mersenne Twister stream split per task, reports are plain text with a
fixed line format, and failures carry a reproducing seed plus a
counterexample dump.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from . import model_f, model_maps
from .cells import cell_owners, refinement
from .extension import Inconsistent, embed
from .model_cpum import CantorPseudoUltrametric
from .model_f import SupportMap
from .model_gh import GHPoint, na_distance, na_oracle
from .model_maps import CantorFunction
from .petal import CPUM, F, GH, MAPS, Model
from .scales import RangeSet, ZERO, as_scale
from .umspace import FiniteUltraSpace, NotUltrametric

GENERATOR_NAME = "random.Random-MT19937"
# every generator draws its scales from POOL and its sizes up to these bounds
POOL = RangeSet(["0", "1/4", "1/3", "1/2", "2/3", "1", "2"])
MAX_POINTS = 6
MAX_SUPPORT = 6

_MASK64 = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15


def spawn_rng(seed: int, *salts: int) -> random.Random:
    """Independent deterministic stream for (seed, salts)."""
    state = seed & _MASK64
    for salt in salts:
        state = (state * _MIX + salt + 1) & _MASK64
    return random.Random(state)


@dataclass(frozen=True)
class TrialConfig:
    """The seed and the trial count of a randomised run."""

    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be non-negative")


# ---------------------------------------------------------------------------
# generators


def gen_scale(rng: random.Random, pool: RangeSet) -> Fraction:
    return pool.elems[rng.randrange(len(pool.elems))]


def gen_range_set(rng: random.Random) -> RangeSet:
    return RangeSet(v for v in POOL.positives() if rng.random() < 0.5)


def gen_support_map(rng: random.Random, pool: RangeSet = POOL) -> SupportMap:
    positives = pool.positives()
    count = rng.randint(0, min(MAX_SUPPORT, len(positives)))
    keys = rng.sample(positives, count)
    return SupportMap({key: rng.randint(1, 3) for key in keys})


def gen_partition(rng: random.Random, max_cells: int) -> list[str]:
    cells = [""]
    for _ in range(rng.randint(0, max(0, max_cells - 1))):
        pick = cells.pop(rng.randrange(len(cells)))
        cells.append(pick + "0")
        cells.append(pick + "1")
    return sorted(cells)


def gen_cantor_function(rng: random.Random, pool: RangeSet = POOL) -> CantorFunction:
    cells = gen_partition(rng, MAX_SUPPORT)
    values = {cell: gen_scale(rng, pool) for cell in cells}
    values[cells[rng.randrange(len(cells))]] = ZERO
    return CantorFunction(values)


def random_ultrametric_rows(
    rng: random.Random, n: int, positives: Sequence[Fraction]
) -> list[list[Fraction]]:
    """Distance rows of a random n-point ultrametric built as a dendrogram."""
    rows = [[ZERO] * n for _ in range(n)]

    def build(indices: list[int], avail: Sequence[Fraction]) -> None:
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


def gen_space(
    rng: random.Random, max_points: int = MAX_POINTS, pool: RangeSet = POOL
) -> FiniteUltraSpace:
    positives = pool.positives()
    n = rng.randint(1, max_points if positives else 1)
    rows = random_ultrametric_rows(rng, n, positives)
    return FiniteUltraSpace([f"p{i}" for i in range(n)], rows)


def gen_cpum(rng: random.Random, pool: RangeSet = POOL) -> CantorPseudoUltrametric:
    positives = pool.positives()
    cells = gen_partition(rng, MAX_SUPPORT)
    n = len(cells)
    if positives and n > 1:
        rows = random_ultrametric_rows(rng, n, positives)
        if rng.random() < 0.4:
            cut = positives[rng.randrange(len(positives))]
            rows = [[v if v > cut else ZERO for v in row] for row in rows]
    else:
        rows = [[ZERO] * n for _ in range(n)]
    return CantorPseudoUltrametric(cells, rows)


# ---------------------------------------------------------------------------
# model plumbing for the generic suites


def _twin_f(rng: random.Random, x: SupportMap) -> SupportMap:
    return SupportMap(x.entries)


def _twin_maps(rng: random.Random, x: CantorFunction) -> CantorFunction:
    refined = dict(x.cells)
    for _ in range(rng.randint(1, 3)):
        keys = sorted(refined)
        pick = keys[rng.randrange(len(keys))]
        value = refined.pop(pick)
        refined[pick + "0"] = value
        refined[pick + "1"] = value
    return CantorFunction(refined)


def _twin_cpum(rng: random.Random, d: CantorPseudoUltrametric) -> CantorPseudoUltrametric:
    # split one cell in two; the induced pseudo-ultrametric is unchanged
    cells = list(d.cells)
    i = rng.randrange(len(cells))
    target = cells.pop(i)
    new_cells = cells + [target + "0", target + "1"]
    old = [j for j in range(len(d.cells)) if j != i] + [i, i]
    rows = []
    for a, oa in enumerate(old):
        row = []
        for b, ob in enumerate(old):
            row.append(ZERO if a == b or (oa == i and ob == i) else d.dist[oa][ob])
        rows.append(row)
    return CantorPseudoUltrametric(new_cells, rows)


def _twin_gh(rng: random.Random, x: GHPoint) -> GHPoint:
    order = list(range(len(x.space)))
    rng.shuffle(order)
    labels = [f"r{i}" for i in range(len(order))]
    rows = [[x.space.dist[a][b] for b in order] for a in order]
    return GHPoint(FiniteUltraSpace(labels, rows))


def _cpum_same(d: CantorPseudoUltrametric, e: CantorPseudoUltrametric) -> bool:
    refined = refinement((d.cells, e.cells))
    od = cell_owners(refined, d.cells)
    oe = cell_owners(refined, e.cells)
    n = len(refined)
    for i in range(n):
        for j in range(i + 1, n):
            if d.dist[od[i]][od[j]] != e.dist[oe[i]][oe[j]]:
                return False
    return True


@dataclass(frozen=True)
class _Sampler:
    """How the generic suites draw, twin and compare elements of one model.

    ``gen(rng, pool=s)`` draws a member of the petal of ``s``.
    """

    model: Model
    gen: Callable
    twin: Callable
    equal: Callable = operator.eq


# one module-level name per record, as for the records in petal.py
_F = _Sampler(F, gen_support_map, _twin_f)
_MAPS = _Sampler(MAPS, gen_cantor_function, _twin_maps)
_CPUM = _Sampler(CPUM, gen_cpum, _twin_cpum, equal=_cpum_same)
_GH = _Sampler(GH, lambda rng, pool=POOL: GHPoint(gen_space(rng, pool=pool)), _twin_gh)


# ---------------------------------------------------------------------------
# property checks; each runs one trial ``t`` and returns None on success
# or a counterexample dict


def _check_metric_axioms(ops: _Sampler, rng, t):
    x = ops.gen(rng)
    y = ops.twin(rng, x) if t % 5 == 0 else ops.gen(rng)
    z = ops.gen(rng)
    dxy = ops.model.metric(x, y)
    if ops.model.metric(y, x) != dxy:
        bad = "symmetry"
    elif ops.model.metric(x, x) != ZERO:
        bad = "self-distance"
    elif (dxy == ZERO) != ops.equal(x, y):
        bad = "identity-of-indiscernibles"
    else:
        dxz = ops.model.metric(x, z)
        dzy = ops.model.metric(z, y)
        if dxy <= (dxz if dxz > dzy else dzy):
            return None
        bad = "strong-triangle"
    return {"violated": bad, "x": x.to_json(), "y": y.to_json(), "z": z.to_json()}


def _check_p1_valued(ops: _Sampler, rng, t):
    # distances inside one petal stay inside its range set
    s = gen_range_set(rng)
    m1 = ops.gen(rng, pool=s)
    m2 = ops.gen(rng, pool=s)
    if ops.model.metric(m1, m2) not in s:
        return {"x": m1.to_json(), "y": m2.to_json(), "S": s.to_json()}
    return None


def _check_p2_trace(ops: _Sampler, rng, t):
    # every element lies in the petal of its trace, and in no smaller one
    x = ops.gen(rng)
    tr = ops.model.trace(x)
    if not ops.model.in_petal(x, tr):
        return {"violated": "membership", "x": x.to_json()}
    for value in tr.positives():
        smaller = RangeSet(e for e in tr.elems if e != value)
        if ops.model.in_petal(x, smaller):
            return {"violated": "minimality", "x": x.to_json(), "dropped": str(value)}
    return None


def _check_p3(ops: _Sampler, rng, t):
    s = gen_range_set(rng)
    t2 = gen_range_set(rng)
    if t % 3 == 0:
        x = ops.gen(rng, pool=s.intersect(t2))
    elif t % 3 == 1:
        x = ops.gen(rng, pool=s)
    else:
        x = ops.gen(rng)
    both = ops.model.in_petal(x, s) and ops.model.in_petal(x, t2)
    if both != ops.model.in_petal(x, s.intersect(t2)):
        return {"x": x.to_json(), "S": s.to_json(), "T": t2.to_json()}
    return None


def _check_p4(ops: _Sampler, rng, t):
    s = gen_range_set(rng)
    x = ops.gen(rng, pool=gen_range_set(rng)) if t % 2 else ops.gen(rng)
    u, _ = ops.model.petal_distance(x, s)
    tr = ops.model.trace(x)
    # the trace is the least range set whose petal holds x, so the
    # membership below implies it for every T with x in its petal
    big_t = tr.union(gen_range_set(rng))
    if not (u == ZERO or (u in tr and u in big_t and u not in s)):
        return {"x": x.to_json(), "S": s.to_json(), "T": big_t.to_json(), "value": str(u)}
    return None


def _check_petal_formula(ops: _Sampler, rng, t):
    s = gen_range_set(rng)
    x = ops.gen(rng)
    u, witness = ops.model.petal_distance(x, s)
    tr = ops.model.trace(x)
    expected = next(cand for cand in tr.elems if tr.tail_subset(s, cand))
    if u != expected:
        fail = "formula"
    elif not ops.model.in_petal(witness, s):
        fail = "witness-membership"
    elif ops.model.metric(x, witness) != u:
        fail = "witness-distance"
    elif any(ops.model.metric(x, ops.gen(rng, pool=s)) < u for _ in range(100)):
        fail = "closer-member"
    else:
        return None
    return {"violated": fail, "x": x.to_json(), "S": s.to_json()}


def _check_trace_tail(ops: _Sampler, rng, t):
    x = ops.gen(rng)
    y = ops.gen(rng)
    w = ops.model.metric(x, y)
    if t % 2:
        higher = [v for v in POOL.elems if v >= w]
        if higher:
            w = higher[rng.randrange(len(higher))]
    above_x = {e for e in ops.model.trace(x).elems if e > w}
    above_y = {e for e in ops.model.trace(y).elems if e > w}
    if above_x != above_y:
        return {"x": x.to_json(), "y": y.to_json(), "w": str(w)}
    return None


def _check_covering(ops: _Sampler, rng, t):
    points = [ops.gen(rng) for _ in range(rng.randint(0, 4))]
    s = ops.model.covering_petal(points)
    if not all(ops.model.in_petal(p, s) for p in points):
        return {"points": [p.to_json() for p in points], "S": s.to_json()}
    return None


def _check_approximate(ops: _Sampler, rng, t):
    x = ops.gen(rng)
    s = gen_range_set(rng)
    positives = POOL.positives()
    r = positives[rng.randrange(len(positives))]
    widened, g = ops.model.approximate_into_petal(x, s, r)
    # T may add to S only trace values >= r: finitely many, as the paper's bound needs
    allowed = s.union(RangeSet(v for v in ops.model.trace(x) if v >= r))
    ok = (
        ops.model.in_petal(g, widened)
        and ops.model.metric(x, g) < r
        and s.issubset(widened)
        and widened.issubset(allowed)
    )
    if not ok:
        return {"x": x.to_json(), "S": s.to_json(), "r": str(r)}
    return None


def _check_extension(ops: _Sampler, rng, t):
    if t % 3 == 2:
        # an unrealisable request must be rejected
        for _ in range(50):
            a = ops.gen(rng)
            b = ops.gen(rng)
            gap = ops.model.metric(a, b)
            if gap > ZERO:
                break
        else:
            return None
        try:
            ops.model.extend([a, b], [gap / 2, gap / 2])
        except Inconsistent:
            return None
        return {"violated": "missing-rejection", "x": a.to_json(), "y": b.to_json()}
    count = rng.randint(1, 8)
    petal = gen_range_set(rng) if t % 3 == 1 else None
    points = [ops.gen(rng, pool=petal or POOL) for _ in range(count + 1)]
    omega, anchors = points[-1], points[:-1]
    targets = [ops.model.metric(omega, a) for a in anchors]
    theta = ops.model.extend(anchors, targets)
    if any(ops.model.metric(theta, a) != d for a, d in zip(anchors, targets)):
        return {
            "violated": "distance",
            "anchors": [a.to_json() for a in anchors],
            "targets": [str(d) for d in targets],
        }
    if petal is not None and not ops.model.in_petal(theta, petal):
        return {"violated": "petal-preservation", "S": petal.to_json()}
    return None


def _check_claim_f(rng, t):
    # the distance of two support maps is their top disagreement, both ways
    f = gen_support_map(rng)
    if t % 2 == 0:
        g = gen_support_map(rng)
        r = model_f.delta(f, g)
        if r == ZERO:
            return None
        keys = {k for k, _ in f.entries} | {k for k, _ in g.entries}
        if f.value_at(r) == g.value_at(r) or any(
            f.value_at(k) != g.value_at(k) for k in keys if k > r
        ):
            return {"f": f.to_json(), "g": g.to_json(), "r": str(r)}
        return None
    positives = POOL.positives()
    r = positives[rng.randrange(len(positives))]
    entries = [(k, v) for k, v in f.entries if k > r]
    entries.append((r, f.value_at(r) + 1))
    for k in positives:
        if k < r and rng.random() < 0.5:
            entries.append((k, rng.randint(1, 3)))
    g = SupportMap(entries)
    if model_f.delta(f, g) != r:
        return {"f": f.to_json(), "g": g.to_json(), "r": str(r)}
    return None


def _check_embed_f(rng, t):
    space = gen_space(rng, max_points=10)
    images = model_f.embed_space(space)
    for a in space.labels:
        for b in space.labels:
            if model_f.delta(images[a], images[b]) != space.d(a, b):
                return {"space": space.to_json(), "pair": [a, b]}
    return None


def _check_canonical_maps(rng, t):
    f = gen_cantor_function(rng)
    g = _twin_maps(rng, f)
    if g.cells != f.cells or model_maps.nabla(f, g) != ZERO:
        return {"f": f.to_json()}
    return None


def _check_cross_model(rng, t):
    # one space, embedded independently in both models, same matrix
    space = gen_space(rng, max_points=8)
    f_images = model_f.embed_space(space)
    m_images = embed(model_maps.one_point_extension, space)
    order = sorted(space.labels)
    for a in order:
        for b in order:
            want = space.d(a, b)
            if (
                model_f.delta(f_images[a], f_images[b]) != want
                or model_maps.nabla(m_images[a], m_images[b]) != want
            ):
                return {"space": space.to_json(), "pair": [a, b]}
    return None


def _check_oracle_gh(rng, t):
    if t == 0:
        # the exhaustive corpus is swept once, before the random pairs
        for x in small_corpus():
            for y in small_corpus():
                if na_distance(x, y) != na_oracle(x, y):
                    return {"corpus": True, "x": x.space.to_json(), "y": y.space.to_json()}
    nx = rng.randint(1, 5)
    ny = rng.randint(1, 6 - nx)
    x = GHPoint(gen_space(rng, max_points=nx))
    y = GHPoint(gen_space(rng, max_points=ny))
    if na_distance(x, y) != na_oracle(x, y):
        return {"x": x.space.to_json(), "y": y.space.to_json()}
    return None


def _check_quotient_gh(rng, t):
    x = GHPoint(gen_space(rng))
    spectrum = x.space.spectrum()
    choices = sorted(set(POOL.elems) | set(spectrum.elems))
    eps = choices[rng.randrange(len(choices))]
    q = GHPoint(x.space.quotient(eps))
    dist = na_distance(x, q)
    if dist > eps:
        return {"x": x.space.to_json(), "eps": str(eps)}
    if eps != ZERO and eps in spectrum and dist != eps:
        # every spectrum value of a finite space is attained
        return {"violated": "equality", "x": x.space.to_json(), "eps": str(eps)}
    return None


# ---------------------------------------------------------------------------
# suite registry and reports


@dataclass(frozen=True)
class PropertySpec:
    tag: str
    name: str
    factor: float
    run: Callable


SUITES: dict[str, tuple[PropertySpec, ...]] = {
    "f": (
        PropertySpec("metric-axioms", "delta_is_ultrametric", 1.0, partial(_check_metric_axioms, _F)),
        PropertySpec("max-disagreement-law", "delta_is_top_support_disagreement", 1.0, _check_claim_f),
        PropertySpec("piece-valuedness-P1", "petal_members_keep_distances_in_range", 0.1, partial(_check_p1_valued, _F)),
        PropertySpec("petal-union-P2", "element_lies_in_minimal_trace_petal", 0.1, partial(_check_p2_trace, _F)),
        PropertySpec("petal-intersection-P3", "petal_membership_intersects", 0.1, partial(_check_p3, _F)),
        PropertySpec("petal-distance-membership-P4", "petal_distance_in_trace_gap", 0.1, partial(_check_p4, _F)),
        PropertySpec("petal-distance-formula", "petal_distance_formula_witness_optimal", 0.1, partial(_check_petal_formula, _F)),
        PropertySpec("trace-tail-agreement", "traces_agree_above_distance", 0.1, partial(_check_trace_tail, _F)),
        PropertySpec("one-point-extension", "extension_exact_preserving_rejecting", 0.1, partial(_check_extension, _F)),
        PropertySpec("finite-embedding", "embed_space_reproduces_matrix", 0.1, _check_embed_f),
        PropertySpec("covering-petal", "covering_petal_contains_inputs", 0.1, partial(_check_covering, _F)),
        PropertySpec("petal-approximation", "approximate_into_petal_close", 0.1, partial(_check_approximate, _F)),
    ),
    "maps": (
        PropertySpec("metric-axioms", "nabla_is_ultrametric", 1.0, partial(_check_metric_axioms, _MAPS)),
        PropertySpec("canonical-merge", "canonical_form_unique", 0.1, _check_canonical_maps),
        PropertySpec("piece-valuedness-P1", "petal_members_keep_distances_in_range", 0.1, partial(_check_p1_valued, _MAPS)),
        PropertySpec("petal-union-P2", "element_lies_in_minimal_trace_petal", 0.1, partial(_check_p2_trace, _MAPS)),
        PropertySpec("petal-intersection-P3", "petal_membership_intersects", 0.1, partial(_check_p3, _MAPS)),
        PropertySpec("petal-distance-membership-P4", "petal_distance_in_trace_gap", 0.1, partial(_check_p4, _MAPS)),
        PropertySpec("petal-distance-formula", "petal_distance_formula_witness_optimal", 0.1, partial(_check_petal_formula, _MAPS)),
        PropertySpec("trace-tail-agreement", "traces_agree_above_distance", 0.1, partial(_check_trace_tail, _MAPS)),
        PropertySpec("one-point-extension", "extension_exact_preserving_rejecting", 0.1, partial(_check_extension, _MAPS)),
        PropertySpec("cross-model-embedding", "embeddings_agree_across_models", 0.05, _check_cross_model),
        PropertySpec("covering-petal", "covering_petal_contains_inputs", 0.1, partial(_check_covering, _MAPS)),
        PropertySpec("petal-approximation", "approximate_into_petal_close", 0.1, partial(_check_approximate, _MAPS)),
    ),
    "cpum": (
        PropertySpec("metric-axioms", "ud_is_ultrametric", 1.0, partial(_check_metric_axioms, _CPUM)),
        PropertySpec("truncation-witness", "petal_distance_formula_witness_optimal", 0.1, partial(_check_petal_formula, _CPUM)),
        PropertySpec("piece-valuedness-P1", "petal_members_keep_distances_in_range", 0.1, partial(_check_p1_valued, _CPUM)),
        PropertySpec("petal-union-P2", "element_lies_in_minimal_trace_petal", 0.1, partial(_check_p2_trace, _CPUM)),
        PropertySpec("petal-intersection-P3", "petal_membership_intersects", 0.1, partial(_check_p3, _CPUM)),
        PropertySpec("petal-distance-membership-P4", "petal_distance_in_trace_gap", 0.1, partial(_check_p4, _CPUM)),
        PropertySpec("trace-tail-agreement", "traces_agree_above_distance", 0.1, partial(_check_trace_tail, _CPUM)),
        PropertySpec("covering-petal", "covering_petal_contains_inputs", 0.1, partial(_check_covering, _CPUM)),
        PropertySpec("petal-approximation", "approximate_into_petal_close", 0.1, partial(_check_approximate, _CPUM)),
    ),
    "gh": (
        PropertySpec("metric-axioms", "na_is_ultrametric", 0.1, partial(_check_metric_axioms, _GH)),
        PropertySpec("oracle-agreement", "na_matches_ambient_oracle", 0.05, _check_oracle_gh),
        PropertySpec("quotient-contraction", "quotient_within_eps", 0.1, _check_quotient_gh),
        PropertySpec("piece-valuedness-P1", "petal_members_keep_distances_in_range", 0.1, partial(_check_p1_valued, _GH)),
        PropertySpec("petal-union-P2", "element_lies_in_minimal_trace_petal", 0.1, partial(_check_p2_trace, _GH)),
        PropertySpec("petal-intersection-P3", "petal_membership_intersects", 0.1, partial(_check_p3, _GH)),
        PropertySpec("petal-distance-membership-P4", "petal_distance_in_trace_gap", 0.1, partial(_check_p4, _GH)),
        PropertySpec("petal-distance-formula", "petal_distance_formula_witness_optimal", 0.1, partial(_check_petal_formula, _GH)),
        PropertySpec("trace-tail-agreement", "traces_agree_above_distance", 0.1, partial(_check_trace_tail, _GH)),
    ),
}

_MODEL_SALT = {"f": 11, "maps": 12, "cpum": 13, "gh": 14}


def run_property(
    model: str,
    name: str,
    cfg: TrialConfig,
    trials: int | None = None,
) -> tuple[bool, int, dict | None]:
    """Run one named suite property; returns (passed, trials, counterexample with "trial")."""
    if trials is not None and trials < 0:
        raise ValueError("trials must be non-negative")
    for pidx, spec in enumerate(SUITES[model]):
        if spec.name == name or spec.tag == name:
            n = trials if trials is not None else max(1, round(cfg.trials * spec.factor))
            rng = spawn_rng(cfg.seed, _MODEL_SALT[model], pidx)
            for t in range(n):
                failure = spec.run(rng, t)
                if failure is not None:
                    return False, n, {"trial": t, **failure}
            return True, n, None
    raise KeyError(f"no property {name!r} in model {model!r}")


def run_axiom_suite(model: str, cfg: TrialConfig, dump_dir: str | None = None) -> str:
    """Run every registered property of one model; returns the text report."""
    if model not in SUITES:
        raise KeyError(f"unknown model {model!r}")
    lines = [
        f"# axiom-suite model={model} seed={cfg.seed} trials={cfg.trials} generator={GENERATOR_NAME}"
    ]
    for spec in SUITES[model]:
        ok, n, failure = run_property(model, spec.name, cfg)
        if ok:
            lines.append(f"{spec.tag} {spec.name} PASS trials={n}")
        else:
            path = "-"
            if dump_dir is not None:
                target = Path(dump_dir) / f"{model}_{spec.name}.json"
                target.write_text(json.dumps(failure, indent=2) + "\n")
                path = str(target)
            lines.append(
                f"{spec.tag} {spec.name} FAIL trials={n} seed={cfg.seed} counterexample={path}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# back-and-forth runs


class InvariantViolation(Exception):
    """The paired lists stopped being isometric; an extension operator is wrong."""

    def __init__(self, step: int, pair: tuple[int, int]):
        self.step = step
        self.pair = pair
        super().__init__(f"partial isometry broken at step {step}, pair {pair}")


class PartialIsometry:
    """Two aligned point lists with exactly matching distance matrices."""

    def __init__(self, left: list, right: list, left_metric: Callable, right_metric: Callable):
        self.left = left
        self.right = right
        self.left_metric = left_metric
        self.right_metric = right_metric

    def __len__(self) -> int:
        return len(self.left)

    def append_checked(self, x, y, step: int) -> None:
        """Add a pair after verifying it against every existing pair."""
        for i in range(len(self.left)):
            if self.left_metric(x, self.left[i]) != self.right_metric(y, self.right[i]):
                raise InvariantViolation(step, (i, len(self.left)))
        self.left.append(x)
        self.right.append(y)

    def verify(self) -> None:
        for i in range(len(self.left)):
            for j in range(i + 1, len(self.left)):
                lhs = self.left_metric(self.left[i], self.left[j])
                rhs = self.right_metric(self.right[i], self.right[j])
                if lhs != rhs:
                    raise InvariantViolation(-1, (i, j))


def _extend_both_ways(pairing: PartialIsometry, left: _Sampler, right: _Sampler, rng, rounds: int) -> None:
    """``rounds`` rounds, each mirroring a fresh point one way, then the other.

    A fresh left point is mirrored to the right through a one-point
    extension at its exact distances, then a fresh right point is
    mirrored back; every addition is re-verified against the whole
    pairing.
    """
    left_gen, left_metric, left_extend = left.gen, left.model.metric, left.model.extend
    right_gen, right_metric, right_extend = right.gen, right.model.metric, right.model.extend
    for k in range(rounds):
        x = left_gen(rng)
        y = right_extend(pairing.right, [left_metric(x, l) for l in pairing.left])
        pairing.append_checked(x, y, step=2 * k)
        g = right_gen(rng)
        f = left_extend(pairing.left, [right_metric(g, r) for r in pairing.right])
        pairing.append_checked(f, g, step=2 * k + 1)


def back_and_forth(cfg: TrialConfig) -> PartialIsometry:
    """Grow an exact partial isometry between the two function models.

    Each round first mirrors a fresh support map into the locally
    constant model, then mirrors a fresh locally constant function back.
    """
    rng = spawn_rng(cfg.seed, 1)
    pairing = PartialIsometry([], [], F.metric, MAPS.metric)
    _extend_both_ways(pairing, _F, _MAPS, rng, cfg.trials)
    return pairing


def ultrahomogeneity_demo(cfg: TrialConfig, subset_size: int) -> PartialIsometry:
    """Extend a random finite self-isometry of the support-map model.

    Draws up to ``subset_size`` distinct points, builds an isometric copy by
    re-embedding their distance matrix in a reshuffled order, then
    alternately extends the pairing over fresh random points, verifying
    exactness at each step.
    """
    rng = spawn_rng(cfg.seed, 2)
    points: list[SupportMap] = []
    attempts = 0
    while len(points) < subset_size and attempts < 200:
        attempts += 1
        candidate = gen_support_map(rng)
        if candidate not in points:
            points.append(candidate)
    size = len(points)
    copy: list[SupportMap] = []
    if size:
        order = list(range(size))
        rng.shuffle(order)
        labels = [f"q{i}" for i in range(size)]
        rows = [
            [model_f.delta(points[order[a]], points[order[b]]) for b in range(size)]
            for a in range(size)
        ]
        images = model_f.embed_space(FiniteUltraSpace(labels, rows))
        copy = [SupportMap()] * size
        for a in range(size):
            copy[order[a]] = images[f"q{a}"]
    pairing = PartialIsometry(list(points), copy, F.metric, F.metric)
    pairing.verify()
    _extend_both_ways(pairing, _F, _F, rng, cfg.trials)
    return pairing


def backforth_report(cfg: TrialConfig) -> str:
    header = f"# backforth seed={cfg.seed} trials={cfg.trials} generator={GENERATOR_NAME}"
    try:
        pairing = back_and_forth(cfg)
        line = f"back-and-forth partial_isometry_each_step PASS trials={cfg.trials} pairs={len(pairing)}"
    except InvariantViolation as err:
        line = (
            f"back-and-forth partial_isometry_each_step FAIL trials={cfg.trials} "
            f"seed={cfg.seed} step={err.step} pair={err.pair}"
        )
    return header + "\n" + line + "\n"


# ---------------------------------------------------------------------------
# exhaustive corpus of tiny spaces

_CORPUS: list[GHPoint] | None = None


def enumerate_small_spaces() -> list[GHPoint]:
    """Every isometry class with at most 3 points over the scales 1/4, 1/2, 1.

    Tries every symmetric matrix over those scales and keeps the
    ultrametric ones, one per canonical form.
    """
    positives = [as_scale(s) for s in ("1/4", "1/2", "1")]
    seen: dict[str, FiniteUltraSpace] = {}
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for values in itertools.product(positives, repeat=len(pairs)):
            rows = [[ZERO] * n for _ in range(n)]
            for (i, j), v in zip(pairs, values):
                rows[i][j] = rows[j][i] = v
            try:
                space = FiniteUltraSpace([f"p{i}" for i in range(n)], rows)
            except NotUltrametric:
                continue
            seen.setdefault(space.canonical_form(), space)
    ordered = sorted(seen.values(), key=lambda s: (len(s), s.canonical_form()))
    return [GHPoint(s) for s in ordered]


def small_corpus() -> list[GHPoint]:
    """Cached exhaustive corpus used by the oracle gate."""
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = enumerate_small_spaces()
    return _CORPUS
