import dataclasses
import hashlib
import json

import pytest

from injection import extending
from ultrapetal import model_cpum, model_f, model_gh, model_maps, petal_harness
from ultrapetal.extension import embed
from ultrapetal.petal import F, MODELS, Model
from ultrapetal.model_gh import GHPoint
from ultrapetal.petal_harness import (
    _CPUM,
    _F,
    _GH,
    _MAPS,
    POOL,
    SAMPLERS,
    InvariantViolation,
    PartialIsometry,
    TrialConfig,
    _check_approximate,
    _check_covering,
    _extend_both_ways,
    _twin_cpum,
    _twin_gh,
    back_and_forth,
    backforth_report,
    gen_cantor_function,
    gen_cpum,
    gen_range_set,
    gen_space,
    gen_support_map,
    run_axiom_suite,
    run_property,
    spawn_rng,
    ultrahomogeneity_demo,
)
from ultrapetal.scales import ZERO
from ultrapetal.umspace import FiniteUltraSpace


def test_config_validation():
    with pytest.raises(ValueError, match="trials must be non-negative"):
        TrialConfig(trials=-1)


def test_generators_are_deterministic():
    for gen in (gen_support_map, gen_cantor_function, gen_cpum):
        a = gen(spawn_rng(9, 0))
        b = gen(spawn_rng(9, 0))
        assert a.to_json() == b.to_json()
    s1 = gen_space(spawn_rng(9, 0))
    s2 = gen_space(spawn_rng(9, 0))
    assert s1.to_json() == s2.to_json()
    assert gen_range_set(spawn_rng(9, 1)) == gen_range_set(spawn_rng(9, 1))


def test_generated_elements_satisfy_model_invariants():
    rng = spawn_rng(11)
    for _ in range(50):
        space = gen_space(rng)
        FiniteUltraSpace(space.labels, space.dist)  # construction invariant
        fun = gen_cantor_function(rng)
        assert ZERO in dict(fun.cells).values()
        gen_support_map(rng)
        gen_cpum(rng)


def test_back_and_forth_trials_zero_gives_empty_pairing():
    assert len(back_and_forth(TrialConfig(seed=1, trials=0))) == 0


def test_back_and_forth_single_round():
    pairing = back_and_forth(TrialConfig(seed=1, trials=1))
    assert len(pairing) == 2
    pairing.verify()
    assert model_f.delta(*pairing.left) == model_maps.nabla(*pairing.right)


def test_back_and_forth_long_run_holds_invariant():
    pairing = back_and_forth(TrialConfig(seed=20, trials=20))
    assert len(pairing) == 40
    pairing.verify()


def test_partial_isometry_detects_bad_pair():
    pairing = PartialIsometry([], [], model_f.delta, model_f.delta)
    a = model_f.SupportMap()
    b = model_f.SupportMap({"1": 1})
    pairing.append_checked(a, a, 0, [])
    with pytest.raises(InvariantViolation) as err:
        pairing.append_checked(b, a, 1, [model_f.delta(b, a)])  # left moves, right does not
    assert err.value.step == 1
    with pytest.raises(ValueError):
        pairing.append_checked(b, b, 2, [])  # one distance per existing pair


def test_partial_isometry_verify_names_the_first_broken_pair():
    # the last two right points are swapped: d(0, 1) is 1 on the left, 1/2 on the right
    left = [model_f.SupportMap(), model_f.SupportMap({"1": 1}), model_f.SupportMap({"1/2": 1})]
    right = [left[0], left[2], left[1]]
    pairing = PartialIsometry(left, right, model_f.delta, model_f.delta)
    with pytest.raises(InvariantViolation) as err:
        pairing.verify()
    assert (err.value.step, err.value.pair) == (-1, (0, 1))


def _ignores_targets(sampler):
    # the origin is returned unchecked, so extend's own verify_extension never runs
    origin = sampler.model.origin()
    return extending(sampler, lambda anchors, targets: origin)


@pytest.mark.parametrize("bad_side, parity", [("right", 0), ("left", 1)])
def test_bad_extension_caught_on_each_half_step(bad_side, parity):
    left, right = _F, _MAPS
    if bad_side == "right":
        right = _ignores_targets(right)
    else:
        left = _ignores_targets(left)
    steps = set()
    for seed in range(5):
        pairing = PartialIsometry([], [], model_f.delta, model_maps.nabla)
        with pytest.raises(InvariantViolation) as err:
            _extend_both_ways(pairing, left, right, spawn_rng(seed, 1), rounds=10)
        steps.add(err.value.step % 2)
        assert err.value.pair[1] == len(pairing)  # the rejected pair was not added
        pairing.verify()
    assert steps == {parity}


def test_ultrahomogeneity_demo_sizes():
    for size in [0, 1, 4]:
        pairing = ultrahomogeneity_demo(TrialConfig(seed=8, trials=5), subset_size=size)
        assert len(pairing) == size + 10
        pairing.verify()


def _homogeneity_by_hand(cfg, subset_size):
    # ultrahomogeneity_demo as it was before its copy went through
    # extension.embed: a reference oracle for the shared placement loop
    rng = spawn_rng(cfg.seed, 2)
    points = []
    attempts = 0
    while len(points) < subset_size and attempts < 200:
        attempts += 1
        candidate = gen_support_map(rng)
        if candidate not in points:
            points.append(candidate)
    order = list(range(len(points)))
    rng.shuffle(order)
    copy = [model_f.SupportMap()] * len(points)
    for k, a in enumerate(order):
        done = order[:k]
        copy[a] = F.extend(
            [copy[b] for b in done], [model_f.delta(points[a], points[b]) for b in done]
        )
    pairing = PartialIsometry(list(points), copy, F.metric, F.metric)
    pairing.verify()
    _extend_both_ways(pairing, _F, _F, rng, cfg.trials)
    return pairing


def _pairs_json(pairing):
    return [[x.to_json() for x in pairing.left], [y.to_json() for y in pairing.right]]


def test_ultrahomogeneity_demo_matches_hand_loop():
    for seed in range(200):
        for size in range(6):
            cfg = TrialConfig(seed=seed, trials=2)
            assert _pairs_json(ultrahomogeneity_demo(cfg, size)) == _pairs_json(
                _homogeneity_by_hand(cfg, size)
            ), (seed, size)


def test_homogeneity_on_maps():
    # the shared placement loop and _extend_both_ways serve a second model
    for seed in range(50):
        rng = spawn_rng(seed, 2)
        points = []
        for _ in range(200):
            if len(points) == seed % 6:
                break
            candidate = _MAPS.gen(rng)
            if candidate not in points:
                points.append(candidate)
        order = list(range(len(points)))
        rng.shuffle(order)
        metric = _MAPS.model.metric
        images = embed(_MAPS.model.extend, order, lambda a, b: metric(points[a], points[b]))
        assert list(images) == order
        pairing = PartialIsometry(points, [images[a] for a in range(len(points))], metric, metric)
        pairing.verify()
        _extend_both_ways(pairing, _MAPS, _MAPS, rng, rounds=10)
        assert len(pairing) == seed % 6 + 20
        pairing.verify()


def test_run_property_and_suite_consistency():
    cfg = TrialConfig(seed=2, trials=30)
    ok, n, failure = run_property("f", "metric-axioms", cfg)
    assert ok and n == 30 and failure is None
    ok, n, _ = run_property("gh", "oracle-agreement", TrialConfig(seed=2, trials=100))
    assert ok and n == 5
    with pytest.raises(KeyError):
        run_property("f", "no-such-property", cfg)
    with pytest.raises(KeyError):
        run_axiom_suite("nope", cfg)


def test_oracle_gate_table_is_one_sweep_per_corpus(monkeypatch):
    corpus = petal_harness.small_corpus()
    table = petal_harness._corpus_oracle(corpus)
    assert table == [[model_gh.na_oracle(x, y) for y in corpus] for x in corpus]
    assert petal_harness._corpus_oracle(corpus) is table
    # a rebuilt corpus is a new list, and gets a table of its own
    monkeypatch.setattr(petal_harness, "_CORPUS", None)
    monkeypatch.setattr(petal_harness, "_ORACLE", petal_harness._ORACLE)  # restored after the test
    rebuilt = petal_harness.small_corpus()
    assert rebuilt is not corpus
    fresh = petal_harness._corpus_oracle(rebuilt)
    assert fresh is not table and fresh == table


def test_oracle_gate_measures_every_corpus_pair_on_every_run(monkeypatch):
    corpus = petal_harness.small_corpus()
    bad_x, bad_y = corpus[6], corpus[3]
    measured = []
    real = petal_harness.na_distance

    def off_on_one_pair(x, y):
        measured.append((x, y))
        value = real(x, y)
        return value + 1 if (x, y) == (bad_x, bad_y) else value

    cfg = TrialConfig(seed=2, trials=100)
    want = (False, 5, {"trial": 0, "corpus": True,
                       "x": bad_x.space.to_json(), "y": bad_y.space.to_json()})
    monkeypatch.setattr(petal_harness, "_ORACLE", None)
    monkeypatch.setattr(petal_harness, "na_distance", off_on_one_pair)
    assert run_property("gh", "oracle-agreement", cfg) == want  # the table cold
    assert petal_harness._ORACLE is not None
    assert run_property("gh", "oracle-agreement", cfg) == want  # and warm
    # a correct metric on a warm table: every pair, then the random pairs
    monkeypatch.setattr(petal_harness, "na_distance", lambda x, y: measured.append((x, y)) or real(x, y))
    measured.clear()
    assert run_property("gh", "oracle-agreement", cfg) == (True, 5, None)
    assert measured[:len(corpus) ** 2] == [(x, y) for x in corpus for y in corpus]
    assert len(measured) == len(corpus) ** 2 + 5


def test_every_registered_property_passes_briefly():
    cfg = TrialConfig(seed=3, trials=20)
    for model, ops in SAMPLERS.items():
        for spec in ops.suite:
            ok, _, failure = run_property(model, spec.name, cfg)
            assert ok, (model, spec.name, failure)


def test_suite_report_format_and_determinism():
    cfg = TrialConfig(seed=4, trials=20)
    report = run_axiom_suite("maps", cfg)
    lines = report.splitlines()
    assert lines[0].startswith("# axiom-suite model=maps seed=4 trials=20 generator=")
    assert len(lines) == 1 + len(SAMPLERS["maps"].suite)
    for line in lines[1:]:
        tag, name, verdict, trials = line.split()[:4]
        assert verdict == "PASS"
        assert trials.startswith("trials=")
    assert report == run_axiom_suite("maps", cfg)


def test_suite_dumps_counterexample_on_failure(tmp_path, monkeypatch):
    import ultrapetal.petal_harness as ph

    broken = ph.PropertySpec(
        "metric-axioms", "always_fails", 1.0,
        lambda ops, rng, t: {"reason": "forced"},
    )
    monkeypatch.setitem(ph.SAMPLERS, "f", dataclasses.replace(ph._F, suite=(broken,)))
    report = ph.run_axiom_suite("f", TrialConfig(seed=1, trials=5), dump_dir=str(tmp_path))
    assert " FAIL " in report
    dump = tmp_path / "f_always_fails.json"
    assert dump.exists()
    assert "forced" in dump.read_text()
    assert f"counterexample={dump}" in report


def test_backforth_report_shape():
    text = backforth_report(TrialConfig(seed=6, trials=3))
    lines = text.splitlines()
    assert lines[0].startswith("# backforth seed=6 trials=3")
    assert "PASS" in lines[1] and "pairs=6" in lines[1]


def test_models_registry_complete():
    assert set(MODELS) == {"f", "maps", "cpum", "gh"}
    assert set(SAMPLERS) == set(MODELS)
    assert all(SAMPLERS[name].model is MODELS[name] for name in MODELS)
    assert len({ops.salt for ops in SAMPLERS.values()}) == len(SAMPLERS)
    for ops in SAMPLERS.values():
        # run_property takes the first spec whose tag or name matches, so a
        # repeated tag or name would hide a later property
        tags = [spec.tag for spec in ops.suite]
        names = [spec.name for spec in ops.suite]
        assert len(set(tags)) == len(tags) and len(set(names)) == len(names)
        assert not set(tags) & set(names)


def truncation_distance(model, x, y):
    # the one distance definition: the least u in {0} u trace(x) u trace(y)
    # at which the two truncations are the same element
    candidates = sorted(set(model.trace(x)) | set(model.trace(y)))
    return next(u for u in candidates if model.truncate(x, u) == model.truncate(y, u))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_metric_is_least_agreeing_truncation(name):
    # an oracle sharing no code with delta, nabla, ud or na_distance;
    # y is a fresh draw, a twin of x, or a truncation of either
    model = MODELS[name]
    sampler = SAMPLERS[name]
    rng = spawn_rng(20240811, 11)
    for t in range(300):
        x = sampler.gen(rng)
        y = sampler.twin(rng, x) if t % 2 else sampler.gen(rng)
        if t % 3 == 2:
            y = model.truncate(y, POOL.elems[rng.randrange(len(POOL))])
        elif t % 2:
            # an untruncated twin is the same element in every model
            assert x == y and hash(x) == hash(y)
        assert model.metric(x, y) == truncation_distance(model, x, y)


def _first_failure(check, sampler, rng, n):
    for t in range(n):
        failure = check(sampler, rng, t)
        if failure is not None:
            return failure
    return None


def test_gh_approximation_and_covering():
    for check in (_check_approximate, _check_covering):
        assert _first_failure(check, _GH, spawn_rng(13, 0), 40) is None


class _KeepWhole(Model):
    """A wrong approximation: x itself, with S widened by x's whole trace."""

    def approximate_into_petal(self, x, s, r):
        return s.union(self.trace(x)), x


def test_approximation_check_refuses_trace_values_below_r():
    for sampler in (_F, _MAPS, _CPUM, _GH):
        assert _first_failure(_check_approximate, sampler, spawn_rng(0, 0), 200) is None
        mutant = dataclasses.replace(sampler, model=_KeepWhole(**vars(sampler.model)))
        assert _first_failure(_check_approximate, mutant, spawn_rng(0, 0), 200) is not None


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_pinned_pairings_and_suite_table():
    # fixed digests: a change to any generator's random stream, to the
    # order of draws, or to an extension's output changes them
    runs = (
        (back_and_forth(TrialConfig(seed=3, trials=10)),
         "b03064f4c14ca6f9b37d5a01e716d41958cb1fd9f3c102764f9401ec19c99161"),
        (ultrahomogeneity_demo(TrialConfig(seed=3, trials=10), subset_size=3),
         "5a8473c74eee6813df0287abab70c06c453a0a98c8d60978f8e34713c19cf652"),
    )
    for pairing, digest in runs:
        pairs = [[x.to_json() for x in pairing.left], [y.to_json() for y in pairing.right]]
        assert _sha256(pairs) == digest
    cfg = TrialConfig(seed=5, trials=40)
    table = {
        f"{model}/{spec.tag}": list(run_property(model, spec.name, cfg)[:2])
        for model, ops in SAMPLERS.items()
        for spec in ops.suite
    }
    assert _sha256(table) == "9547484525acc0459b6e1ecccea7dd346df0fc2289eca83087922ff091a9d763"


def test_pinned_generator_bytes():
    # the JSON of every generated space and pseudo-ultrametric, its twin,
    # its rebuilt dendrogram and its truncations at every pool scale; a
    # change to a generator's draws or to how an element is built from
    # its tree changes the digest
    rng = spawn_rng(20240811, 8)
    record = []
    for _ in range(300):
        for space in (gen_space(rng), gen_space(rng, max_points=8, pool=gen_range_set(rng))):
            x = GHPoint(space)
            record.append(space.to_json())
            tree = space.dendrogram()
            record.append(FiniteUltraSpace._from_tree(sorted(tree.leaves()), tree).to_json())
            record.append(_twin_gh(rng, x).to_json())
            record.extend(model_gh.truncate(x, u).to_json() for u in POOL)
        for d in (gen_cpum(rng), gen_cpum(rng, pool=gen_range_set(rng))):
            twin = _twin_cpum(rng, d)
            record.append(d.to_json())
            record.append(twin.to_json())
            record.append(_twin_cpum(rng, twin).to_json())
            record.extend(model_cpum.truncate(e, u).to_json() for e in (d, twin) for u in POOL)
    assert len(record) == 300 * (2 * (3 + 7) + 2 * (3 + 14))
    assert _sha256(record) == "49259fb273f4f3181599443026d9206369deeac7b894567c4b9db08ce2155e12"


def _halved_above_one(metric):
    def halved(x, y):
        d = metric(x, y)
        return d / 2 if d > 1 else d

    return halved


def test_pinned_failure_path():
    # against a broken model (distances above 1 halved, truncation the
    # identity) the suites fail; the digest pins every counterexample,
    # a raised exception's type and message among them.  The extension rows
    # pass: each request is checked with the record's halved metric, itself
    # an ultrametric, and not with the model module's own
    saved = [(m, m.metric, m.truncate) for m in MODELS.values()]
    try:
        for m, metric, _ in saved:
            object.__setattr__(m, "metric", _halved_above_one(metric))
            object.__setattr__(m, "truncate", lambda x, u: x)
        cfg = TrialConfig(seed=3, trials=60)
        table = {}
        for model, ops in SAMPLERS.items():
            for spec in ops.suite:
                table[f"{model}/{spec.tag}"] = list(run_property(model, spec.name, cfg))
    finally:
        for m, metric, truncate in saved:
            object.__setattr__(m, "metric", metric)
            object.__setattr__(m, "truncate", truncate)
    failed = [key for key, result in table.items() if not result[0]]
    assert len(table) == 42 and len(failed) == 13
    assert _sha256(table) == "a3a5e8e59fadb55bb9d970358a1a381ad57edf050051bc869809c7b7e3659a5d"


def _embed_f_by_hand(space, images):
    # the double loops of the two embedding checks before they shared one
    # copy check: reference oracles for the counterexample pair
    for a in space.labels:
        for b in space.labels:
            if model_f.delta(images[a], images[b]) != space.d(a, b):
                return {"space": space.to_json(), "pair": [a, b]}
    return None


def _cross_model_by_hand(space, f_images, m_images):
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


def _swapping(real, copies, rng):
    # a wrong copy: the images of two labels drawn by rng trade places;
    # each call's arguments and copy are kept for the reference loops
    def swapped(*args):
        images = dict(real(*args))
        labels = sorted(images)
        if len(labels) > 1:
            a, b = rng.sample(labels, 2)
            images[a], images[b] = images[b], images[a]
        copies.append((args, images))
        return images

    return swapped


def _own_first_miss(space, images, metric):
    order = sorted(space.labels)
    return next(
        ([a, b] for a in order for b in order if metric(images[a], images[b]) != space.d(a, b)), None
    )


def test_embedding_checks_report_first_missed_pair(monkeypatch):
    # every copy goes through Model.embed: the f check's copy is the last,
    # the cross-model check's f copy the second last and its maps copy the last
    swaps = spawn_rng(5, 0)
    copies = []
    monkeypatch.setattr(Model, "embed", _swapping(Model.embed, copies, swaps))
    rng = spawn_rng(5, 1)
    caught = 0
    for t in range(200):
        failure = petal_harness._check_embed_f(_F, rng, t)
        (_, space), f_images = copies[-1]
        assert failure == _embed_f_by_hand(space, f_images)
        caught += failure is not None
    assert caught > 50
    caught = split = 0
    for t in range(200):
        failure = petal_harness._check_cross_model(_MAPS, rng, t)
        ((f_model, space), f_images), ((m_model, _), m_images) = copies[-2], copies[-1]
        assert (f_model, m_model) == (F, _MAPS.model)
        assert failure == _cross_model_by_hand(space, f_images, m_images)
        if failure is None:
            continue
        caught += 1
        # each copy's own first miss; the earlier one in label order wins
        order = sorted(space.labels)
        own = [
            miss
            for miss in (
                _own_first_miss(space, f_images, model_f.delta),
                _own_first_miss(space, m_images, model_maps.nabla),
            )
            if miss is not None
        ]
        assert failure["pair"] == min(own, key=lambda pair: (order.index(pair[0]), order.index(pair[1])))
        split += len(own) == 2 and own[0] != own[1]
    assert caught > 50 and split > 20
