import dataclasses
import hashlib
import json

import pytest

from ultrapetal import model_f, model_maps
from ultrapetal.petal import MODELS, Model
from ultrapetal.petal_harness import (
    _CPUM,
    _F,
    _GH,
    _MAPS,
    SUITES,
    InvariantViolation,
    PartialIsometry,
    TrialConfig,
    _check_approximate,
    _check_covering,
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
from ultrapetal.umspace import validate


def test_config_validation():
    with pytest.raises(ValueError):
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
        validate(space.labels, space.dist)  # construction invariant
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
    pairing.append_checked(a, a, step=0)
    with pytest.raises(InvariantViolation) as err:
        pairing.append_checked(b, a, step=1)  # left moves, right does not
    assert err.value.step == 1


def test_ultrahomogeneity_demo_sizes():
    for size in [0, 1, 4]:
        pairing = ultrahomogeneity_demo(TrialConfig(seed=8, trials=5), subset_size=size)
        assert len(pairing) == size + 10
        pairing.verify()


def test_run_property_and_suite_consistency():
    cfg = TrialConfig(seed=2, trials=30)
    ok, n, failure = run_property("f", "metric-axioms", cfg)
    assert ok and n == 30 and failure is None
    ok, n, _ = run_property("gh", "oracle-agreement", cfg, trials=5)
    assert ok and n == 5
    with pytest.raises(KeyError):
        run_property("f", "no-such-property", cfg)
    with pytest.raises(ValueError, match="trials must be non-negative"):
        run_property("f", "metric-axioms", cfg, trials=-3)
    with pytest.raises(KeyError):
        run_axiom_suite("nope", cfg)


def test_every_registered_property_passes_briefly():
    cfg = TrialConfig(seed=3, trials=20)
    for model, specs in SUITES.items():
        for spec in specs:
            ok, _, failure = run_property(model, spec.name, cfg)
            assert ok, (model, spec.name, failure)


def test_suite_report_format_and_determinism():
    cfg = TrialConfig(seed=4, trials=20)
    report = run_axiom_suite("maps", cfg)
    lines = report.splitlines()
    assert lines[0].startswith("# axiom-suite model=maps seed=4 trials=20 generator=")
    assert len(lines) == 1 + len(SUITES["maps"])
    for line in lines[1:]:
        tag, name, verdict, trials = line.split()[:4]
        assert verdict == "PASS"
        assert trials.startswith("trials=")
    assert report == run_axiom_suite("maps", cfg)


def test_suite_dumps_counterexample_on_failure(tmp_path, monkeypatch):
    import ultrapetal.petal_harness as ph

    broken = ph.PropertySpec(
        "metric-axioms", "always_fails", 1.0,
        lambda rng, t: {"reason": "forced"},
    )
    monkeypatch.setitem(ph.SUITES, "f", (broken,))
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
    assert set(SUITES) == {"f", "maps", "cpum", "gh"}


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
        for model, specs in SUITES.items()
        for spec in specs
    }
    assert _sha256(table) == "9547484525acc0459b6e1ecccea7dd346df0fc2289eca83087922ff091a9d763"


def _halved_above_one(metric):
    def halved(x, y):
        d = metric(x, y)
        return d / 2 if d > 1 else d

    return halved


def test_pinned_failure_path():
    # against a broken model (distances above 1 halved, truncation the
    # identity) the suites fail; the digest pins every counterexample,
    # and every exception a property raises, by type and message
    saved = [(m, m.metric, m.truncate) for m in MODELS.values()]
    try:
        for m, metric, _ in saved:
            object.__setattr__(m, "metric", _halved_above_one(metric))
            object.__setattr__(m, "truncate", lambda x, u: x)
        cfg = TrialConfig(seed=3, trials=60)
        table = {}
        for model, specs in SUITES.items():
            for spec in specs:
                try:
                    table[f"{model}/{spec.tag}"] = list(run_property(model, spec.name, cfg))
                except Exception as err:
                    table[f"{model}/{spec.tag}"] = {"raised": type(err).__name__, "message": str(err)}
    finally:
        for m, metric, truncate in saved:
            object.__setattr__(m, "metric", metric)
            object.__setattr__(m, "truncate", truncate)
    failed = [key for key, result in table.items() if not (isinstance(result, list) and result[0])]
    assert len(table) == 42 and len(failed) == 15
    assert _sha256(table) == "3501bd9c84dee66c36a6d0c8d4341f9bc9e0ae63cb40f1d27c3121116fa020fc"
