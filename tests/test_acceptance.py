"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (rational arithmetic, zero tolerance).  The two
timed criteria assert their wall-clock budgets.  Run with ``pytest -s``
to see the verdict lines as they happen.
"""

import time

from ultrapetal.petal import MODELS
from ultrapetal.petal_harness import (
    InvariantViolation,
    TrialConfig,
    back_and_forth,
    run_axiom_suite,
    run_property,
    ultrahomogeneity_demo,
)

SEED = 20240811


def _verdict(number: int, label: str, ok: bool, extra: str = "") -> None:
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_metric_axioms():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    plan = [("f", 10_000), ("maps", 10_000), ("cpum", 10_000), ("gh", 1_000)]
    start = time.perf_counter()
    failures = []
    for model, trials in plan:
        ok, n, failure = run_property(model, "metric-axioms", cfg)
        assert n == trials
        if not ok:
            failures.append((model, failure))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    _verdict(1, "metric axioms (delta, nabla, ud, na)", ok, f"{elapsed:.1f}s < 60s")
    assert not failures, failures
    assert elapsed < 60


def test_criterion_2_max_disagreement_law():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    ok, trials, failure = run_property("f", "max-disagreement-law", cfg)
    assert trials == 10_000
    _verdict(2, "top-disagreement law, both directions", ok, f"{trials} pairs")
    assert ok, failure


def test_criterion_3_petaloid_axioms():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    formula_line = {
        "f": "petal-distance-formula",
        "maps": "petal-distance-formula",
        "cpum": "truncation-witness",
        "gh": "petal-distance-formula",
    }
    failures = []
    for model in ("f", "maps", "cpum", "gh"):
        for prop in (
            "petal-intersection-P3",
            "petal-distance-membership-P4",
            formula_line[model],
        ):
            ok, n, failure = run_property(model, prop, cfg)
            assert n == 1_000
            if not ok:
                failures.append((model, prop, failure))
    _verdict(3, "petaloid axioms P3/P4 + petal-distance formula, witness, optimality", not failures)
    assert not failures, failures


def test_criterion_4_trace_tail_agreement():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    failures = []
    for model in ("f", "maps", "cpum", "gh"):
        ok, n, failure = run_property(model, "trace-tail-agreement", cfg)
        assert n == 1_000
        if not ok:
            failures.append((model, failure))
    _verdict(4, "traces agree strictly above the distance", not failures)
    assert not failures, failures


def test_criterion_5_one_point_extension():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    failures = []
    models = [m.name for m in MODELS.values() if m.place]  # every model with a placement
    assert models
    for model in models:
        ok, n, failure = run_property(model, "one-point-extension", cfg)
        assert n == 1_000
        if not ok:
            failures.append((model, failure))
    _verdict(5, "one-point extension exactness, petal preservation, rejection", not failures)
    assert not failures, failures


def test_criterion_6_finite_embedding():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    ok, trials, failure = run_property("f", "finite-embedding", cfg)
    assert trials == 1_000
    _verdict(6, "finite spaces embed with exact matrices", ok, f"{trials} spaces <= 10 points")
    assert ok, failure


def test_criterion_7_back_and_forth_and_homogeneity():
    start = time.perf_counter()
    failures = []
    for seed in range(100):
        try:
            pairing = back_and_forth(TrialConfig(seed=seed, trials=50))
            if len(pairing) != 100:
                failures.append((seed, "wrong size"))
        except InvariantViolation as err:
            failures.append((seed, str(err)))
    for seed in range(100):
        try:
            ultrahomogeneity_demo(
                TrialConfig(seed=seed, trials=10), subset_size=seed % 6
            )
        except InvariantViolation as err:
            failures.append((seed, str(err)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120
    _verdict(
        7,
        "back-and-forth and homogeneity runs, 100 seeds each",
        ok,
        f"{elapsed:.1f}s < 120s",
    )
    assert not failures, failures[:3]
    assert elapsed < 120


def test_criterion_8_oracle_gate():
    cfg = TrialConfig(seed=SEED, trials=10_000)
    ok_oracle, pairs, failure = run_property("gh", "oracle-agreement", cfg)
    ok_quot, n, failure_q = run_property("gh", "quotient-contraction", cfg)
    assert (pairs, n) == (500, 1_000)
    ok = ok_oracle and ok_quot
    _verdict(8, "quotient scan equals ambient oracle; quotients stay within eps", ok,
             f"exhaustive corpus + {pairs} random pairs")
    assert ok_oracle, failure
    assert ok_quot, failure_q


def test_criterion_9_report_determinism():
    cfg = TrialConfig(seed=SEED, trials=300)

    def full_run() -> bytes:
        return "".join(
            run_axiom_suite(model, cfg) for model in ("f", "maps", "cpum", "gh")
        ).encode()

    first = full_run()
    second = full_run()
    ok = first == second and b" FAIL " not in first
    _verdict(9, "full harness report byte-identical across runs", ok, f"{len(first)} bytes")
    assert first == second
    assert b" FAIL " not in first
