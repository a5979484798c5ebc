"""The three workloads: fixed, seeded op lists with a check for every op.

An op is one call into the package's public surface.  ``run`` is the timed
call and returns its raw output; ``check`` runs untimed after the pass and
returns ``None`` or the reason the output is wrong.  Checks use the code in
``spacegen`` and never the package's own metrics, validation or quotients.
Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import spacegen as sg

# ROADMAP item 5 inputs that the CLI must reject with exit 1.  At the commit
# that introduced this benchmark each of them is accepted or ends in a
# traceback; they stay in the op list and count as failed until fixed.
KNOWN_DEFECTS = (
    "spaces-cli/malformed-float-distance",
    "spaces-cli/malformed-bool-distance",
    "spaces-cli/malformed-string-points",
    "spaces-cli/malformed-support-entry",
    "spaces-cli/malformed-cpum-dist",
)


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name: str, run, check):
        self.name = name
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# axioms: every property of every suite through run_property

AXIOM_PROPERTIES = {
    "f": (
        "metric-axioms", "max-disagreement-law", "piece-valuedness-P1",
        "petal-union-P2", "petal-intersection-P3", "petal-distance-membership-P4",
        "petal-distance-formula", "trace-tail-agreement", "one-point-extension",
        "finite-embedding", "covering-petal", "petal-approximation",
    ),
    "maps": (
        "metric-axioms", "canonical-merge", "piece-valuedness-P1",
        "petal-union-P2", "petal-intersection-P3", "petal-distance-membership-P4",
        "petal-distance-formula", "trace-tail-agreement", "one-point-extension",
        "cross-model-embedding", "covering-petal", "petal-approximation",
    ),
    "cpum": (
        "metric-axioms", "truncation-witness", "piece-valuedness-P1",
        "petal-union-P2", "petal-intersection-P3", "petal-distance-membership-P4",
        "trace-tail-agreement", "covering-petal", "petal-approximation",
    ),
    "gh": (
        "metric-axioms", "oracle-agreement", "quotient-contraction",
        "piece-valuedness-P1", "petal-union-P2", "petal-intersection-P3",
        "petal-distance-membership-P4", "petal-distance-formula",
        "trace-tail-agreement",
    ),
}
AXIOM_SEEDS = 12
AXIOM_TRIALS = (20, 61)


def axioms(seed: int, pkg, workdir: Path) -> list[Op]:
    ph = pkg.petal_harness
    rng = random.Random(seed)
    harness_seeds = [rng.randrange(1 << 31) for _ in range(AXIOM_SEEDS)]
    ops = []
    for model, tags in AXIOM_PROPERTIES.items():
        for k, tag in enumerate(tags):
            trials_list = sg.spread(AXIOM_SEEDS, *AXIOM_TRIALS, sg.phase(k))
            rng.shuffle(trials_list)
            for hseed, trials in zip(harness_seeds, trials_list):
                cfg = ph.TrialConfig(seed=hseed, trials=trials)
                ops.append(Op(
                    f"axioms/{model}/{tag}/seed={hseed}/trials={trials}",
                    lambda m=model, t=tag, c=cfg: ph.run_property(m, t, c),
                    _check_property,
                ))
    rng.shuffle(ops)
    return ops


def _check_property(out, outputs):
    passed, trials, failure = out
    if not passed or failure is not None or trials < 1:
        return f"property did not PASS: trials={trials} counterexample={failure}"
    return None


# ---------------------------------------------------------------------------
# backforth: back-and-forth chains and homogeneity extensions

BACKFORTH_RUNS = 72
HOMOGENEITY_RUNS = 24
CHAIN_TRIALS = (5, 52)   # up to 50 rounds: criterion 7's 100 pairs
SPOT_PAIRS = 40


def backforth(seed: int, pkg, workdir: Path) -> list[Op]:
    ph = pkg.petal_harness
    rng = random.Random(seed)
    ops = []
    for trials in sg.spread(BACKFORTH_RUNS, *CHAIN_TRIALS):
        cfg = ph.TrialConfig(seed=rng.randrange(1 << 31), trials=trials)
        ops.append(Op(
            f"backforth/back-and-forth/seed={cfg.seed}/trials={trials}",
            lambda c=cfg: ph.back_and_forth(c),
            _pairing_check(2 * trials, "support", "cells", random.Random(cfg.seed)),
        ))
    for k, trials in enumerate(sg.spread(HOMOGENEITY_RUNS, *CHAIN_TRIALS, sg.phase(1))):
        cfg = ph.TrialConfig(seed=rng.randrange(1 << 31), trials=trials)
        subset = k % 6
        ops.append(Op(
            f"backforth/homogeneity/seed={cfg.seed}/trials={trials}/subset={subset}",
            lambda c=cfg, s=subset: ph.ultrahomogeneity_demo(c, subset_size=s),
            _pairing_check(subset + 2 * trials, "support", "support", random.Random(cfg.seed)),
        ))
    rng.shuffle(ops)
    return ops


_METRIC = {"support": sg.top_disagreement, "cells": sg.top_cell_disagreement}


def _pairing_check(size: int, left_key: str, right_key: str, rng: random.Random):
    picks = None

    def check(pairing, outputs):
        nonlocal picks
        if len(pairing.left) != size or len(pairing.right) != size:
            return f"pairing has {len(pairing.left)}/{len(pairing.right)} pairs, expected {size}"
        if picks is None:
            picks = [tuple(rng.sample(range(size), 2)) for _ in range(SPOT_PAIRS if size > 1 else 0)]
        for i, j in picks:
            lhs = _METRIC[left_key](pairing.left[i].to_json()[left_key], pairing.left[j].to_json()[left_key])
            rhs = _METRIC[right_key](pairing.right[i].to_json()[right_key], pairing.right[j].to_json()[right_key])
            if lhs != rhs:
                return f"pair ({i},{j}) not isometric: {lhs} != {rhs}"
        return None

    return check


# ---------------------------------------------------------------------------
# spaces-cli: in-process CLI requests over files written at set-up

def run_cli(cli, argv: list[str]):
    """``cli.main`` with captured output; a SystemExit becomes its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _memo(check):
    """Re-run a CLI check only when the output differs from the last one accepted."""
    accepted = None

    def memo(out, outputs):
        nonlocal accepted
        if out == accepted:
            return None
        err = check(out, outputs)
        if err is None:
            accepted = out
        return err

    return memo


def _expect(code: int, stdout: str | None = None):
    def check(out, outputs):
        if out[0] != code:
            return f"exit {out[0]}, expected {code}: {(out[1] + out[2]).strip()[:200]}"
        if stdout is not None and out[1] != stdout:
            return f"stdout {out[1][:200]!r}, expected {stdout!r}"
        return None

    return check


def _expect_scale(value: Fraction):
    def check(out, outputs):
        if out[0] != 0:
            return f"exit {out[0]}: {out[2].strip()[:200]}"
        if Fraction(out[1].strip()) != value:
            return f"printed {out[1].strip()}, expected {value}"
        return None

    return check


class SpacesCli:
    """Makes the op list for one seed: sizes, files and expected answers."""

    # (count, n range) per request kind; n follows a geometric grid over the
    # range with a phase of its own per kind, so the kinds' sizes interleave
    # and no size class boundary sits at the median or the tail op
    MIX = {
        "validate": (14, (12, 73)),
        "validate-chain": (4, (12, 61)),
        "validate-broken": (4, (12, 61)),
        "canon": (4, (12, 61)),
        "quotient": (8, (12, 73)),
        "na-permuted": (6, (12, 57)),
        "na-quotient": (6, (12, 57)),
        "na-chain": (4, (10, 37)),
        "embed": (6, (12, 61)),
        "embed-chain": (2, (10, 41)),
        "petal-dist": (8, (12, 73)),
    }

    def __init__(self, seed: int, pkg, workdir: Path):
        self.cli = pkg.cli
        self.rng = random.Random(seed)
        self.dir = workdir
        self.count = 0
        self.ops: list[Op] = []

    def file(self, labels, rows) -> str:
        self.count += 1
        return sg.write_json(self.dir / f"s{self.count:03d}.json", sg.space_json(labels, rows))

    def op(self, name: str, argv: list[str], check) -> str:
        """Add one request; returns its op name, made unique with a ``#k`` suffix."""
        name = f"spaces-cli/{name}"
        if any(op.name == name for op in self.ops):
            name += f"#{len(self.ops)}"
        self.ops.append(Op(name, lambda: run_cli(self.cli, argv), check))
        return name

    def space(self, kind: str, n: int):
        rows = sg.chain_rows(self.rng, n) if kind == "chain" else sg.dendrogram_rows(self.rng, n)
        return [f"x{i}" for i in range(n)], rows

    def build(self) -> list[Op]:
        rng = self.rng
        sizes = {kind: sg.spread(count, *span, sg.phase(k))
                 for k, (kind, (count, span)) in enumerate(self.MIX.items())}
        for n in sizes["validate"]:
            self._validate(f"validate/n={n}", *self.space("random", n))
        for n in sizes["validate-chain"]:
            self._validate(f"validate-chain/n={n}", *self.space("chain", n))
        for n in sizes["validate-broken"]:
            labels, rows = self.space("random", n)
            self._validate(f"validate-broken/n={n}", labels, sg.break_entry(rng, rows))
        for k, n in enumerate(sizes["canon"]):
            self._canon(f"canon/n={n}", *self.space("chain" if k % 2 else "random", n))
        for n in sizes["quotient"]:
            labels, rows = self.space("random", n)
            eps = rng.choice(sg.spectrum(rows))
            path = self.file(labels, rows)
            self.op(f"quotient/n={n}", ["quotient", path, "--eps", str(eps)],
                    _memo(_quotient_check(labels, rows, eps)))
        for n in sizes["na-permuted"]:
            labels, rows = self.space("random", n)
            other = sg.permuted(rng, labels, rows, "y")
            self.op(f"na-permuted/n={n}", ["na", self.file(labels, rows), self.file(*other)],
                    _expect_scale(sg.ZERO))
        for kind, name in (("random", "na-quotient"), ("chain", "na-chain")):
            for n in sizes[name]:
                labels, rows = self.space(kind, n)
                spec = sg.spectrum(rows)
                # a scale in the upper part of the spectrum, below the diameter:
                # the scan visits most candidates before the quotients match
                lo = len(spec) // 2
                eps = spec[rng.randrange(lo, max(lo + 1, len(spec) - 1))]
                q = sg.quotient_rows(labels, rows, eps)
                self.op(f"{name}/n={n}", ["na", self.file(labels, rows), self.file(*q)],
                        _expect_scale(eps))
        for kind, name in (("random", "embed"), ("chain", "embed-chain")):
            for n in sizes[name]:
                labels, rows = self.space(kind, n)
                self.op(f"{name}/n={n}", ["embed", self.file(labels, rows)],
                        _memo(_embed_check(labels, rows)))
        for n in sizes["petal-dist"]:
            labels, rows = self.space("random", n)
            spec = sg.spectrum(rows)
            keep = [v for v in spec if rng.random() < 0.5]
            outside = [v for v in spec if v not in keep]
            self.op(f"petal-dist/n={n}",
                    ["petal-dist", "--model", "gh", self.file(labels, rows),
                     "--range", json.dumps(["0"] + [str(v) for v in keep])],
                    _expect_scale(max(outside, default=sg.ZERO)))
        self._malformed()
        rng.shuffle(self.ops)
        return self.ops

    def _validate(self, name: str, labels, rows) -> None:
        path = self.file(labels, rows)

        def check(out, outputs):
            bad = sg.ultrametric_violation(rows)
            if bad is None:
                return _expect(0, "OK\n")(out, outputs)
            if out[0] != 1:
                return f"exit {out[0]} on a matrix violating at {bad}"
            if not sg.named_triple_violates(out[1], labels, rows):
                return f"rejection does not name a violating triple: {out[1].strip()[:200]}"
            return None

        self.op(name, ["validate", path], _memo(check))

    def _canon(self, name: str, labels, rows) -> None:
        """Three requests: the space, a permuted copy (same answer), a perturbed one (different)."""
        base = self.op(f"{name}/base", ["canon", self.file(labels, rows)], _expect(0))

        def relation(equal: bool, message: str):
            def check(out, outputs):
                ref = outputs.get(base)
                if ref is None or ref[0] != 0:
                    return "the unperturbed request failed"
                return _expect(0)(out, outputs) or (None if (out[1] == ref[1]) == equal else message)

            return check

        self.op(f"{name}/permuted", ["canon", self.file(*sg.permuted(self.rng, labels, rows, "y"))],
                relation(True, "permuted copy has another canonical form"))
        self.op(f"{name}/perturbed", ["canon", self.file(labels, sg.shrink_smallest(rows))],
                relation(False, "non-isometric copy has the same canonical form"))

    def _malformed(self) -> None:
        two = [["0", "1"], ["1", "0"]]
        cases = {
            "malformed-float-distance": ["validate", {"points": ["a", "b"], "dist": [[0, 0.1], [0.1, 0]]}],
            "malformed-bool-distance": ["validate", {"points": ["a", "b"], "dist": [[0, True], [True, 0]]}],
            "malformed-string-points": ["validate", {"points": "ab", "dist": two}],
            "malformed-support-entry": ["dist", "--model", "f", {"support": [5]}, {"support": [["1", 1]]}],
            "malformed-cpum-dist": ["dist", "--model", "cpum", {"cells": ["0", "1"], "dist": 5},
                                    {"cells": [""], "dist": [["0"]]}],
        }
        for name, argv in cases.items():
            files = []
            for item in argv:
                if isinstance(item, dict):
                    self.count += 1
                    item = sg.write_json(self.dir / f"m{self.count:03d}.json", item)
                files.append(item)
            self.op(name, files, _expect(1))


def _quotient_check(labels, rows, eps):
    def check(out, outputs):
        if out[0] != 0:
            return f"exit {out[0]}: {out[2].strip()[:200]}"
        data = json.loads(out[1])
        index = {lab: i for i, lab in enumerate(labels)}
        got = [sorted(index[m] for m in cls.split("+")) for cls in data["points"]]
        want = sorted(sorted(c) for c in sg.closed_balls(rows, eps))
        if sorted(got) != want:
            return "quotient classes are not the closed eps-balls"
        for a, ca in enumerate(got):
            for b, cb in enumerate(got):
                if Fraction(data["dist"][a][b]) != (sg.ZERO if a == b else rows[ca[0]][cb[0]]):
                    return f"quotient distance wrong at ({a},{b})"
        return None

    return check


def _embed_check(labels, rows):
    def check(out, outputs):
        if out[0] != 0:
            return f"exit {out[0]}: {out[2].strip()[:200]}"
        images = json.loads(out[1])
        if sorted(images) != sorted(labels):
            return "embedding does not map every point"
        for i, a in enumerate(labels):
            for j in range(i + 1, len(labels)):
                got = sg.top_disagreement(images[a]["support"], images[labels[j]]["support"])
                if got != rows[i][j]:
                    return f"d({a},{labels[j]}) embeds as {got}, expected {rows[i][j]}"
        return None

    return check


def spaces_cli(seed: int, pkg, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return SpacesCli(seed, pkg, workdir).build()


WORKLOADS = {"axioms": axioms, "backforth": backforth, "spaces-cli": spaces_cli}

# layers each workload must reach; a traced run that records no call in one
# of them fails instead of reporting a blind trace
EXPECTED_LAYERS = {
    "axioms": ("scales", "cells", "umspace", "extension", "model_f", "model_maps",
               "model_cpum", "model_gh", "petal_harness"),
    "backforth": ("scales", "cells", "extension", "model_f", "model_maps", "petal_harness"),
    "spaces-cli": ("scales", "umspace", "extension", "model_f", "model_gh", "cli"),
}
