"""Command-line front end: every operation on JSON files.

Exit codes: 0 success, 1 parse or validation failure, 2 inconsistent
extension request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import model_f, model_gh, petal_harness
from .extension import Inconsistent
from .model_gh import GHPoint
from .petal import MODELS
from .scales import RangeSet, as_scale, scale_str
from .umspace import FiniteUltraSpace, NotPositive, NotSymmetric, NotUltrametric


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_json(path: str):
    return _parse_json(Path(path).read_text(encoding="utf-8"))


def _load_space(path: str) -> FiniteUltraSpace:
    return FiniteUltraSpace.from_json(_read_json(path))


def _parse_range(text: str) -> RangeSet:
    return RangeSet.from_json(_parse_json(text))


def _parse_targets(text: str) -> list:
    data = _parse_json(text)
    if not isinstance(data, list):
        raise ValueError("targets must be a JSON array of scale strings")
    return [as_scale(t) for t in data]


def _default_seed() -> int:
    return int(os.environ.get("UMU_SEED", "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrapetal",
        description="Exact models of universal ultrametric spaces with petal structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a space file against the ultrametric axioms")
    p.add_argument("space", help="space JSON file")

    p = sub.add_parser("dist", help="distance between two elements of one model")
    p.add_argument("--model", required=True, choices=list(MODELS))
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("petal-dist", help="distance from an element to the petal of a range set")
    p.add_argument("--model", required=True, choices=list(MODELS))
    p.add_argument("element")
    p.add_argument("--range", required=True, dest="range_set",
                   help='range set as a JSON array, e.g. \'["0","1/2"]\'')
    p.add_argument("--witness", help="write the nearest petal member to this file")

    p = sub.add_parser("extend", help="one-point extension at prescribed distances")
    p.add_argument("--model", required=True,
                   choices=[name for name, model in MODELS.items() if model.extend])
    p.add_argument("anchors", help="JSON file holding an array of model elements")
    p.add_argument("--targets", required=True,
                   help='distances as a JSON array, e.g. \'["1/2","1"]\'')

    p = sub.add_parser("embed", help="embed a space into the support-map model")
    p.add_argument("space")

    p = sub.add_parser("na", help="non-Archimedean Gromov-Hausdorff distance of two spaces")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force ambient oracle (total size <= 6)")

    p = sub.add_parser("quotient", help="merge points at distance <= eps")
    p.add_argument("space")
    p.add_argument("--eps", required=True)

    p = sub.add_parser("canon", help="canonical isometry-class string of a space")
    p.add_argument("space")

    p = sub.add_parser("backforth", help="back-and-forth isometry run between the two function models")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=50)

    p = sub.add_parser("harness", help="run the axiom suite of one model")
    p.add_argument("--model", required=True, choices=list(MODELS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dump-dir", default=None,
                   help="directory for counterexample files (written only on failure)")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        try:
            _load_space(args.space)
        except (NotPositive, NotSymmetric, NotUltrametric) as err:
            print(str(err))
            return 1
        print("OK")
        return 0

    if args.command == "dist":
        model = MODELS[args.model]
        a, b = (model.from_json(_read_json(path)) for path in (args.a, args.b))
        print(scale_str(model.metric(a, b)))
        return 0

    if args.command == "petal-dist":
        model = MODELS[args.model]
        element = model.from_json(_read_json(args.element))
        value, witness = model.petal_distance(element, _parse_range(args.range_set))
        print(scale_str(value))
        if args.witness:
            Path(args.witness).write_text(json.dumps(witness.to_json(), indent=2) + "\n")
        return 0

    if args.command == "extend":
        model = MODELS[args.model]
        data = _read_json(args.anchors)
        if not isinstance(data, list):
            raise ValueError("anchors file must hold a JSON array of elements")
        anchors = [model.from_json(item) for item in data]
        theta = model.extend(anchors, _parse_targets(args.targets))
        print(json.dumps(theta.to_json(), indent=2))
        return 0

    if args.command == "embed":
        images = model_f.embed_space(_load_space(args.space))
        print(json.dumps({label: m.to_json() for label, m in images.items()}, indent=2))
        return 0

    if args.command == "na":
        x = GHPoint(_load_space(args.x))
        y = GHPoint(_load_space(args.y))
        value = model_gh.na_oracle(x, y) if args.oracle else model_gh.na_distance(x, y)
        print(scale_str(value))
        return 0

    if args.command == "quotient":
        space = _load_space(args.space)
        print(json.dumps(space.quotient(as_scale(args.eps)).to_json(), indent=2))
        return 0

    if args.command == "canon":
        print(_load_space(args.space).canonical_form())
        return 0

    if args.command == "backforth":
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = petal_harness.TrialConfig(seed=seed, trials=args.trials)
        sys.stdout.write(petal_harness.backforth_report(cfg))
        return 0

    if args.command == "harness":
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = petal_harness.TrialConfig(seed=seed, trials=args.trials)
        report = petal_harness.run_axiom_suite(args.model, cfg, dump_dir=args.dump_dir)
        sys.stdout.write(report)
        return 0 if " FAIL " not in report else 1

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Inconsistent as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
