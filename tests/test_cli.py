import dataclasses
import io
import itertools
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from injection import extending

from ultrapetal import cli, petal_harness
from ultrapetal.cli import main
from ultrapetal.extension import Inconsistent
from ultrapetal.petal import F, MAPS, MODELS
from ultrapetal.scales import ZERO, as_scale
from ultrapetal.model_f import SupportMap, delta
from ultrapetal.model_maps import CantorFunction
from ultrapetal.umspace import FiniteUltraSpace

SPACE = {
    "points": ["a", "b", "c"],
    "dist": [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]],
}


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(SPACE))
    return str(path)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(space_file, capsys):
    assert main(["validate", space_file]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_validate_reports_violation(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {
        "points": ["a", "b", "c"],
        "dist": [["0", "1/2", "1"], ["1/2", "0", "1/4"], ["1", "1/4", "0"]],
    })
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "strong triangle" in out


def test_validate_missing_file_exits_one(capsys):
    assert main(["validate", "/nonexistent/空.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dist_models(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"support": [["1", 2], ["1/2", 1]]})
    b = write(tmp_path, "b.json", {"support": [["1", 2], ["1/2", 3]]})
    assert main(["dist", "--model", "f", a, b]) == 0
    assert capsys.readouterr().out == "1/2\n"

    fa = write(tmp_path, "fa.json", {"cells": [["0", "1/2"], ["1", "0"]]})
    fb = write(tmp_path, "fb.json", {"cells": [["0", "1/4"], ["1", "0"]]})
    assert main(["dist", "--model", "maps", fa, fb]) == 0
    assert capsys.readouterr().out == "1/2\n"

    da = write(tmp_path, "da.json", {"cells": ["0", "1"], "dist": [["0", "1"], ["1", "0"]]})
    db = write(tmp_path, "db.json", {"cells": ["0", "1"], "dist": [["0", "1/2"], ["1/2", "0"]]})
    assert main(["dist", "--model", "cpum", da, db]) == 0
    assert capsys.readouterr().out == "1\n"


def test_dist_gh_matches_na(tmp_path, space_file, capsys):
    pair = write(tmp_path, "pair.json", {"points": ["p", "q"], "dist": [["0", "1"], ["1", "0"]]})
    assert main(["na", space_file, pair]) == 0
    expected = capsys.readouterr().out
    assert main(["dist", "--model", "gh", space_file, pair]) == 0
    assert capsys.readouterr().out == expected == "1/2\n"


# malformed inputs whose message is checked exactly as well
NAMED_FAULTS = {
    "repeated-prefix": (
        ["dist", "--model", "maps", {"cells": [["0", "1"], ["0", "0"], ["1", "0"]]}, {"cells": [["", "0"]]}],
        "duplicate cell prefix '0'",
    ),
    "string-cells": (
        ["dist", "--model", "cpum", {"cells": "01", "dist": [["0"]]}, {"cells": [""], "dist": [["0"]]}],
        "cells must be a JSON array of binary strings",
    ),
    # the label checks run inside check_matrix, ahead of the matrix's own
    "no-points": (["validate", {"points": [], "dist": []}], "a space needs at least one point"),
}


@pytest.mark.parametrize("argv", [
    ["validate", {"points": ["a", "b"], "dist": [[0, 0.1], [0.1, 0]]}],
    ["validate", {"points": ["a", "b"], "dist": [[0, True], [True, 0]]}],
    ["validate", {"points": "ab", "dist": [["0", "1"], ["1", "0"]]}],
    ["dist", "--model", "f", {"support": [5]}, {"support": [["1", 1]]}],
    ["dist", "--model", "cpum", {"cells": ["0", "1"], "dist": 5}, {"cells": [""], "dist": [["0"]]}],
    ["validate", {"points": [None, "a"], "dist": [["0", "1"], ["1", "0"]]}],
    ["dist", "--model", "maps", {"cells": [[10, "1"], [11, "0"], [0, "1"]]}, {"cells": [["", "0"]]}],
    ["dist", "--model", "cpum", {"cells": [0, 1], "dist": [["0", "1"], ["1", "0"]]}, {"cells": [""], "dist": [["0"]]}],
    ["validate", {"dist": []}],
    ["validate", {"points": ["a", "b"], "dist": [["0"], ["1"]]}],
    ["petal-dist", "--model", "f", {"support": []}, "--range", "[" * 100_000],
    ["dist", "--model", "maps", {"cells": [["", "0/0"]]}, {"cells": [["", "0"]]}],
    ["dist", "--model", "f", {"support": [["1e999999999", 1]]}, {"support": []}],
    ["validate", {"points": ["a", "b"], "dist": [["0", "1_0"], ["1_0", "0"]]}],
    ["dist", "--model", "maps", {"cells": [["0", "\uff11"], ["1", "0"]]}, {"cells": [["", "0"]]}],
    ["petal-dist", "--model", "f", {"support": []}, "--range", '["0", "1e3"]'],
    ["extend", "--model", "f", [{"support": []}], "--targets", '["+1"]'],
    ["quotient", SPACE, "--eps", " 1/2"],
    *(argv for argv, _ in NAMED_FAULTS.values()),
], ids=["float-distance", "bool-distance", "string-points", "support-entry", "cpum-dist",
        "null-label", "number-prefixes", "number-cells", "missing-points", "two-by-one",
        "deep-range", "zero-denominator", "exponent-scale", "underscore-scale",
        "fullwidth-scale", "exponent-range", "signed-targets", "space-eps", *NAMED_FAULTS])
def test_malformed_input_exits_one(tmp_path, capsys, argv):
    # an exception escaping main would be a traceback at the command line;
    # only validate's axiom verdicts belong on stdout
    args = [write(tmp_path, f"in{k}.json", a) if isinstance(a, (dict, list)) else a
            for k, a in enumerate(argv)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, message", NAMED_FAULTS.values(), ids=list(NAMED_FAULTS))
def test_malformed_input_names_its_fault(tmp_path, capsys, argv, message):
    args = [write(tmp_path, f"in{k}.json", a) if isinstance(a, (dict, list)) else a
            for k, a in enumerate(argv)]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["extend", "--model", "gh", "a.json", "--targets", "[]"],
    ["dist", "--model", "nope", "a", "b"],
    ["harness", "--model", "f", "--trials", "x"],
], ids=["model-without-extension", "unknown-model", "non-integer-trials"])
def test_usage_error_exits_one(capsys, argv):
    # argparse exits 2 on its own; 2 is kept for an inconsistent extension request
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ultrapetal ") and "error: argument " in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ultrapetal ")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_request(tmp_path, space_file, monkeypatch):
    # the parser is built once per process; a usage error, a help page and
    # every subcommand through it read exactly as through a fresh parser
    element = write(tmp_path, "x.json", {"support": [["1", 1], ["1/3", 2]]})
    anchors = write(tmp_path, "anchors.json", [{"support": []}, {"support": [["1", 1]]}])
    requests = [
        ["dist", "--model", "nope", "a", "b"],
        ["--help"],
        ["validate", space_file],
        ["dist", "--model", "f", element, element],
        ["petal-dist", "--model", "f", element, "--range", '["0","1"]'],
        ["extend", "--model", "f", anchors, "--targets", '["1/2","1"]'],
        ["embed", space_file],
        ["na", space_file, space_file],
        ["quotient", space_file, "--eps", "1/2"],
        ["canon", space_file],
        ["backforth", "--seed", "5", "--trials", "3"],
        ["harness", "--model", "cpum", "--seed", "5", "--trials", "5"],
        ["quotient", "--help"],
        [],
        ["harness", "--model", "f", "--trials", "x"],
        ["extend", "--model", "f", anchors, "--targets", '["1/4","1/4"]'],
    ]
    cached = [_run(argv) for argv in requests]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [_run(argv) for argv in requests] == cached
    assert [code for code, _, _ in cached] == [1] + [0] * 12 + [1, 1, 2]


def test_petal_dist_with_witness(tmp_path, capsys):
    element = write(tmp_path, "x.json", {"support": [["1", 1], ["1/3", 2]]})
    witness_path = tmp_path / "w.json"
    code = main([
        "petal-dist", "--model", "f", element,
        "--range", '["0","1"]', "--witness", str(witness_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == "1/3\n"
    witness = SupportMap.from_json(json.loads(witness_path.read_text()))
    assert witness == SupportMap({"1": 1})


def test_petal_dist_unwritable_witness_prints_nothing(tmp_path, capsys):
    # the witness is written before the value is printed, so a failed
    # write leaves stdout empty
    element = write(tmp_path, "x.json", {"support": [["1", 1], ["1/3", 2]]})
    code = main([
        "petal-dist", "--model", "f", element,
        "--range", '["0","1"]', "--witness", str(tmp_path / "missing" / "w.json"),
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_petal_dist_gh(tmp_path, space_file, capsys):
    witness_path = tmp_path / "ghw.json"
    code = main([
        "petal-dist", "--model", "gh", space_file,
        "--range", '["0","1"]', "--witness", str(witness_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == "1/2\n"
    witness = FiniteUltraSpace.from_json(json.loads(witness_path.read_text()))
    assert witness.labels == ("a+b", "c")


def test_extend_and_inconsistent_exit(tmp_path, capsys):
    anchors = write(tmp_path, "anchors.json", [
        {"support": []},
        {"support": [["1", 1]]},
    ])
    assert main(["extend", "--model", "f", anchors, "--targets", '["1/2","1"]']) == 0
    theta = SupportMap.from_json(json.loads(capsys.readouterr().out))
    assert theta == SupportMap({"1/2": 1})

    assert main(["extend", "--model", "f", anchors, "--targets", '["1/4","1/4"]']) == 2
    assert "error:" in capsys.readouterr().err


def test_extend_maps(tmp_path, capsys):
    anchors = write(tmp_path, "anchors.json", [{"cells": [["", "0"]]}])
    assert main(["extend", "--model", "maps", anchors, "--targets", '["1/2"]']) == 0
    theta = CantorFunction.from_json(json.loads(capsys.readouterr().out))
    assert theta == CantorFunction({"0": "1/2", "1": "0"})


def test_embed_round_trip(space_file, capsys):
    assert main(["embed", space_file]) == 0
    images = {
        label: SupportMap.from_json(entry)
        for label, entry in json.loads(capsys.readouterr().out).items()
    }
    space = FiniteUltraSpace.from_json(SPACE)
    for a in space.labels:
        for b in space.labels:
            assert delta(images[a], images[b]) == space.d(a, b)


def test_na_and_oracle(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"points": ["p", "q"], "dist": [["0", "1/4"], ["1/4", "0"]]})
    y = write(tmp_path, "y.json", {"points": ["u", "v"], "dist": [["0", "1"], ["1", "0"]]})
    assert main(["na", x, y]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["na", x, y, "--oracle"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_quotient_output_reparses(space_file, capsys):
    assert main(["quotient", space_file, "--eps", "1/2"]) == 0
    result = FiniteUltraSpace.from_json(json.loads(capsys.readouterr().out))
    assert result.labels == ("a+b", "c")


def test_quotient_label_collision_exits_one(tmp_path, capsys):
    # the class {a+b, c} and the class {a, b+c} are both named a+b+c
    space = write(tmp_path, "plus.json", {
        "points": ["a+b", "c", "a", "b+c"],
        "dist": [["0", "1/2", "1", "1"], ["1/2", "0", "1", "1"],
                 ["1", "1", "0", "1/2"], ["1", "1", "1/2", "0"]],
    })
    assert main(["quotient", space, "--eps", "1/2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: quotient class labels collide; avoid '+' in point labels\n"


def test_canon_invariant_under_relabeling(tmp_path, space_file, capsys):
    assert main(["canon", space_file]) == 0
    first = capsys.readouterr().out
    relabeled = write(tmp_path, "relabeled.json", {
        "points": ["z", "y", "x"],
        "dist": [["0", "1", "1"], ["1", "0", "1/2"], ["1", "1/2", "0"]],
    })
    assert main(["canon", relabeled]) == 0
    assert capsys.readouterr().out == first


def test_backforth_and_harness_reports(capsys):
    assert main(["backforth", "--seed", "5", "--trials", "3"]) == 0
    first = capsys.readouterr().out
    assert "PASS" in first
    assert main(["backforth", "--seed", "5", "--trials", "3"]) == 0
    assert capsys.readouterr().out == first

    assert main(["harness", "--model", "cpum", "--seed", "5", "--trials", "10"]) == 0
    report = capsys.readouterr().out
    assert report.startswith("# axiom-suite model=cpum seed=5 trials=10")
    assert " FAIL " not in report


def test_harness_failure_exit_code_and_dump(tmp_path, capsys, monkeypatch):
    import ultrapetal.petal_harness as ph

    broken = ph.PropertySpec(
        "metric-axioms", "always_fails", 1.0,
        lambda ops, rng, t: {"reason": "forced"},
    )
    monkeypatch.setitem(ph.SAMPLERS, "f", dataclasses.replace(ph._F, suite=(broken,)))
    code = main([
        "harness", "--model", "f", "--seed", "1", "--trials", "5",
        "--dump-dir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert " FAIL " in out
    assert (tmp_path / "f_always_fails.json").exists()


def test_backforth_failure_exit_code(capsys, monkeypatch):
    def broken(cfg):
        raise petal_harness.InvariantViolation(3, (0, 2))

    monkeypatch.setattr(petal_harness, "back_and_forth", broken)
    assert main(["backforth", "--seed", "1", "--trials", "5"]) == 1
    out = capsys.readouterr().out
    assert " FAIL " in out and "step=3 pair=(0, 2)" in out


def test_backforth_rejected_extension_is_a_fail_line(capsys, monkeypatch):
    # an extension rejecting the distances of a real point is a broken
    # operator: a FAIL line naming the step, not an "inconsistent request"
    def rejecting(anchors, targets):
        if len(anchors) >= 2:
            raise Inconsistent(0, 1)
        return MAPS.extend(anchors, targets)

    monkeypatch.setattr(petal_harness, "_MAPS", extending(petal_harness._MAPS, rejecting))
    assert main(["backforth", "--seed", "1", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert " FAIL " in captured.out and "step=2 pair=(0, 1)" in captured.out
    assert captured.err == ""


def _placing_at_anchor(anchors, want, m, i):
    # a broken placement: the new point lands on anchor i*, so a request
    # with no zero target is rejected, naming the first missed target twice
    return anchors[i]


def test_harness_rejected_realisable_request_is_a_fail_line(capsys, monkeypatch):
    # the extension and embedding checks ask for the distances of real
    # points, so a rejection is a broken operator: a FAIL line, not exit 2
    sampler = dataclasses.replace(petal_harness._MAPS, model=dataclasses.replace(MAPS, place=_placing_at_anchor))
    monkeypatch.setitem(petal_harness.SAMPLERS, "maps", sampler)
    cfg = petal_harness.TrialConfig(seed=7, trials=50)
    ok, n, failure = petal_harness.run_property("maps", "one-point-extension", cfg)
    assert not ok and n == 5
    assert set(failure) == {"trial", "raised", "message"} and failure["raised"] == "Inconsistent"
    assert re.match(r"targets (\d+) and \1 violate ", failure["message"])  # one target named twice
    ok, n, failure = petal_harness.run_property("maps", "cross-model-embedding", cfg)
    assert not ok
    assert failure == {"trial": 0, "raised": "Inconsistent", "message": str(Inconsistent(0, 0))}
    assert main(["harness", "--model", "maps", "--seed", "7", "--trials", "50"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "one-point-extension extension_exact_preserving_rejecting FAIL trials=5 seed=7 counterexample=-" in lines
    assert "cross-model-embedding embeddings_agree_across_models FAIL trials=2 seed=7 counterexample=-" in lines
    assert sum(" FAIL " in line for line in lines) == 2
    assert captured.err == ""


def test_harness_rejected_embedding_is_a_fail_line(capsys, monkeypatch):
    # the record holds its own placement, so the broken one goes into a copy
    # of it; the extension and embedding checks both place through it
    sampler = dataclasses.replace(petal_harness._F, model=dataclasses.replace(F, place=_placing_at_anchor))
    monkeypatch.setitem(petal_harness.SAMPLERS, "f", sampler)
    ok, n, failure = petal_harness.run_property("f", "finite-embedding", petal_harness.TrialConfig(seed=7, trials=50))
    assert not ok
    assert failure == {"trial": 1, "raised": "Inconsistent", "message": str(Inconsistent(0, 0))}
    assert main(["harness", "--model", "f", "--seed", "7", "--trials", "50"]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if " FAIL " in line] == [
        "one-point-extension extension_exact_preserving_rejecting FAIL trials=5 seed=7 counterexample=-",
        "finite-embedding embed_space_reproduces_matrix FAIL trials=5 seed=7 counterexample=-",
    ]
    assert captured.err == ""


def _off_at_one_target(anchors, targets):
    # the least target m, when one anchor alone has it: that anchor cut
    # below m is still at every larger target, but nearer than m to it
    theta = F.extend(anchors, targets)
    m = min(targets, default=ZERO)
    if m == ZERO or targets.count(m) > 1:
        return theta
    return SupportMap((k, v) for k, v in anchors[targets.index(m)].entries if k >= m)


def _outside_petal(anchors, targets):
    # a key at 1/8, below every positive scale the harness draws: the
    # distances stay, but no drawn range set holds the key
    theta = F.extend(anchors, targets)
    if min(targets, default=ZERO) == ZERO:
        return theta
    return SupportMap(theta.entries + (("1/8", 1),))


def _never_rejecting(anchors, targets):
    try:
        return F.extend(anchors, targets)
    except Inconsistent:
        return SupportMap()


def _raising(anchors, targets):
    raise RuntimeError("placement lost")


# the faults the embedding check meets too, and its record: the copy of
# four points at 1/2 lands p1 on p0, and a raising extension fails at once
_EMBEDDING_FAILURES = {
    _off_at_one_target: {"trial": 1, "pair": ["p0", "p1"], "space": {
        "points": ["p0", "p1", "p2", "p3"],
        "dist": [["0" if i == j else "1/2" for j in range(4)] for i in range(4)],
    }},
    _raising: {"trial": 0, "raised": "RuntimeError", "message": "placement lost"},
}


@pytest.mark.parametrize("broken, key, value, more", [
    (_off_at_one_target, "violated", "distance", {"anchors", "targets"}),
    (_outside_petal, "violated", "petal-preservation", {"anchors", "targets", "S"}),
    (_never_rejecting, "violated", "missing-rejection", {"x", "y"}),
    (_raising, "raised", "RuntimeError", {"message"}),
])
def test_harness_extension_fault_is_a_dumped_fail_line(broken, key, value, more, tmp_path, capsys, monkeypatch):
    # every way a one-point extension on f can be wrong reaches the report
    # as a FAIL line, and its counterexample file holds the record; the
    # finite embedding places by the same extension, so a fault it meets
    # is a second FAIL line with a file of its own
    monkeypatch.setitem(petal_harness.SAMPLERS, "f", extending(petal_harness._F, broken))
    cfg = petal_harness.TrialConfig(seed=7, trials=50)
    ok, n, failure = petal_harness.run_property("f", "one-point-extension", cfg)
    assert not ok and n == 5 and failure[key] == value and set(failure) == {"trial", key, *more}
    embedding = _EMBEDDING_FAILURES.get(broken)
    assert petal_harness.run_property("f", "finite-embedding", cfg) == (embedding is None, 5, embedding)
    assert main(["harness", "--model", "f", "--seed", "7", "--trials", "50", "--dump-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    dump = tmp_path / "f_extension_exact_preserving_rejecting.json"
    dumps = {dump: failure}
    fail_lines = [f"one-point-extension extension_exact_preserving_rejecting FAIL trials=5 seed=7 counterexample={dump}"]
    if embedding is not None:
        embed_dump = tmp_path / "f_embed_space_reproduces_matrix.json"
        dumps[embed_dump] = embedding
        fail_lines.append(f"finite-embedding embed_space_reproduces_matrix FAIL trials=5 seed=7 counterexample={embed_dump}")
    assert [line for line in captured.out.splitlines() if " FAIL " in line] == fail_lines
    assert captured.err == ""
    assert {path: json.loads(path.read_text()) for path in tmp_path.iterdir()} == dumps


def test_harness_makes_a_missing_dump_dir_on_the_first_failure(tmp_path, capsys, monkeypatch):
    # the nested directory is made with its parents by the first dump, so
    # the report is printed in full; a passing run makes nothing
    dump_dir = tmp_path / "new" / "deeper"
    argv = ["harness", "--model", "f", "--seed", "7", "--trials", "20", "--dump-dir", str(dump_dir)]
    assert main(argv) == 0
    assert " FAIL " not in capsys.readouterr().out and not (tmp_path / "new").exists()
    sampler = extending(petal_harness._F, _raising)
    monkeypatch.setitem(petal_harness.SAMPLERS, "f", sampler)
    assert main(argv) == 1
    captured = capsys.readouterr()
    dump = dump_dir / "f_extension_exact_preserving_rejecting.json"
    embed_dump = dump_dir / "f_embed_space_reproduces_matrix.json"
    lines = captured.out.splitlines()
    assert len(lines) == 1 + len(sampler.suite)
    assert [line for line in lines if " FAIL " in line] == [
        f"one-point-extension extension_exact_preserving_rejecting FAIL trials=2 seed=7 counterexample={dump}",
        f"finite-embedding embed_space_reproduces_matrix FAIL trials=2 seed=7 counterexample={embed_dump}",
    ]
    assert captured.err == ""
    assert json.loads(dump.read_text())["raised"] == "RuntimeError"
    assert json.loads(embed_dump.read_text())["raised"] == "RuntimeError"
    assert sorted(path.name for path in dump_dir.iterdir()) == [embed_dump.name, dump.name]


def test_harness_refuses_a_dump_dir_that_is_a_file(tmp_path, capsys, monkeypatch):
    # refused before any property runs, so no report is cut short by the
    # first dump, and the file is left as it was; a passing run exits 1 too
    path = tmp_path / "taken"
    path.write_text("kept\n")
    argv = ["harness", "--model", "f", "--seed", "7", "--trials", "20", "--dump-dir", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: --dump-dir {path} is not a directory\n")
    calls = []
    broken = petal_harness.PropertySpec(
        "metric-axioms", "always_fails", 1.0, lambda ops, rng, t: calls.append(t) or {"reason": "forced"},
    )
    monkeypatch.setitem(petal_harness.SAMPLERS, "f", dataclasses.replace(petal_harness._F, suite=(broken,)))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: --dump-dir {path} is not a directory\n")
    assert calls == [] and path.read_text() == "kept\n"


def test_harness_refuses_a_dump_dir_below_a_file(tmp_path, capsys, monkeypatch):
    # no directory can be made below a file, so the nearest existing
    # ancestor decides up front, before a failing property's first dump
    # could cut the report short
    path = tmp_path / "taken"
    path.write_text("kept\n")
    calls = []
    broken = petal_harness.PropertySpec(
        "metric-axioms", "always_fails", 1.0, lambda ops, rng, t: calls.append(t) or {"reason": "forced"},
    )
    monkeypatch.setitem(petal_harness.SAMPLERS, "f", dataclasses.replace(petal_harness._F, suite=(broken,)))
    monkeypatch.chdir(tmp_path)
    for dump_dir in (str(path / "sub"), str(path / "sub" / "deeper"), "taken/sub", "./taken/sub/.."):
        argv = ["harness", "--model", "f", "--seed", "7", "--trials", "20", "--dump-dir", dump_dir]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: --dump-dir {dump_dir} is not a directory\n")
    assert calls == [] and path.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("kind", [ValueError, TypeError])
@pytest.mark.parametrize("side, op, step", [
    ("_F", "extend", 1), ("_MAPS", "extend", 0),
    ("_F", "metric", 1), ("_MAPS", "metric", 1),
    ("_F", "gen", 0), ("_MAPS", "gen", 1),
], ids=["left-f", "right-maps", "left-f-metric", "right-maps-metric", "left-f-gen", "right-maps-gen"])
def test_backforth_extension_fault_is_a_fail_line(kind, side, op, step, capsys, monkeypatch):
    # any exception from either side's generator, metric or extension is a
    # broken operator: a FAIL line naming the step and, as the fault names
    # no targets, no pair
    def raising(*args):
        raise kind("bad operator")

    sampler = getattr(petal_harness, side)
    if op == "gen":
        sampler = dataclasses.replace(sampler, gen=raising)
    elif op == "extend":
        sampler = extending(sampler, raising)
    else:
        sampler = dataclasses.replace(sampler, model=dataclasses.replace(sampler.model, metric=raising))
    monkeypatch.setattr(petal_harness, side, sampler)
    assert main(["backforth", "--seed", "7", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"# backforth seed=7 trials=5 generator={petal_harness.GENERATOR_NAME}",
        f"back-and-forth partial_isometry_each_step FAIL trials=5 seed=7 step={step} pair=()",
    ]
    assert captured.err == ""


@pytest.mark.parametrize("side, step, pair", [("_F", 1, (0, 1)), ("_MAPS", 2, (0, 2))], ids=["f", "maps"])
def test_backforth_broken_placement_is_caught_by_the_pairing_check(side, step, pair, capsys, monkeypatch):
    # back-and-forth places without the library's check, so the image that
    # misses its targets is caught by append_checked: the FAIL line names
    # the step and append_checked's (i, len(pairing)), not an Inconsistent's pair
    sampler = getattr(petal_harness, side)
    model = dataclasses.replace(sampler.model, place=_placing_at_anchor)
    monkeypatch.setattr(petal_harness, side, dataclasses.replace(sampler, model=model))
    assert main(["backforth", "--seed", "7", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"# backforth seed=7 trials=5 generator={petal_harness.GENERATOR_NAME}",
        f"back-and-forth partial_isometry_each_step FAIL trials=5 seed=7 step={step} pair={pair}",
    ]
    assert captured.err == ""


def test_umu_seed_env_default(capsys, monkeypatch):
    # UMU_SEED is the seed of backforth and harness when --seed is not given
    for argv in (["backforth", "--trials", "5"], ["harness", "--model", "maps", "--trials", "10"]):
        monkeypatch.delenv("UMU_SEED", raising=False)
        reports = {}
        for seed in ("7", "8"):
            assert main(argv + ["--seed", seed]) == 0
            reports[seed] = capsys.readouterr().out
        monkeypatch.setenv("UMU_SEED", "7")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == reports["7"] and " seed=7 " in out
        assert main(argv + ["--seed", "8"]) == 0  # --seed overrides the variable
        assert capsys.readouterr().out == reports["8"]
        monkeypatch.setenv("UMU_SEED", "abc")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_emitted_files_reparse_to_equal_values(tmp_path, capsys):
    # round-trip through the CLI surface for each model file format
    fun = CantorFunction({"00": "1", "01": "1/3", "1": "0"})
    path = write(tmp_path, "fun.json", fun.to_json())
    witness_path = tmp_path / "wit.json"
    assert main([
        "petal-dist", "--model", "maps", path,
        "--range", '["0","1"]', "--witness", str(witness_path),
    ]) == 0
    capsys.readouterr()
    witness = CantorFunction.from_json(json.loads(witness_path.read_text()))
    assert witness == CantorFunction({"00": "1", "01": "0", "1": "0"})

    pseudo = write(tmp_path, "pseudo.json", {
        "cells": ["00", "01", "1"],
        "dist": [["0", "1/3", "1"], ["1/3", "0", "1"], ["1", "1", "0"]],
    })
    cpum_witness = tmp_path / "cw.json"
    assert main([
        "petal-dist", "--model", "cpum", pseudo,
        "--range", '["0","1"]', "--witness", str(cpum_witness),
    ]) == 0
    assert capsys.readouterr().out == "1/3\n"
    from ultrapetal.model_cpum import CantorPseudoUltrametric, trace, ud

    reparsed = CantorPseudoUltrametric.from_json(json.loads(cpum_witness.read_text()))
    original = CantorPseudoUltrametric.from_json(json.loads(Path(pseudo).read_text()))
    assert ud(original, reparsed) == as_scale("1/3")
    assert trace(reparsed).to_json() == ["0", "1"]


@pytest.mark.parametrize("name", list(MODELS))
def test_element_files_round_trip(name):
    # an element's file text reads back to an equal element whose file
    # text is the same bytes
    sampler, model = petal_harness.SAMPLERS[name], MODELS[name]
    rng = petal_harness.spawn_rng(71)
    elements = []
    for _ in range(60):
        x = sampler.gen(rng)
        elements += [x, sampler.twin(rng, x)]
    if name in ("f", "maps"):
        # the back-and-forth run grows elements by one-point extension
        pairing = petal_harness.back_and_forth(petal_harness.TrialConfig(seed=5, trials=30))
        elements += pairing.left if name == "f" else pairing.right
    for x in elements:
        text = json.dumps(x.to_json())
        again = model.from_json(json.loads(text))
        assert json.dumps(again.to_json()) == text
        assert x == again, text


_SCALAR = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
_ANY = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)
# values shaped like the model and space formats, with some leaves wrong,
# so that part of the inputs get past the first checks
_SCALE = st.sampled_from(["0", "1/4", "1/2", "1", "2"])
_LEAF = st.integers(0, 9).flatmap(lambda k: _SCALAR if k == 0 else _SCALE)
_PARTITION = st.sampled_from([[""], ["0", "1"], ["0", "10", "11"], ["00", "01", "1"]]) | st.lists(_SCALAR, max_size=3)


def _symmetric(n, values):
    rows = [["0"] * n for _ in range(n)]
    for (i, j), v in zip(itertools.combinations(range(n), 2), values):
        rows[i][j] = rows[j][i] = v
    return rows


def _with_matrix(key, labels):
    n = len(labels)
    pairs = st.lists(_LEAF, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    return pairs.map(lambda values: {key: labels, "dist": _symmetric(n, values)})


_SPACE = st.integers(1, 4).flatmap(lambda n: _with_matrix("points", [f"p{i}" for i in range(n)]))
_SHAPES = {
    "f": st.lists(st.tuples(_LEAF, st.integers(0, 3)).map(list), max_size=3).map(lambda pairs: {"support": pairs}),
    "maps": _PARTITION.flatmap(lambda cells: st.lists(_LEAF, min_size=len(cells), max_size=len(cells)).map(
        lambda values: {"cells": [list(pair) for pair in zip(cells, values)]})),
    "cpum": _PARTITION.flatmap(lambda cells: _with_matrix("cells", cells)),
    "gh": _SPACE,
}
# (leading arguments, the value shape of each file argument, trailing arguments)
_FUZZED = (
    [(["validate"], [_SPACE], []), (["canon"], [_SPACE], []), (["quotient", "--eps", "1/2"], [_SPACE], []),
     (["na"], [_SPACE, _SPACE], []), (["embed"], [_SPACE], [])]
    + [(["dist", "--model", name], [shape, shape], []) for name, shape in _SHAPES.items()]
    + [(["petal-dist", "--model", name], [shape], ["--range", '["0", "1/2"]']) for name, shape in _SHAPES.items()]
    + [(["extend", "--model", name], [st.lists(_SHAPES[name], min_size=2, max_size=2)], ["--targets", '["1/2", "1"]'])
       for name in ("f", "maps")]
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command=st.sampled_from(_FUZZED), data=st.data())
def test_fuzzed_files_give_an_exit_code(command, data):
    # whatever JSON a file holds, main returns 0, 1 or 2 and raises nothing
    head, shapes, tail = command
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, shape in enumerate(shapes):
            path = Path(tmp) / f"in{k}.json"
            path.write_text(json.dumps(data.draw(shape | _ANY)))
            paths.append(str(path))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(head + paths + tail)
    assert code in (0, 1, 2)


# string arguments: scale strings, their near misses, and JSON arrays of both
_GOOD_SCALE = st.sampled_from(["0", "1/2", "2", "0.25", "1/3", "10"])
_NEAR_SCALE = st.sampled_from([
    "1/0", "0/0", "-1", "+1", "-0", "1e3", "1E3", "2.5e-1", "1e999999999", ".5", "1.", " 2", "1\n",
    "\t1/2", "1_000", "１", "١", "½", "1//2", "1/2/3", "1/-2", "", "0x1", "nan", "inf",
    "9" * 5000,
])
_SHAPED = st.from_regex(r"[-+ ]?[0-9]{0,3}[./eE_]?[0-9]{0,3}[./eE]?[0-9]{0,2}", fullmatch=True)
_SCALE_ARG = _GOOD_SCALE | _NEAR_SCALE | _SHAPED | st.text(max_size=8)
_ITEM = _SCALE_ARG | st.none() | st.booleans() | st.integers(-3, 10**40) | st.floats()
_ARRAY = st.lists(_ITEM | st.lists(_SCALE_ARG, max_size=2), max_size=4).map(json.dumps)
# well-formed arrays, arrays with one near miss, arrays cut short, JSON of
# another shape, and plain text
_ARRAY_ARG = (
    st.lists(_GOOD_SCALE, max_size=3).map(json.dumps)
    | st.lists(_GOOD_SCALE | _NEAR_SCALE, min_size=2, max_size=2).map(json.dumps)
    | _ARRAY
    | _ARRAY.flatmap(lambda text: st.integers(0, len(text)).map(lambda k: text[:k]))
    | _ITEM.map(json.dumps)
    | st.dictionaries(st.text(max_size=2), _ITEM, max_size=2).map(json.dumps)
    | _SCALE_ARG
)
_FILES = {
    "f": {"support": [["1", 2], ["1/2", 1]]},
    "maps": {"cells": [["0", "1/2"], ["1", "0"]]},
    "anchors_f": [{"support": [["1", 1]]}, {"support": [["1/2", 1]]}],
    "anchors_maps": [{"cells": [["0", "1"], ["1", "0"]]}, {"cells": [["", "0"]]}],
    "space": SPACE,
}
# (arguments before the fuzzed option, the option, the strategy of its value)
_STRING_ARGS = [
    (["petal-dist", "--model", "f", "{f}"], "--range", _ARRAY_ARG),
    (["petal-dist", "--model", "maps", "{maps}"], "--range", _ARRAY_ARG),
    (["extend", "--model", "f", "{anchors_f}"], "--targets", _ARRAY_ARG),
    (["extend", "--model", "maps", "{anchors_maps}"], "--targets", _ARRAY_ARG),
    (["quotient", "{space}"], "--eps", _GOOD_SCALE | _SCALE_ARG | _ARRAY_ARG),
]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=st.sampled_from(_STRING_ARGS), data=st.data())
def test_fuzzed_string_arguments_give_an_exit_code(case, data):
    # whatever text a string argument holds, main returns 0, 1 or 2, and a
    # refusal is one error line, never a traceback
    head, option, strategy = case
    text = data.draw(strategy)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in _FILES.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(content))
        # the option=value form, so that a value starting with "-" stays a value
        argv = [arg.format(**paths) for arg in head] + [f"{option}={text}"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().startswith("error: "), err.getvalue()
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert "Traceback" not in err.getvalue()
