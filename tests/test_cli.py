import json

import pytest

from ultrapetal.cli import main
from ultrapetal.scales import as_scale
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
], ids=["float-distance", "bool-distance", "string-points", "support-entry", "cpum-dist",
        "null-label", "number-prefixes", "number-cells", "missing-points", "two-by-one"])
def test_malformed_input_exits_one(tmp_path, capsys, argv):
    # an exception escaping main would be a traceback at the command line;
    # only validate's axiom verdicts belong on stdout
    args = [write(tmp_path, f"in{k}.json", a) if isinstance(a, dict) else a for k, a in enumerate(argv)]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


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
        lambda rng, cfg, n: {"trial": 0, "reason": "forced"},
    )
    monkeypatch.setitem(ph.SUITES, "f", (broken,))
    code = main([
        "harness", "--model", "f", "--seed", "1", "--trials", "5",
        "--dump-dir", str(tmp_path),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert " FAIL " in out
    assert (tmp_path / "f_always_fails.json").exists()


def test_umu_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("UMU_SEED", "77")
    assert main(["backforth", "--trials", "2"]) == 0
    assert "seed=77" in capsys.readouterr().out


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
    from ultrapetal.model_cpum import CantorPseudoUltrametric, ud

    reparsed = CantorPseudoUltrametric.from_json(json.loads(cpum_witness.read_text()))
    original = CantorPseudoUltrametric.from_json(json.loads(open(pseudo).read()))
    assert ud(original, reparsed) == as_scale("1/3")
    assert reparsed.spectrum().to_json() == ["0", "1"]
