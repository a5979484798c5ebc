import io
import itertools
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultrapetal.cli import main
from ultrapetal.petal import MODELS
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
    ["petal-dist", "--model", "f", {"support": []}, "--range", "[" * 100_000],
    ["dist", "--model", "maps", {"cells": [["", "0/0"]]}, {"cells": [["", "0"]]}],
], ids=["float-distance", "bool-distance", "string-points", "support-entry", "cpum-dist",
        "null-label", "number-prefixes", "number-cells", "missing-points", "two-by-one",
        "deep-range", "zero-denominator"])
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
        lambda rng, t: {"reason": "forced"},
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
    original = CantorPseudoUltrametric.from_json(json.loads(Path(pseudo).read_text()))
    assert ud(original, reparsed) == as_scale("1/3")
    assert reparsed.spectrum().to_json() == ["0", "1"]


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
