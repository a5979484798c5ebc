"""The benchmark's layer tracer must still find and rebind every traced function.

``perfbench/layer_trace.py`` wraps functions at every place the package
binds them and fails when something it cannot rebind (a ``partial``, a
default argument, a closure, a tuple) still holds one.  The tracer runs
in a fresh interpreter: the test modules themselves import traced
functions by name, which the tracer would rightly report as bindings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PREAMBLE = """
import importlib.util, json, sys
root = sys.argv[1]
sys.path.insert(0, root + "/src")
spec = importlib.util.spec_from_file_location("layer_trace", root + "/perfbench/layer_trace.py")
layer_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_trace)
import ultrapetal
for name in ("scales", "cells", "umspace", "extension", "model_f", "model_maps",
             "model_cpum", "model_gh", "petal", "petal_harness", "cli"):
    importlib.import_module("ultrapetal." + name)
modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
           if name.startswith("ultrapetal.")}
modules["ultrapetal"] = ultrapetal
"""

SCRIPT = PREAMBLE + """
trace = layer_trace.LayerTrace()
trace.install(modules)
try:
    space = modules["umspace"].FiniteUltraSpace(
        ["a", "b", "c"], [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]])
    modules["petal"].F.embed(space)
    counts = {name: trace.count(name) for name in (
        "model_f.delta", "extension.verify_extension")}
    print(json.dumps({"missing": trace.missing, "counts": counts}))
finally:
    trace.uninstall()
"""

# traced names the package no longer defines: the tracer skips them with a warning
KNOWN_MISSING = {f"model_{m}.petal_distance" for m in ("f", "maps", "cpum", "gh")}
KNOWN_MISSING |= {"cells.refinement", "cells.cell_owners"}
KNOWN_MISSING |= {f"model_{m}.one_point_extension" for m in ("f", "maps")}
KNOWN_MISSING |= {"model_f.embed_space"}


def test_tracer_rebinds_every_traced_function():
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert set(result["missing"]) <= KNOWN_MISSING
    assert result["counts"] == {
        "model_f.delta": 3,
        "extension.verify_extension": 2,
    }


# a small run of each workload's kind of op, under a fresh tracer each;
# a layer whose traced functions record no call is printed as silent, by
# the rule perfbench/run.py applies before it exits 3
LIVENESS = PREAMBLE + """
sys.path.insert(0, root + "/perfbench")
import tempfile
from pathlib import Path
import workloads
ph = modules["petal_harness"]
workdir = tempfile.TemporaryDirectory()
runs = {
    "backforth": lambda: (ph.back_and_forth(ph.TrialConfig(seed=1, trials=5)),
                          ph.ultrahomogeneity_demo(ph.TrialConfig(seed=1, trials=5), subset_size=3)),
    "axioms": lambda: [ph.run_property(model, tag, ph.TrialConfig(seed=1, trials=workloads.AXIOM_TRIALS[0]))
                       for model, tags in workloads.AXIOM_PROPERTIES.items() for tag in tags],
    "spaces-cli": lambda: [op.run() for op in workloads.spaces_cli(1, ultrapetal, Path(workdir.name))],
}
silent = {}
for workload, run in runs.items():
    trace = layer_trace.LayerTrace()
    trace.install(modules)
    try:
        run()
    finally:
        trace.uninstall()
    silent[workload] = [
        layer for layer in workloads.EXPECTED_LAYERS[workload]
        if not any(trace.count(layer_trace.metric_name(*t)) for t in layer_trace.TARGETS if t[0] == layer)
    ]
workdir.cleanup()
print(json.dumps(silent))
"""


def test_traced_workload_ops_reach_every_expected_layer():
    # a layer reached only through a path the package no longer takes makes
    # a traced benchmark run exit 3; back-and-forth reaches cells only
    # through maps' origin (zero_function) and extension only through the
    # homogeneity copy's checked extend; the CLI reaches model_f and
    # extension only through embed's checked extend
    run = subprocess.run(
        [sys.executable, "-c", LIVENESS, str(ROOT)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"backforth": [], "axioms": [], "spaces-cli": []}
