"""Benchmark of the ultrapetal package: one workload, one seed, one run.

    python3 perfbench/run.py --workload axioms|backforth|spaces-cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The run sets up (imports, inputs, files, lazy caches), then repeats the
workload's fixed op list in passes until ``--seconds`` have gone by, checking
every op's output after each pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every failed op and print each metric with its unit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``layer_trace`` plus ``trace.overhead_ratio``.  Every run writes its record,
and a traced run its spans, to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ultrapetal"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
PROBE_EVERY = 0.02
PROBE_REF = 1e-4

import layer_trace  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import every module of the package from this checkout's ``src``."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: no {PACKAGE} package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        sys.exit(f"error: imported {pkg.__file__}, not the checkout's package")
    for name in ("scales", "cells", "umspace", "extension", "model_f", "model_maps",
                 "model_cpum", "model_gh", "petal_harness", "cli"):
        importlib.import_module(f"{PACKAGE}.{name}")
    return pkg


def probe_import_seconds(speed: "Speed") -> float:
    """Median time to import the package in a fresh interpreter, speed-scaled."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {PACKAGE}.cli, {PACKAGE}.petal_harness; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        factor = speed.scale()
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        times.append(float(done.stdout.strip()) * factor)
    return statistics.median(times)


def set_up(workload: str, seed: int, pkg, speed: "Speed"):
    """Build the op list ``SETUP_REPEATS`` times; returns it and the median scaled time."""
    workdir = ROOT / ".perfbench_work" / workload
    times = []
    ops = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        pkg.petal_harness._CORPUS = None
        factor = speed.scale()
        start = time.perf_counter()
        ops = workloads.WORKLOADS[workload](seed, pkg, workdir)
        pkg.petal_harness.small_corpus()
        times.append((time.perf_counter() - start) * factor)
    return ops, statistics.median(times)


class _Key:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return self.v < other.v


_PROBE_KEYS = [_Key((i * 7919) % 1009) for i in range(200)]


def probe() -> float:
    """Best of three timings of a fixed pure-Python sort, in seconds.

    The sort makes one Python-level method call per comparison, as the
    package's exact-comparison code does, and uses nothing of the package.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        sorted(_PROBE_KEYS)
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Machine speed, probed at most every ``PROBE_EVERY`` seconds of work.

    ``scale()`` is ``PROBE_REF / probe()``: multiplying a latency by it
    expresses the latency at the reference speed.
    """

    def __init__(self):
        self.last = -float("inf")
        self.factor = 1.0
        self.probes: list[float] = []

    def scale(self) -> float:
        now = time.perf_counter()
        if now - self.last >= PROBE_EVERY:
            seconds = probe()
            self.probes.append(seconds)
            self.factor = PROBE_REF / seconds
            self.last = time.perf_counter()
        return self.factor


def run_pass(ops, speed: Speed, trace=None, record_spans=False):
    """Run every op once; returns raw and speed-scaled seconds per op, and outputs.

    An exception raised by an op is its output.
    """
    clock = time.perf_counter
    gc.collect()
    latencies, scaled, outputs = [], [], {}
    for op in ops:
        factor = speed.scale()
        if trace is not None:
            trace.begin_op(op.name, record_spans)
        start = clock()
        try:
            out = op.run()
        except Exception as err:  # an op fails on any exception; the run goes on
            out = err
        end = clock()
        if trace is not None:
            trace.end_op(start, end)
        latencies.append(end - start)
        scaled.append((end - start) * factor)
        outputs[op.name] = out
    return latencies, scaled, outputs


def check_pass(ops, outputs) -> dict[str, str]:
    failures = {}
    for op in ops:
        out = outputs[op.name]
        if isinstance(out, BaseException):
            failures[op.name] = f"raised {type(out).__name__}: {out}"
            continue
        try:
            reason = op.check(out, outputs)
        except Exception as err:  # unparsable output is a wrong output
            reason = f"output check raised {type(err).__name__}: {err}"
        if reason:
            failures[op.name] = reason
    return failures


def quantile_hd(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the order statistics.

    The plain order statistic of a few dozen ops jumps by the whole gap to
    its neighbour when one op's cost moves past another from seed to seed.
    Weighting every order statistic by the Beta((n+1)p, (n+1)(1-p)) mass of
    its interval estimates the same quantile with a much smaller spread.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 16
    logs = []
    for i in range(n):
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    top = max(logs)
    weights = [
        sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps]) for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(count: int) -> float:
    """The highest percentile with ``TAIL_BEYOND`` of ``count`` ops beyond it."""
    return max(0.5, (count - TAIL_BEYOND) / count)


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def package_modules(pkg) -> dict:
    mods = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".")}
    mods[PACKAGE] = pkg
    return mods


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    pkg = import_package()
    speed = Speed()
    import_s = probe_import_seconds(speed)
    ops, build_s = set_up(args.workload, args.seed, pkg, speed)
    setup_s = import_s + build_s

    trace = layer_trace.LayerTrace() if args.trace else None
    if len({op.name for op in ops}) != len(ops):
        sys.exit("error: op names are not unique")
    plain = {op.name: [] for op in ops}
    traced = {op.name: [] for op in ops}
    plain_passes = traced_passes = 0
    failed_names: dict[str, str] = {}
    attempted = failed = 0
    walls = []
    begin = time.perf_counter()
    # whole passes only, while the next one is expected to end in time
    while (not plain_passes or (trace and not traced_passes)
           or time.perf_counter() - begin + statistics.median(walls) <= args.seconds):
        tracing = bool(trace) and traced_passes < plain_passes
        if tracing:
            trace.install(package_modules(pkg))
            try:
                latencies, scaled, outputs = run_pass(ops, speed, trace, record_spans=traced_passes == 0)
            finally:
                trace.uninstall()
            traced_passes += 1
            if traced_passes == 1:
                first_calls = (list(trace.calls), dict(trace.extra), trace.fraction_cmp)
        else:
            latencies, scaled, outputs = run_pass(ops, speed)
            plain_passes += 1
        walls.append(sum(latencies))
        for op, seconds in zip(ops, scaled):
            (traced if tracing else plain)[op.name].append(seconds)
        failures = check_pass(ops, outputs)
        attempted += len(ops)
        failed += len(failures)
        failed_names.update(failures)
        del outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unexpected = sorted(set(failed_names) - set(workloads.KNOWN_DEFECTS))
    for name in sorted(failed_names):
        known = "known defect" if name in workloads.KNOWN_DEFECTS else "UNEXPECTED"
        print(f"FAILED [{known}] {name}: {failed_names[name]}")

    op_ms = [statistics.median(v) * 1000.0 for v in plain.values()]
    tail_q = tail_percentile(len(op_ms))
    summary = {
        "wall_s": (sum(op_ms) / 1000.0, "s"),
        "op_p50_ms": (quantile_hd(op_ms, 0.5), "ms"),
        "op_tail_ms": (quantile_hd(op_ms, tail_q), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    print(f"# workload={args.workload} seed={args.seed} ops={len(ops)} "
          f"passes={plain_passes} traced_passes={traced_passes} "
          f"speed_probe_us={statistics.median(speed.probes) * 1e6:.2f}")
    for name, (value, unit) in summary.items():
        print(f"{name:>12} {value:.6g} {unit}")
    print(f"{'':>12} op_tail_ms is p{100 * tail_q:.1f} of {len(op_ms)} ops "
          f"({TAIL_BEYOND} ops beyond it; each op's median over {plain_passes} passes)")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "commit": commit_id(),
        "nproc": os.cpu_count(), "ops": {args.workload: len(ops)},
        "passes": plain_passes, "traced_passes": traced_passes,
        "tail_percentile": 100 * tail_q, "attempted": attempted, "failed": failed,
        "failed_ops": failed_names,
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "op_ms": dict(zip(plain, op_ms)),
        "speed_probe_us": [p * 1e6 for p in speed.probes],
        "elapsed_s": time.perf_counter() - start,
    }

    if trace:
        calls, extra, fraction_cmp = first_calls
        metrics = layer_metrics(trace, calls, extra, fraction_cmp, traced_passes)
        metrics["trace.overhead_ratio"] = {
            "value": sum(statistics.median(v) for v in traced.values())
            / sum(statistics.median(v) for v in plain.values()),
            "unit": "ratio",
        }
        silent = [layer for layer in workloads.EXPECTED_LAYERS[args.workload]
                  if not any(metrics[f"{layer_trace.metric_name(*t)}.calls"]["value"]
                             for t in layer_trace.TARGETS if t[0] == layer)]
        if trace.missing:
            print("warning: traced functions not found: " + ", ".join(trace.missing), file=sys.stderr)
        if silent:
            print("error: the trace recorded no call in layer(s) " + ", ".join(silent)
                  + f" on workload {args.workload}", file=sys.stderr)
            return 3
        record["metrics"] = metrics
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items() if k != "fail_ratio"}
        record["metrics"] = metrics

    write_records(args, record, trace)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(trace, calls, extra, fraction_cmp, passes: int) -> dict:
    """Per-layer metrics: call counts of the first traced pass, self times per pass."""
    out = {"scales.fraction_cmp.calls": {"value": fraction_cmp, "unit": "count"}}
    for layer, owner, attr in layer_trace.TARGETS:
        name = layer_trace.metric_name(layer, owner, attr)
        idx = trace.keys.index(name) if name in trace.keys else None
        out[f"{name}.calls"] = {"value": calls[idx] if idx is not None else 0, "unit": "count"}
        out[f"{name}.self_s"] = {
            "value": trace.self_s[idx] / passes if idx is not None else 0.0, "unit": "s"}
    out["petal_harness.gen.self_s"] = {"value": trace.seconds("petal_harness.gen") / passes, "unit": "s"}
    out["cells.refinement.cells_out"] = {"value": extra["cells.refinement.cells_out"], "unit": "count"}
    out["umspace.rejected"] = {"value": extra["umspace.rejected"], "unit": "count"}
    out["extension.inconsistent"] = {"value": extra["extension.inconsistent"], "unit": "count"}
    out["cli.main.nonzero_exit"] = {"value": extra["cli.main.nonzero_exit"], "unit": "count"}
    qc = out["model_gh.quotient_canon.calls"]["value"]
    na = out["model_gh.na_distance.calls"]["value"]
    out["model_gh.quotient_canon.hit_ratio"] = {
        "value": extra["model_gh.quotient_canon.hits"] / qc if qc else 0.0, "unit": "ratio"}
    out["model_gh.scan_len"] = {
        "value": extra["model_gh.scan_calls"] / na if na else 0.0, "unit": "count"}
    return out


def write_records(args, record: dict, trace) -> None:
    """One JSON-lines file per workload and mode: the run record, then its spans."""
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"{args.workload}.trace{args.trace}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"record": "run", **record}) + "\n")
        for span in trace.span_records() if trace else ():
            handle.write(json.dumps({"record": "span", "workload": args.workload,
                                     "seed": args.seed, **span}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
