"""Per-layer call counts, self times and spans, from outside the package.

``LayerTrace.install`` replaces each traced function with a timing wrapper
at every place the package binds it: module globals, dict tables such as
the CLI's model tables, attributes of record objects such as the harness's
per-model operation records, and class attributes for methods and
constructors.  It then asks the garbage collector for anything else that
still holds an original and fails if it finds one, so a later refactor that
binds a function somewhere new cannot leave the trace blind.  ``Fraction``
rich comparisons are counted, not timed.  ``uninstall`` puts every original
back, so untraced passes run the package's own code.

Self time is a call's duration minus the duration of the traced calls it
made.  Spans are kept in memory, at most ``SPAN_CAP`` per op, and written
by the caller once the run ends.
"""

from __future__ import annotations

import fractions
import gc
import time
import types

SPAN_CAP = 50

# (layer, owner, attribute); an owner is a module name or "module.Class"
TARGETS = [
    ("scales", "scales", "as_scale"),
    ("scales", "scales.RangeSet", "__init__"),
    ("cells", "cells", "refinement"),
    ("cells", "cells", "cell_owners"),
    ("cells", "cells", "check_prefixes"),
    ("umspace", "umspace", "check_matrix"),
    ("umspace", "umspace.FiniteUltraSpace", "canonical_form"),
    ("umspace", "umspace.FiniteUltraSpace", "dendrogram"),
    ("umspace", "umspace.FiniteUltraSpace", "quotient"),
    ("extension", "extension", "verify_extension"),
    ("extension", "extension", "violating_pair"),
    ("model_f", "model_f", "delta"),
    ("model_f", "model_f", "one_point_extension"),
    ("model_f", "model_f", "embed_space"),
    ("model_f", "model_f", "petal_distance"),
    ("model_maps", "model_maps", "nabla"),
    ("model_maps", "model_maps", "one_point_extension"),
    ("model_maps", "model_maps.CantorFunction", "__init__"),
    ("model_maps", "model_maps", "petal_distance"),
    ("model_cpum", "model_cpum", "ud"),
    ("model_cpum", "model_cpum.CantorPseudoUltrametric", "__init__"),
    ("model_cpum", "model_cpum", "petal_distance"),
    ("model_gh", "model_gh", "na_distance"),
    ("model_gh", "model_gh.GHPoint", "quotient_canon"),
    ("model_gh", "model_gh", "na_oracle"),
    ("model_gh", "model_gh", "petal_distance"),
    ("petal_harness", "petal_harness", "run_property"),
    ("petal_harness", "petal_harness.PartialIsometry", "append_checked"),
    ("petal_harness", "petal_harness", "small_corpus"),
    ("cli", "cli", "main"),
]
FRACTION_CMP = ("__eq__", "__lt__", "__gt__", "__le__", "__ge__")


def metric_name(layer: str, owner: str, attr: str) -> str:
    """``model_f.delta``; a constructor is named by its class: ``scales.RangeSet``."""
    return f"{layer}.{owner.rsplit('.', 1)[-1] if attr == '__init__' else attr}"


def generators(harness) -> list:
    """The harness's ``gen_*`` functions, traced together as ``petal_harness.gen``."""
    return [
        value for name, value in sorted(vars(harness).items())
        if name.startswith("gen_") and isinstance(value, types.FunctionType)
    ]


class LayerTrace:
    """Counts, self times and spans of the traced functions of one package."""

    def __init__(self):
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra = {
            "cells.refinement.cells_out": 0,
            "umspace.rejected": 0,
            "extension.inconsistent": 0,
            "model_gh.quotient_canon.hits": 0,
            "model_gh.scan_calls": 0,
            "cli.main.nonzero_exit": 0,
        }
        self.fraction_cmp = 0
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.op: str | None = None
        self._stack = [0.0]
        self._ids = [0]
        self._next_id = 1
        self._budget = 0
        self._restore: list[tuple] = []
        self._wrappers: list = []

    # -- counters --------------------------------------------------------

    def _key(self, name: str) -> int:
        if name not in self.keys:
            self.keys.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.keys.index(name)

    def count(self, name: str) -> int:
        return self.calls[self.keys.index(name)] if name in self.keys else 0

    def seconds(self, name: str) -> float:
        return self.self_s[self.keys.index(name)] if name in self.keys else 0.0

    # -- spans -----------------------------------------------------------

    def begin_op(self, op: str, record: bool) -> None:
        """Start an op; its traced calls become children of the op's own span."""
        self.op = op
        self._budget = SPAN_CAP if record else 0
        self._ids[0] = 0
        if record:
            self._ids[0] = self._next_id
            self._next_id += 1

    def end_op(self, start: float, end: float) -> None:
        if self._ids[0]:
            self.spans.append((self.op, self._ids[0], 0, -1, start, end))
        self._budget = 0

    def span_records(self) -> list[dict]:
        return [
            {"op": op, "span": span, "parent": parent,
             "name": "op" if idx < 0 else self.keys[idx], "start": start, "end": end}
            for op, span, parent, idx, start, end in self.spans
        ]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, idx: int, fn, hook=(None, None)):
        before, after = hook
        stack, ids = self._stack, self._ids
        clock = time.perf_counter
        trace = self

        def traced(*args, **kwargs):
            span = 0
            if trace._budget:
                trace._budget -= 1
                span = trace._next_id
                trace._next_id += 1
            parent = ids[-1]
            ids.append(span or parent)
            token = before() if before else None
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                ids.pop()
                trace.calls[idx] += 1
                trace.self_s[idx] += elapsed - child
                stack[-1] += elapsed
                if after:
                    after(token, result, exc)
                if span:
                    trace.spans.append((trace.op, span, parent, idx, start, end))

        self._wrappers.append(traced)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target; ``modules`` maps short names to imported modules."""
        hooks = _hooks(self)
        self.missing = []
        originals: dict[int, object] = {}
        for layer, owner, attr in TARGETS:
            name = metric_name(layer, owner, attr)
            mod_name, _, cls_name = owner.partition(".")
            holder = getattr(modules[mod_name], cls_name) if cls_name else modules[mod_name]
            fn = vars(holder).get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(self._key(name), fn, hooks.get(name, (None, None)))
            originals[id(fn)] = (fn, wrapper)
            if cls_name:
                setattr(holder, attr, wrapper)
                self._restore.append((holder, attr, fn))
        gen_idx = self._key("petal_harness.gen")
        for fn in generators(modules["petal_harness"]):
            originals[id(fn)] = (fn, self._wrap(gen_idx, fn))
        self._rebind(modules, originals)
        self._install_fraction_counts()
        self._check_unbound(originals)

    def _rebind(self, modules: dict, originals: dict) -> None:
        for module in modules.values():
            space = vars(module)
            for name, value in list(space.items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)][1])
                    self._restore.append((module, name, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            value[key] = originals[id(item)][1]
                            self._restore.append((value, key, item))
                elif hasattr(value, "__dict__") and not isinstance(
                    value, (type, types.ModuleType, types.FunctionType)
                ):
                    for field, item in list(vars(value).items()):
                        if id(item) in originals:
                            object.__setattr__(value, field, originals[id(item)][1])
                            self._restore.append((value, field, item))

    def _install_fraction_counts(self) -> None:
        trace = self
        for attr in FRACTION_CMP:
            fn = vars(fractions.Fraction)[attr]

            def counted(a, b, _fn=fn):
                trace.fraction_cmp += 1
                return _fn(a, b)

            setattr(fractions.Fraction, attr, counted)
            self._restore.append((fractions.Fraction, attr, fn))

    def _check_unbound(self, originals: dict) -> None:
        """Fail if anything outside this tracer still references an original."""
        ours = {id(self._restore), id(originals), id(self._wrappers)}
        for wrapper in self._wrappers:
            ours.update(id(cell) for cell in wrapper.__closure__)
        ours.update(id(entry) for entry in self._restore)
        ours.update(id(pair) for pair in originals.values())
        leaks = []
        gc.collect()
        for fn, _ in originals.values():
            for ref in gc.get_referrers(fn):
                if id(ref) in ours or isinstance(ref, types.FrameType):
                    continue
                leaks.append(f"{fn.__module__}.{fn.__qualname__} via {type(ref).__name__}")
        if leaks:
            self.uninstall()
            raise RuntimeError("traced function still bound outside the trace: " + "; ".join(leaks))

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            if isinstance(holder, dict):
                holder[name] = value
            elif isinstance(holder, (type, types.ModuleType)):
                setattr(holder, name, value)
            else:
                object.__setattr__(holder, name, value)
        self._restore = []
        self._wrappers = []


def _hooks(trace: LayerTrace) -> dict:
    """Counters that read a call's outcome, or another counter's growth during the call.

    Each hook is a ``(before, after)`` pair: ``before()`` returns a token and
    ``after(token, result, exc)`` updates ``trace.extra``.
    """
    extra = trace.extra

    def on_result(counter: str, amount):
        def after(token, result, exc):
            extra[counter] += int(amount(result, exc))

        return None, after

    def on_growth(counted: str, counter: str, amount):
        def before():
            return trace.count(counted)

        def after(token, result, exc):
            extra[counter] += int(amount(trace.count(counted) - token))

        return before, after

    return {
        "cells.refinement": on_result(
            "cells.refinement.cells_out", lambda r, e: len(r) if e is None else 0),
        "umspace.check_matrix": on_result("umspace.rejected", lambda r, e: e is not None),
        "extension.verify_extension": on_result("extension.inconsistent", lambda r, e: e is not None),
        # a cached answer computes no quotient
        "model_gh.quotient_canon": on_growth(
            "umspace.quotient", "model_gh.quotient_canon.hits", lambda grew: grew == 0),
        "model_gh.na_distance": on_growth(
            "model_gh.quotient_canon", "model_gh.scan_calls", lambda grew: grew),
        "cli.main": on_result("cli.main.nonzero_exit", _nonzero),
    }


def _nonzero(result, exc) -> bool:
    if exc is None:
        return result != 0
    return not (isinstance(exc, SystemExit) and exc.code in (0, None))
