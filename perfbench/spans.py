"""Span tracing from outside the program.

`Tracer.install()` replaces public functions of the `qxopt` modules, as each
calling module binds them, with wrappers that record one span per call:
layer name, start, end, parent span and counts. Spans stay in memory;
`write()` saves them when the run ends. `uninstall()` restores the original
functions, so untraced work runs the unmodified program.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

# (module that binds the name, function name, layer name). The binding
# module is the caller: qxopt.placement's simplify_gates is the search
# calling the peephole pass, qxopt.realization's equivalent is table
# verification calling the simulator.
BINDINGS = (
    ("qxopt.qasm", "parse", "qasm.parse"),
    ("qxopt.qasm", "emit", "qasm.emit"),
    ("qxopt.realization", "build_table", "realization.build"),
    ("qxopt.realization", "equivalent", "simulator.equivalent"),
    ("qxopt.realization", "simplify_gates", "peephole.simplify"),
    ("qxopt.realization", "levels_of", "circuit.levels"),
    ("qxopt.placement", "optimize", "placement.optimize"),
    ("qxopt.placement", "simplify_gates", "peephole.simplify"),
    ("qxopt.placement", "levels_of", "circuit.levels"),
    ("qxopt.peephole", "simplify_gates", "peephole.simplify"),
    ("qxopt.circuit", "levels_of", "circuit.levels"),
    ("qxopt.simulator", "equivalent", "simulator.equivalent"),
    ("qxopt.simulator", "unitary_of", "simulator.unitary"),
    ("qxopt.simulator", "run_ideal", "simulator.run_ideal"),
    ("qxopt.simulator", "run_noisy", "simulator.run_noisy"),
    ("qxopt.nonclassicality", "uhlmann_fidelity", "nonclassicality.fidelity"),
    ("qxopt.nonclassicality", "mermin3", "nonclassicality.mermin"),
)

class Tracer:
    def __init__(self) -> None:
        # One span: [layer, caller module, start, end, parent index, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, layer in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, module_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, layer: str, caller: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, caller, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if layer == "peephole.simplify":
                span[5] = (len(args[0]), len(result))
            elif layer == "realization.build":
                span[5] = len(result.entries)
            return result

        return traced

    def mark(self) -> int:
        return len(self.spans)

    def layer_totals(self, begin: int, end: int | None = None) -> dict[str, float]:
        """Per-layer metrics over the spans recorded between two marks."""
        spans = self.spans[begin:end]
        child_time = defaultdict(float)
        for layer, caller, start, stop, parent, counts in spans:
            if parent >= begin:
                child_time[parent] += stop - start
        out = defaultdict(float)
        for offset, (layer, caller, start, stop, parent, counts) in enumerate(spans):
            dur = stop - start
            out[layer + "_s"] += dur
            out[layer + ".calls"] += 1
            if layer == "peephole.simplify":
                out["peephole.gates_in"] += counts[0]
                out["peephole.gates_out"] += counts[1]
                if caller == "qxopt.placement":
                    out["placement.placements"] += 1
            elif layer == "realization.build":
                out["realization.entries"] += counts
            elif layer == "placement.optimize":
                out["placement.self_s"] += dur - child_time[begin + offset]
            elif layer == "simulator.equivalent" and caller == "qxopt.realization":
                out["realization.verify_s"] += dur
        out["realization.construct_s"] = out["realization.build_s"] - out["realization.verify_s"]
        out["peephole.calls"] = out["peephole.simplify.calls"]
        out["circuit.levels_calls"] = out["circuit.levels.calls"]
        out["simulator.equivalent_calls"] = out["simulator.equivalent.calls"]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["layer", "caller", "start", "end", "parent", "counts"]
        with path.open("w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": fields, "spans": self.spans}, fh)
