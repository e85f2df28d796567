"""Span tracing of crmatrix's layers, installed from outside the library.

Every public module-level function of a layer module is replaced, in every
``crmatrix`` namespace that holds it, by a wrapper that records a span.
Because the library calls its own functions through module globals,
intra-module and cross-module calls nest.  Per-element helpers and
generator functions stay unwrapped so the trace stays cheap; their time
lands in the span of whichever layer function consumed them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "presets", "model", "projection", "rmatrix", "gauge",
          "transport", "divergence", "io")

#: called once per matrix element or per (band, k) label; wrapping them
#: would make the trace cost more than the work it measures
PER_ELEMENT = frozenset({
    "io.fmt", "projection.band_factor", "projection.site_factor",
    "projection.kron_embed", "projection.wannier_coefficient",
    "projection.pair_inner_product", "rmatrix.band_overlap",
})

#: layers that build coefficient fields; ``model.points`` counts each
#: field once, at the outermost of their spans that returns it
FIELD_LAYERS = ("model", "presets")

MIB = float(1 << 20)


class Span:
    __slots__ = ("name", "layer", "job", "parent", "start", "end", "child_s",
                 "mem_start", "mem_peak")

    def __init__(self, name, layer, job, parent):
        self.name, self.layer, self.job, self.parent = name, layer, job, parent
        self.start = self.end = self.child_s = 0.0
        self.mem_start = self.mem_peak = 0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self, index: dict) -> dict:
        return {"name": self.name, "layer": self.layer, "job": self.job, "start": self.start,
                "end": self.end, "parent": index.get(id(self.parent)), "self_s": self.self_s}


class Tracer:
    """Collects spans while installed; ``install(memory=True)`` also
    records each span's ``tracemalloc`` peak above its starting
    allocation, and the summaries report it until the next install."""

    def __init__(self):
        self.patches = []
        self.memory = False
        self.job = None
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.guards = {"herm_defect": 0.0, "chern_residue": 0.0}
        self.counts = {"model.points": 0, "io.rows": 0, "io.files": 0}

    # -- installation --------------------------------------------------------

    def install(self, memory: bool = False):
        if self.patches:
            raise RuntimeError("tracer already installed")
        self.memory = memory
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"crmatrix.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(fn)
                        and f"{layer}.{name}" not in PER_ELEMENT):
                    wrappers[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "crmatrix" and not modname.startswith("crmatrix."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches = []

    def _wrap(self, layer, qualname, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(span, result)
            return result
        return traced

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, self.job, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_start = span.mem_peak = current
        self.stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child_s += span.end - span.start
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            span.mem_peak = max(span.mem_peak, peak)
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, span.mem_peak)
            tracemalloc.reset_peak()

    def _observe(self, span: Span, result):
        """Work counts and guard margins read from returned results."""
        name = span.name
        if name == "rmatrix.position_matrix":
            self.guards["herm_defect"] = max(self.guards["herm_defect"],
                                             result.hermiticity_defect)
        elif name == "transport.chern_number":
            self.guards["chern_residue"] = max(self.guards["chern_residue"], result.residue)
        elif name == "io.write_csv":
            self.counts["io.rows"] += result
            self.counts["io.files"] += 1
        elif name == "io.write_manifest":
            self.counts["io.files"] += 1
        elif (span.layer in FIELD_LAYERS and hasattr(result, "n_k")
              and (span.parent is None or span.parent.layer not in FIELD_LAYERS)):
            self.counts["model.points"] += result.n_k * getattr(result, "n_lambda", 1)

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: self time, call count and (memory pass) peak MiB."""
        out = {layer: {"self_s": 0.0, "calls": 0, "peak_mb": 0.0} for layer in LAYERS}
        for span in self.spans:
            row = out[span.layer]
            row["self_s"] += span.self_s
            row["calls"] += 1
            if self.memory:
                row["peak_mb"] = max(row["peak_mb"], (span.mem_peak - span.mem_start) / MIB)
        return out

    def span_records(self) -> list:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.as_dict(index) for s in self.spans]
