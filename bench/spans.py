"""Span recorder and boundary wrappers for the traced benchmark run.

Tracing is done from outside the program: every public function of the
layer modules is replaced, in every ``groupoidal.*`` namespace that binds
it, by a wrapper that records a span around the call.  A few methods are
wrapped on their class.  ``traced()`` puts every original object back when
it exits, so an untraced run in the same process sees the program as it is.

A span holds its name, layer, start, end, parent span and operation id.
Spans stay in memory until the run ends; self time is computed from them
afterwards (``self_times``).  With ``memory=True`` the recorder runs
``tracemalloc`` inside the stages named in ``PEAK_STAGES`` and each span
there records its peak of traced memory above its starting level.
``tracemalloc`` slows pure-Python code several times over, so a memory
recorder gives peaks only; times come from a recorder without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
from groupoidal.algebras import Representation, StarAlgebra

LAYERS = ("groupoids", "bundles", "algebras", "morita", "modelio", "runtime", "cli")

# Private helpers that are certificate stages of their own, with their span names.
STAGES = {
    ("morita", "_positivity_margin"): "positivity",
    ("morita", "_fullness_rank"): "fullness",
    ("morita", "_identify_corner"): "identify_corner",
}

# Methods wrapped on their class: (layer, class name) -> method names.
METHODS = {
    ("algebras", "StarAlgebra"): ("unit",),
    ("runtime", "RuntimeModel"): ("group", "groupoid", "space", "algebra",
                                  "bundle", "action"),
}

# Stages whose peak memory is reported; tracemalloc runs only inside them.
PEAK_STAGES = frozenset({"morita.linking_system", "morita.positivity",
                         "algebras.star_structure_report", "algebras.unit"})

# Spans of this pseudo-layer time the recorder's own counting work, so that
# it is not charged to the layer that called it.
TRACE_LAYER = "trace"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op",
                 "base_mem", "peak_mem")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.base_mem = 0
        self.peak_mem = 0


class Recorder:
    """Collects spans and work counters for one traced run."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self.counters: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self._seen_algebras = weakref.WeakSet()
        self._last_rep_size = 0
        self._memory_owner = None  # the span that started tracemalloc

    def begin(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, 0.0, parent, self.op)
        index = len(self.spans)
        if self.memory and self._memory_owner is not None:
            cur, peak = tracemalloc.get_traced_memory()
            top = self.spans[parent]
            top.peak_mem = max(top.peak_mem, peak)
            tracemalloc.reset_peak()
            span.base_mem = span.peak_mem = cur
        elif self.memory and name in PEAK_STAGES:
            tracemalloc.start()
            self._memory_owner = index
        self.spans.append(span)
        self.stack.append(index)
        span.start = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if self._memory_owner is None:
            return
        _cur, peak = tracemalloc.get_traced_memory()
        span.peak_mem = max(span.peak_mem, peak)
        if index == self._memory_owner:
            tracemalloc.stop()
            self._memory_owner = None
            return
        if span.layer != TRACE_LAYER:
            top = self.spans[span.parent]
            top.peak_mem = max(top.peak_mem, span.peak_mem)
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    # -- work counters, computed from arguments and results -----------------

    def count(self, name: str, args: tuple, result) -> None:
        if isinstance(result, StarAlgebra) and result not in self._seen_algebras:
            self._seen_algebras.add(result)
            struct = result.struct
            self.counters["algebras.struct_mb"] += struct.nbytes / 1e6
            self.counters["algebras.struct_nnz"] += np.count_nonzero(struct)
            self.counters["algebras.struct_cells"] += float(struct.size)
        if isinstance(result, Representation):
            self._last_rep_size = result.size
        if name == "morita.linking_system":
            self.maxima["morita.linking_dim"] = max(
                self.maxima["morita.linking_dim"], result.algebra.dimension)
        elif name == "morita.positivity":
            e = args[0].equivalence
            m = sum(e.dims[z] for z in e.base.space)
            self.maxima["morita.gram_dim"] = max(
                self.maxima["morita.gram_dim"], m * self._last_rep_size)
        elif name == "modelio.parse_model":
            source = args[0]
            if source.endswith(".model") and "\n" not in source:
                self.counters["modelio.bytes"] += os.path.getsize(source)
            else:
                self.counters["modelio.bytes"] += len(source.encode())
        elif name == "modelio.serialize_model":
            self.counters["modelio.bytes"] += len(result.encode())


def _wrap_function(rec: Recorder, fn, name: str, layer: str):
    counted = layer in ("algebras", "morita", "modelio", "runtime")

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        index = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if counted:
            with rec.span("trace.count", TRACE_LAYER):
                rec.count(name, args, result)
        return result

    return wrapped


def _wrap_triples(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapped(self):
        n = 0
        try:
            for triple in fn(self):
                n += 1
                yield triple
        finally:
            rec.counters["groupoids.composable_triples"] += n

    return wrapped


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"groupoidal.{layer}") for layer in LAYERS}


def wrapped_targets(modules: dict) -> dict:
    """Function objects to wrap, mapped to (span name, layer)."""
    targets = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            stage = STAGES.get((layer, attr))
            if stage is None and attr.startswith("_"):
                continue
            targets[obj] = (f"{layer}.{stage or attr}", layer)
    return targets


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap every layer boundary for the duration of the block."""
    modules = layer_modules()
    targets = wrapped_targets(modules)
    wrappers = {fn: _wrap_function(rec, fn, name, layer)
                for fn, (name, layer) in targets.items()}
    patches = []  # (owner, attribute, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "groupoidal"
                               or mod_name.startswith("groupoidal.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((mod, attr, obj))
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for attr in names:
            original = cls.__dict__[attr]
            wrappers[original] = _wrap_function(rec, original, f"{layer}.{attr}", layer)
            patches.append((cls, attr, original))
    gpd_cls = modules["groupoids"].FiniteGroupoid
    original = gpd_cls.__dict__["composable_triples"]
    wrappers[original] = _wrap_triples(rec, original)
    patches.append((gpd_cls, "composable_triples", original))

    try:
        for owner, attr, original in patches:
            setattr(owner, attr, wrappers[original])
        yield patches
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


# Spans whose own self time and call count are reported.
SELF_TIMES = (
    "groupoids.validate_groupoid", "groupoids.verify_groupoid_equivalence",
    "bundles.validate_fell_bundle", "bundles.verify_bundle_equivalence",
    "bundles.exchange_residual", "bundles.symmetric_action_equivalence",
    "bundles.quotient_fell_bundle",
    "algebras.section_algebra", "algebras.regular_representation",
    "algebras.star_structure_report", "algebras.check_star_algebra", "algebras.unit",
    "algebras.verify_algebra_iso",
    "morita.linking_system", "morita.positivity", "morita.fullness",
    "morita.identify_corner",
    "modelio.parse_model", "modelio.serialize_model",
)
CALLS = ("bundles.validate_fell_bundle", "algebras.regular_representation")


def per_layer_metrics(timing: Recorder, memory: Recorder, n_ops: int,
                      traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of a traced run, by name with their units.

    Times and counts are per traced operation; peaks, ``gram_dim`` and
    ``linking_dim`` are maxima.  Peaks come from the memory recorder,
    everything else from the timing recorder.
    """
    per = 1.0 / max(n_ops, 1)
    by_layer, by_name, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, self_s in zip(timing.spans, self_times(timing.spans)):
        by_layer[s.layer] += self_s
        by_name[s.name] += self_s
        calls[s.name] += 1
    peaks = defaultdict(float)
    for s in memory.spans:
        peaks[s.name] = max(peaks[s.name], (s.peak_mem - s.base_mem) / 1e6)
    c, mx = timing.counters, timing.maxima

    out = {}
    for layer in LAYERS + (TRACE_LAYER,):
        out[f"{layer}.self_s"] = (by_layer[layer] * per, "s")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (by_name[name] * per, "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls[name] * per, "count")
    for name in sorted(PEAK_STAGES):
        out[f"{name}.peak_mb"] = (peaks[name], "MB")
    cells = c["algebras.struct_cells"]
    out.update({
        "groupoids.composable_triples": (c["groupoids.composable_triples"] * per, "count"),
        "algebras.struct_mb": (c["algebras.struct_mb"] * per, "MB"),
        "algebras.struct_density": (c["algebras.struct_nnz"] / cells if cells else 0.0,
                                    "ratio"),
        "morita.gram_dim": (mx["morita.gram_dim"], "count"),
        "morita.linking_dim": (mx["morita.linking_dim"], "count"),
        "modelio.bytes": (c["modelio.bytes"] * per, "bytes"),
        "trace.op_s": (traced_s * per, "s"),
        "trace.overhead_s": ((traced_s - untraced_s) * per, "s"),
    })
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}


def write_spans(rec: Recorder, path: str) -> None:
    """Write the recorded spans as tab-separated lines, one per span."""
    selfs = self_times(rec.spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\top\tname\tstart_s\tend_s\tself_s\tpeak_mb\n")
        for i, (s, self_s) in enumerate(zip(rec.spans, selfs)):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{i}\t{parent}\t{s.op}\t{s.name}\t{s.start:.6f}\t{s.end:.6f}\t"
                     f"{self_s:.6f}\t{(s.peak_mem - s.base_mem) / 1e6:.3f}\n")
