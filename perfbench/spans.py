"""Spans around the program's public layer entry points, from the outside.

:func:`install` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records one span — name, start, end, parent span, thread and
a few counts — into an in-memory :class:`Recorder`.  Nothing is written
until :meth:`Recorder.dump`.  The program's own code is unchanged: the
wrappers are installed on the imported modules and classes, and every
module that bound a wrapped function with ``from ... import`` gets the
wrapper too.  A binding the installer misses shows up as an entry point
with no spans, which the coverage check in :mod:`layers` rejects.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name).  The span name's prefix is the
#: layer; see :data:`layers.LAYER_GROUPS` for how spans become metrics.
ENTRY_POINTS = (
    ("repro.netlist.bench", "parse_bench", "netlist.parse"),
    ("repro.netlist.circuit", "Circuit.compiled", "netlist.compile"),
    ("repro.netlist.generate", "generate_iscas", "netlist.generate"),
    ("repro.probability", "signal_probabilities", "probability.sp"),
    ("repro.probability.signal_prob", "compute_signal_probabilities",
     "probability.sp_topological"),
    ("repro.core.epp", "EPPEngine.__init__", "epp.engine_init"),
    ("repro.core.epp", "EPPEngine.analyze", "epp.analyze"),
    ("repro.core.epp_batch", "BatchPlan.for_compiled", "plan.batch_plan"),
    ("repro.core.epp_batch", "BatchPlan.compact_chunk_plan", "plan.chunk_plan"),
    ("repro.core.schedule", "ConeIndex.for_compiled", "plan.cone_index"),
    ("repro.core.schedule", "cone_cluster_order", "plan.cluster_order"),
    ("repro.core.epp_batch", "BatchEPPBackend.analyze_sites", "sweep.analyze_sites"),
    ("repro.core.epp_batch", "BatchEPPBackend.pack_sites", "sweep.pack_sites"),
    ("repro.core.epp_batch", "BatchEPPBackend.materialize", "sweep.materialize"),
    ("repro.core.analysis", "SERAnalyzer.analyze", "ser.analyze"),
    ("repro.core.analysis", "SERAnalyzer.report_for", "ser.report_for"),
    ("repro.core.epp", "EPPEngine.snapshot", "delta.snapshot"),
    ("repro.core.epp_delta", "EditSet.apply", "delta.apply"),
    ("repro.core.epp_delta", "dirty_mask", "delta.dirty_mask"),
    ("repro.core.epp", "EPPEngine.analyze_delta", "delta.analyze_delta"),
    ("repro.server.protocol", "decode_line", "server.decode"),
    ("repro.server.protocol", "parse_request", "server.parse"),
    ("repro.server.protocol", "encode", "server.encode"),
    ("repro.server.artifacts", "ArtifactStore.get", "server.store_get"),
    ("repro.server.artifacts", "ArtifactStore.put", "server.store_put"),
)

#: Request-line field that carries the benchmark's request id in traced
#: serve runs.  The server ignores unknown fields.
REQUEST_ID_FIELD = "perfbench_rid"

_SWEEP_COUNTERS = ("cells_computed", "cells_total", "chunks", "dense_fallback_sweeps")


class Recorder:
    """In-memory span store.  ``enabled`` gates recording, not wrapping."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._request = contextvars.ContextVar("perfbench_request", default=None)

    def call(self, name, fn, args, kwargs, after=None, before=None):
        """Run ``fn`` inside a span; ``after(args, result, before(args))``
        returns the span's counts."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        snapshot = None if before is None else before(args)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
        attrs = None if after is None else after(args, result, snapshot)
        request = self._request.get()
        if request is not None and not (attrs and "rid" in attrs):
            attrs = dict(attrs or {}, rid=request)
        self.spans.append((span_id, parent, name, start, end,
                           threading.get_ident(), attrs))
        return result

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span around the benchmark's own code (ops, set-up)."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            if self.enabled:
                self.spans.append((span_id, parent, name, start, end,
                                   threading.get_ident(), attrs or None))

    def to_dict(self) -> dict:
        return {
            "pid": os.getpid(),
            "main_thread": threading.main_thread().ident,
            "spans": [list(span) for span in self.spans],
        }

    def dump(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp, path)


@contextlib.contextmanager
def recording(recorder, name, **attrs):
    """A benchmark-owned span with recording switched on, if tracing at all."""
    if recorder is None:
        yield
        return
    recorder.enabled = True
    try:
        with recorder.span(name, **attrs):
            yield
    finally:
        recorder.enabled = False


# --------------------------------------------------------------- counts


def _sweep_stats(args):
    stats = args[0].sweep_stats
    return {key: stats.get(key, 0) for key in _SWEEP_COUNTERS}


def _sweep_counts(args, result, before):
    """What this call added to the backend's cumulative ``sweep_stats``."""
    now = _sweep_stats(args)
    return {key: now[key] - before[key] for key in _SWEEP_COUNTERS}


def _compiled_counts(args, result, before):
    return {"nodes": result.n}


def _request_id(args, result, before):
    return {"rid": result.get(REQUEST_ID_FIELD)}


def _delta_counts(args, result, before):
    stats = result.stats
    return {"dirty": stats["dirty"], "reused": stats["reused"],
            "sites": stats["sites"]}


def _store_get_counts(args, result, before):
    return {"kind": args[1], "hit": result is not None}


_BEFORE = {
    "sweep.analyze_sites": _sweep_stats,
    "sweep.pack_sites": _sweep_stats,
}

_AFTER = {
    "sweep.analyze_sites": _sweep_counts,
    "sweep.pack_sites": _sweep_counts,
    "netlist.compile": _compiled_counts,
    "delta.analyze_delta": _delta_counts,
    "delta.snapshot": _delta_counts,
    "server.decode": _request_id,
    "server.store_get": _store_get_counts,
}


# ------------------------------------------------------------ wrapping


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _make_wrapper(recorder, name, fn):
    after, before = _AFTER.get(name), _BEFORE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, after, before)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _make_decode_wrapper(recorder, fn):
    """``decode_line`` also tags the rest of the request's task with its id.

    The id stays set in the asyncio task that serves the connection, so
    the same request's ``parse_request`` and ``encode`` spans carry it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        obj = recorder.call("server.decode", fn, args, kwargs, _request_id)
        if recorder.enabled:
            recorder._request.set(obj.get(REQUEST_ID_FIELD))
        return obj

    wrapper.__perfbench_original__ = fn
    return wrapper


def install(recorder: Recorder, prefixes=None) -> list[str]:
    """Wrap every entry point whose span name starts with one of ``prefixes``.

    Returns the span names installed.  Functions are replaced in their
    defining module and in every loaded ``repro`` module that holds the
    same object; methods are replaced on their class.
    """
    installed = []
    replaced = {}
    for module_name, path, name in ENTRY_POINTS:
        if prefixes is not None and not name.startswith(tuple(prefixes)):
            continue
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(raw, "__perfbench_original__", None) is not None:
            installed.append(name)
            continue
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if name == "server.decode":
            wrapper = _make_decode_wrapper(recorder, fn)
        else:
            wrapper = _make_wrapper(recorder, name, fn)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        if not isinstance(owner, type):
            replaced[id(fn)] = (fn, wrapper)
        installed.append(name)
    # Rebind names that other modules imported with ``from ... import``.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return installed


#: Which layers to wrap in each kind of traced process.
LIBRARY_LAYERS = ("netlist", "probability", "epp", "plan", "sweep", "ser", "delta")
SERVER_LAYERS = LIBRARY_LAYERS + ("server",)


def preload(prefixes) -> None:
    """Import every module named by the selected entry points.

    Importing first means a later ``from ... import`` inside the program
    binds the wrapper, not the original.
    """
    for module_name, _, name in ENTRY_POINTS:
        if name.startswith(tuple(prefixes)):
            importlib.import_module(module_name)
    importlib.import_module("repro.cli")
    if "server" in prefixes:
        importlib.import_module("repro.server.service")
