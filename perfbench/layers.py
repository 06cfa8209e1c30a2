"""Per-layer metrics from span dumps, and the span coverage check.

A span's self time is its duration minus the part of it that its child
spans cover.  Work the program hands to a helper thread (the vector
backend sweeps on one) records spans with no parent in that thread; in
the single-caller workloads they are adopted by the innermost span of the
main thread that contains them.  In the server, two requests run at once,
so nothing is adopted there.

Units of aggregation:

* ``cold_cli`` and ``whatif_chain`` run one op at a time: a time metric
  is the median over the timed ops of the layer's summed self time in
  each op, and a count is the median per op.  A layer that runs only in
  set-up (``delta.snapshot`` on ``whatif_chain``, ``netlist.generate``)
  reports its median per call instead.
* ``serve_mix`` overlaps requests: a time metric is the median per call,
  and a count is the total over the mix.
"""

from __future__ import annotations

import statistics

from harness import CheckFailed, median

#: Per-layer metric -> the span names whose self time it sums.
TIME_GROUPS = {
    "netlist.parse_s": ("netlist.parse",),
    "netlist.compile_s": ("netlist.compile",),
    "netlist.generate_s": ("netlist.generate",),
    "probability.sp_s": ("probability.sp", "probability.sp_topological"),
    "epp.engine_init_s": ("epp.engine_init",),
    "epp.analyze_self_s": ("epp.analyze",),
    "plan.batch_plan_s": ("plan.batch_plan",),
    "plan.chunk_plan_s": ("plan.chunk_plan",),
    "plan.cone_index_s": ("plan.cone_index",),
    "plan.cluster_order_s": ("plan.cluster_order",),
    "sweep.analyze_sites_s": ("sweep.analyze_sites",),
    "sweep.pack_sites_s": ("sweep.pack_sites",),
    "sweep.materialize_s": ("sweep.materialize",),
    "ser.analyze_self_s": ("ser.analyze",),
    "ser.report_for_s": ("ser.report_for",),
    "delta.snapshot_s": ("delta.snapshot",),
    "delta.apply_s": ("delta.apply",),
    "delta.dirty_mask_s": ("delta.dirty_mask",),
    "delta.analyze_delta_self_s": ("delta.analyze_delta",),
    "server.decode_s": ("server.decode", "server.parse"),
    "server.encode_s": ("server.encode",),
    "server.store_get_s": ("server.store_get",),
    "server.store_put_s": ("server.store_put",),
}

#: The per-layer metrics, in the order BENCHMARK.json lists them:
#: (name, unit, better).
PER_LAYER = (
    ("cli.python_start_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("netlist.parse_s", "s", "lower"),
    ("netlist.compile_s", "s", "lower"),
    ("netlist.generate_s", "s", "lower"),
    ("netlist.nodes", "count", "lower"),
    ("probability.sp_s", "s", "lower"),
    ("probability.sp_calls", "count", "lower"),
    ("epp.engine_init_s", "s", "lower"),
    ("epp.analyze_self_s", "s", "lower"),
    ("epp.error_pct", "%", "lower"),
    ("epp.error_ref_stderr_pct", "%", "lower"),
    ("plan.batch_plan_s", "s", "lower"),
    ("plan.chunk_plan_s", "s", "lower"),
    ("plan.chunk_plans", "count", "lower"),
    ("plan.cone_index_s", "s", "lower"),
    ("plan.cluster_order_s", "s", "lower"),
    ("sweep.analyze_sites_s", "s", "lower"),
    ("sweep.pack_sites_s", "s", "lower"),
    ("sweep.materialize_s", "s", "lower"),
    ("sweep.chunks", "count", "lower"),
    ("sweep.cells_computed", "count", "lower"),
    ("sweep.cells_computed_frac", "ratio", "lower"),
    ("sweep.dense_fallback_sweeps", "count", "lower"),
    ("sweep.computed_gb_per_s", "GB/s", "higher"),
    ("ser.analyze_self_s", "s", "lower"),
    ("ser.report_for_s", "s", "lower"),
    ("delta.snapshot_s", "s", "lower"),
    ("delta.apply_s", "s", "lower"),
    ("delta.dirty_mask_s", "s", "lower"),
    ("delta.analyze_delta_self_s", "s", "lower"),
    ("delta.dirty_sites", "count", "lower"),
    ("delta.reuse_frac", "ratio", "higher"),
    ("server.decode_s", "s", "lower"),
    ("server.encode_s", "s", "lower"),
    ("server.store_get_s", "s", "lower"),
    ("server.store_put_s", "s", "lower"),
    ("server.unaccounted_ms", "ms", "lower"),
    ("server.cache_hit_frac", "ratio", "higher"),
    ("server.engines_built", "count", "lower"),
    ("server.coalesced", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.degraded", "count", "lower"),
    ("host.copy_gb_per_s", "GB/s", "higher"),
    ("host.cpu_count", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_LIBRARY_CORE = {
    "netlist.parse", "netlist.compile", "probability.sp", "probability.sp_topological",
    "epp.engine_init", "plan.batch_plan", "plan.chunk_plan", "plan.cone_index",
    "plan.cluster_order",
}

#: Entry points that must record at least one span on each workload: the
#: ones the layer table says move that workload's end-to-end metrics.
EXPECTED_SPANS = {
    "cold_cli": _LIBRARY_CORE | {
        "netlist.generate", "epp.analyze", "sweep.analyze_sites", "ser.analyze",
    },
    "whatif_chain": _LIBRARY_CORE | {
        "sweep.pack_sites", "sweep.materialize", "ser.report_for",
        "delta.snapshot", "delta.apply", "delta.dirty_mask", "delta.analyze_delta",
    },
    "serve_mix": {
        "netlist.parse", "netlist.generate", "epp.engine_init", "probability.sp",
        "sweep.pack_sites", "sweep.materialize", "ser.report_for",
        "delta.snapshot", "delta.analyze_delta", "delta.apply", "delta.dirty_mask",
        "server.decode", "server.parse", "server.encode",
        "server.store_get", "server.store_put",
    },
}

#: Benchmark-owned span names (not program entry points).
OWN_SPANS = {"op", "setup", "process"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs",
                 "self_ns", "unit")

    def __init__(self, raw):
        (self.id, self.parent, self.name, self.start, self.end, self.thread,
         self.attrs) = raw
        self.attrs = self.attrs or {}
        self.self_ns = 0
        self.unit = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def _covered(intervals, lo, hi) -> int:
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def index_dump(dump: dict, adopt_orphans: bool) -> list[Span]:
    """Spans of one process with self times and their op unit filled in."""
    spans = [Span(raw) for raw in dump["spans"]]
    by_id = {span.id: span for span in spans}
    if adopt_orphans:
        main = dump["main_thread"]
        hosts = sorted((s for s in spans if s.thread == main), key=lambda s: s.start)
        for span in spans:
            if span.parent is None and span.thread != main and span.name not in OWN_SPANS:
                best = None
                for host in hosts:
                    if host.start > span.start:
                        break
                    if host.end >= span.end:
                        best = host
                if best is not None:
                    span.parent = best.id
    children: dict[int, list] = {}
    for span in spans:
        if span.parent in by_id:
            children.setdefault(span.parent, []).append((span.start, span.end))
    for span in spans:
        span.self_ns = span.duration_ns - _covered(
            children.get(span.id, ()), span.start, span.end)
    for span in spans:
        node = span
        while node is not None and node.name != "op":
            node = by_id.get(node.parent)
        if node is not None:
            span.unit = node.attrs.get("index", node.id)
        elif dump.get("op") is not None:
            span.unit = dump["op"]
    return spans


def _outer(spans, names):
    """Spans of ``names`` whose parent is not itself one of ``names``."""
    ids = {s.id: s for s in spans}
    return [s for s in spans if s.name in names
            and not (s.parent in ids and ids[s.parent].name in names)]


def layer_metrics(workload: str, dumps: list[dict]) -> tuple[dict, list[Span]]:
    """Per-layer metrics of one traced pass, and every span it recorded."""
    serving = workload == "serve_mix"
    spans = []
    for dump in dumps:
        spans.extend(index_dump(dump, adopt_orphans=not serving))
    units = sorted({s.unit for s in spans if s.unit is not None})
    out = {}

    def per_unit(select, value):
        """Median over ops of ``value`` summed over the selected spans."""
        totals = {unit: 0.0 for unit in units}
        chosen = [s for s in spans if select(s)]
        for span in chosen:
            if span.unit is not None:
                totals[span.unit] += value(span)
        return median(totals.values()), chosen

    for metric, names in TIME_GROUPS.items():
        names = set(names)
        if serving:
            calls = [s.self_ns for s in spans if s.name in names]
            out[metric] = median(calls) / 1e9
            continue
        value, chosen = per_unit(lambda s: s.name in names, lambda s: s.self_ns)
        if not any(s.unit is not None for s in chosen) and chosen:
            value = median(s.self_ns for s in chosen)
        out[metric] = value / 1e9

    def count(select, value=lambda s: 1):
        if serving:
            return float(sum(value(s) for s in spans if select(s)))
        return per_unit(lambda s: s.unit is not None and select(s), value)[0]

    sp_outer = {id(s) for s in _outer(spans, {"probability.sp", "probability.sp_topological"})}
    out["probability.sp_calls"] = count(lambda s: id(s) in sp_outer)
    out["plan.chunk_plans"] = count(lambda s: s.name == "plan.chunk_plan")
    sweeps = {"sweep.analyze_sites", "sweep.pack_sites"}
    for key in ("chunks", "cells_computed", "dense_fallback_sweeps"):
        out[f"sweep.{key}"] = count(lambda s: s.name in sweeps,
                                    lambda s, key=key: s.attrs.get(key, 0))
    sweep_spans = [s for s in spans if s.name in sweeps]
    computed = sum(s.attrs.get("cells_computed", 0) for s in sweep_spans)
    total = sum(s.attrs.get("cells_total", 0) for s in sweep_spans)
    sweep_ns = sum(s.self_ns for s in sweep_spans)
    out["sweep.cells_computed_frac"] = computed / total if total else 0.0
    # Four float64 state planes per computed cell, over the sweep's own
    # time: the bytes the kernels *computed*, not bytes moved.
    out["sweep.computed_gb_per_s"] = 32.0 * computed / sweep_ns if sweep_ns else 0.0
    deltas = [s for s in spans if s.name == "delta.analyze_delta"]
    out["delta.dirty_sites"] = (
        float(sum(s.attrs["dirty"] for s in deltas)) if serving
        else median(s.attrs["dirty"] for s in deltas))
    sites = sum(s.attrs["sites"] for s in deltas)
    out["delta.reuse_frac"] = (
        sum(s.attrs["reused"] for s in deltas) / sites if sites else 0.0)
    compiles = [s for s in spans if s.name == "netlist.compile" and "nodes" in s.attrs]
    out["netlist.nodes"] = float(compiles[0].attrs["nodes"]) if compiles else 0.0
    out["server.engines_built"] = float(sum(1 for s in spans if s.name == "epp.engine_init")
                                        if serving else 0)
    return out, spans


def check_coverage(workload: str, spans) -> None:
    seen = {s.name for s in spans}
    missing = sorted(EXPECTED_SPANS[workload] - seen)
    if missing:
        raise CheckFailed(
            f"span coverage: no span recorded for {', '.join(missing)} on {workload} "
            "(a wrapper was bypassed or the layer did not run)")


def unaccounted_ms(spans, records) -> tuple[float, str]:
    """Client latency of hits not covered by server-side spans.

    The request's own connection task carries its id into ``decode``,
    ``parse`` and ``encode``, so those are matched per request.  The
    worker-thread store lookup cannot be matched to a request from
    outside the program; its median per hit is subtracted instead.
    """
    loop_ns: dict[str, int] = {}
    for span in spans:
        rid = span.attrs.get("rid")
        if rid is not None and span.name in ("server.decode", "server.parse",
                                             "server.encode"):
            loop_ns[rid] = loop_ns.get(rid, 0) + span.self_ns
    hits = [r for r in records if r["kind"] == "hit" and "error" not in r
            and r["rid"] in loop_ns]
    if not hits:
        return 0.0, "no matched hits"
    store = [s.self_ns for s in spans if s.name == "server.store_get"
             and s.attrs.get("kind") == "result" and s.attrs.get("hit")]
    residual = statistics.median(r["latency_s"] * 1e9 - loop_ns[r["rid"]] for r in hits)
    return (residual - median(store)) / 1e6, (
        f"per hit: latency minus its decode/parse/encode spans ({len(hits)} matched), "
        "then minus the median store hit (difference of medians)")
