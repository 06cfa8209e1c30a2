"""The process that runs one ``whatif_chain`` pass through the library API.

Usage: ``python perfbench/whatif_child.py CONFIG_JSON``

Parses the netlist, builds ``SERAnalyzer(circuit)`` with its default
engine-computed signal probabilities, takes ``snapshot()`` and
``report_for()`` (the set-up, repeated ``setup_reps`` times on a fresh
parse, each after the previous analyzer is released, so the peak RSS is
that of one analyzer and its chain), then applies the given edits one at
a time, each followed by ``analyze_delta`` and ``report_for``, until the
time budget is spent.  The calibration kernel
(:func:`harness.calibration_s`) runs before every set-up and every edit,
and once after the last.  Writes per-edit timings and counts, the kernel
times, and the final revision's packed arrays, for the parent to check.
"""

from __future__ import annotations

import json
import sys
import time

import harness
import spans
from spans import recording


def edit_set(op):
    """One wire-style edit ``[kind, node, *args]`` as an ``EditSet``."""
    from repro.core.epp_delta import EditSet
    from repro.netlist.gate_types import GateType

    kind, node, *args = op
    if kind == "harden":
        return EditSet().harden(node, float(args[0]))
    if kind == "tmr":
        return EditSet().tmr(node)
    if kind == "replace_gate":
        return EditSet().replace_gate(node, GateType[args[0]])
    raise ValueError(f"unknown edit kind {kind!r}")


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    recorder = None
    if config["spans_out"]:
        spans.preload(spans.LIBRARY_LAYERS)
        recorder = spans.Recorder()
        recorder.enabled = False
        spans.install(recorder, spans.LIBRARY_LAYERS)

    import numpy as np

    from repro.core.analysis import SERAnalyzer
    from repro.netlist.bench import parse_bench_file

    def setup():
        circuit = parse_bench_file(config["netlist"])
        analyzer = SERAnalyzer(circuit)
        snap = analyzer.snapshot()
        analyzer.report_for(snap)
        return analyzer, snap

    setup_wall, setup_cpu, calibration = [], [], []
    for _ in range(config["setup_reps"]):
        analyzer = snap = None
        calibration.append(harness.calibration_s())
        start, cpu_start = time.perf_counter(), time.process_time()
        with recording(recorder, "setup"):
            analyzer, snap = setup()
        setup_wall.append(time.perf_counter() - start)
        setup_cpu.append(time.process_time() - cpu_start)

    ops = []
    revision = snap
    loop_start = time.perf_counter()
    deadline = loop_start + config["seconds"]
    for index, op in enumerate(config["edits"]):
        if time.perf_counter() >= deadline:
            break
        edits = edit_set(op)
        paused = time.perf_counter()
        calibration.append(harness.calibration_s())
        deadline += time.perf_counter() - paused
        cpu_start = time.process_time()
        start = time.perf_counter()
        with recording(recorder, "op", index=index):
            delta = analyzer.analyze_delta(revision, edits)
            analyzer.report_for(delta)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        stats = delta.stats
        ops.append({"kind": op[0], "seconds": elapsed, "cpu_s": cpu,
                    "dirty": int(stats["dirty"]), "reused": int(stats["reused"]),
                    "sites": int(stats["sites"])})
        revision = delta
    loop_wall = time.perf_counter() - loop_start
    calibration.append(harness.calibration_s())
    harness.stop_calibrator()

    np.savez(config["packed_out"], *revision.packed)
    with open(config["result_out"], "w", encoding="utf-8") as handle:
        json.dump({"setup_wall_s": setup_wall, "setup_cpu_s": setup_cpu, "ops": ops,
                   "loop_wall_s": loop_wall, "calibration_s": calibration,
                   "site_names": list(revision.site_names)},
                  handle)
    if recorder is not None:
        recorder.dump(config["spans_out"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
