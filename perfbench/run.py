"""The repo benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace {0,1}``, run from the root of a source checkout.

Workloads (see each module's docstring for what one run does and why):

* ``cold_cli``     — :mod:`wl_cold_cli`, one user running ``repro analyze``;
* ``whatif_chain`` — :mod:`wl_whatif`, a seeded incremental edit chain;
* ``serve_mix``    — :mod:`wl_serve`, a seeded request mix against ``repro serve``.

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` measures it untraced and then again with spans
around the program's layer entry points (:mod:`spans`), and prints the
per-layer metrics (:mod:`layers`), including the tracing overhead.  Every
run checks the program's outputs first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

import harness
import layers
import spans
from harness import CheckFailed, metric
from wl_cold_cli import ColdCLI
from wl_serve import ServeMix
from wl_whatif import WhatIfChain

WORKLOADS = {cls.name: cls for cls in (ColdCLI, WhatIfChain, ServeMix)}

#: A run must end within 180 s; past this the run aborts without a result.
WATCHDOG_S = 170

#: End-to-end metrics: (name, unit, what it is).
#: CPU times are scaled to the reference host speed on cold_cli and
#: whatif_chain (harness.calibration_s), and as measured on serve_mix.
END_TO_END = (
    ("setup_s", "s", "CPU time the program spends on set-up before the first timed op, "
                     "median of the run's set-ups"),
    ("op_cpu_ms", "ms", "CPU time the program spends on one op, median over the run"),
    ("peak_rss_mb", "MB", "peak RSS of the process that runs the program"),
)

#: Printed with every run but not gated.  On the shared 2-vCPU Xeon VM the
#: benchmark was built on, the wall time of a fixed pure-Python loop swung
#: by up to 3x between one-second samples, and the wall-clock medians of
#: ten 20-25 s runs spread by 20-37% of their median: more than the
#: largest bound (0.25) allows.  CPU time swung less, but still by up to
#: 1.6x from one minute to the next, hence harness.calibration_s.
WALL_CLOCK = (
    ("setup_wall_s", "s", "wall time of set-up, median of the run's set-ups"),
    ("op_p50_ms", "ms", "median latency of one op as its caller sees it"),
    ("ops_per_s", "1/s", "completed ops divided by the wall time of the timed loop"),
)

#: The workload-specific names under which each workload's op metrics are
#: printed: (alias, scale, unit).
ALIASES = {
    "cold_cli": {"op_p50_ms": ("analyze_p50_s", 1e-3, "s"),
                 "ops_per_s": ("analyzes_per_s", 1.0, "1/s")},
    "whatif_chain": {"op_p50_ms": ("whatif_p50_s", 1e-3, "s"),
                     "ops_per_s": ("whatif_edits_per_s", 1.0, "1/s")},
    "serve_mix": {"op_p50_ms": ("serve_p50_ms", 1.0, "ms"),
                  "ops_per_s": ("serve_rps", 1.0, "1/s")},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def describe(workload: str, result) -> list[str]:
    """Human-readable lines: every end-to-end metric with its unit."""
    e2e = result.end_to_end()
    wall = result.wall_clock()
    lines = [f"# workload {workload}: {result.attempted} ops attempted, "
             f"{result.failed} failed, {len(result.latencies_s)} latency samples, "
             f"{len(result.cpu_s)} CPU samples, {len(result.setup_cpu_s)} set-ups"]
    for name, unit, _ in END_TO_END:
        lines.append(f"{name} = {e2e[name]:.6g} {unit}")
    raw = result.raw_cpu()
    lines += ["# as measured, before scaling to the reference host speed (not gated):",
              f"setup_raw_s = {raw['setup_raw_s']:.6g} s",
              f"op_cpu_raw_ms = {raw['op_cpu_raw_ms']:.6g} ms",
              f"host_speed = {raw['host_speed']:.6g} x reference "
              f"({len(result.calibration_s or ())} kernel samples)"]
    lines.append("# wall clock (not gated):")
    for name, unit, _ in WALL_CLOCK:
        lines.append(f"{name} = {wall[name]:.6g} {unit}")
    for name, (alias, scale, unit) in ALIASES[workload].items():
        lines.append(f"{alias} = {wall[name] * scale:.6g} {unit}")
    lines.append(f"failed_frac = {result.failed / max(1, result.attempted):.6g} -")
    tail = harness.tail(result.latencies_s)
    label = "serve_tail_ms" if workload == "serve_mix" else "op_tail_ms"
    if tail is None:
        lines.append(f"{label} = n/a ms (fewer than 11 samples)")
    else:
        lines.append(f"{label} = {1000 * tail[1]:.6g} ms (p{tail[0]:.1f}, "
                     f"{len(result.latencies_s)} samples)")
    accuracy = result.extra.get("accuracy")
    if accuracy:
        lines.append(
            f"epp_error_pct = {accuracy['epp_error_pct']:.4f} % over {accuracy['sites']} "
            f"sites; reference: random simulation, {accuracy['vectors']} vectors, "
            f"standard error {accuracy['ref_stderr_pct']:.4f} % of the total "
            f"(<= {accuracy['ref_stderr_site_max']:.5f} per site)")
    if workload == "serve_mix":
        records = result.extra.get("records", [])
        for kind in ("hit", "miss", "upload", "delta"):
            rows = [r for r in records if r["kind"] == kind and "error" not in r]
            cached = sum(1 for r in rows if r["cached"])
            lines.append(f"# class {kind}: {len(rows)} ok, {cached} cached, p50 "
                         f"{1000 * harness.median(r['latency_s'] for r in rows):.3f} ms")
    if workload == "whatif_chain":
        for kind in ("harden", "tmr", "replace_gate"):
            rows = [op for op in result.extra.get("ops", []) if op["kind"] == kind]
            lines.append(f"# edit {kind}: {len(rows)} edits, p50 "
                         f"{harness.median(op['seconds'] for op in rows):.4f} s, dirty p50 "
                         f"{harness.median(op['dirty'] for op in rows):.0f}")
    return lines + result.lines


def host_metrics() -> tuple[dict, str]:
    """Copy bandwidth of this host: the ceiling for the sweep's bytes/s."""
    import numpy as np

    nbytes = 256 * 1024 * 1024
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    cpus = len(os.sched_getaffinity(0))
    note = (f"# host.copy_gb_per_s: NumPy copy of a {nbytes >> 20} MiB array; "
            f"reported last-level cache {_llc_size()}")
    return ({"host.copy_gb_per_s": nbytes / harness.median(times) / 1e9,
             "host.cpu_count": float(cpus)}, note)


def _llc_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    best = (-1, "unknown")
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as level, open(f"{base}/{entry}/size") as size:
                best = max(best, (int(level.read()), size.read().strip()))
        except (OSError, ValueError):
            continue
    return best[1]


def startup_metrics(tmp) -> dict:
    """Interpreter start and ``import repro.cli`` of a fresh child, medians."""
    def best_of(code):
        walls = [harness.run_child([sys.executable, "-c", code], tmp / "stderr.txt").wall_s
                 for _ in range(5)]
        return harness.median(walls)

    start = best_of("pass")
    imported = best_of("import repro.cli")
    return {"cli.python_start_s": start, "cli.import_s": imported - start}


def check_determinism(plain, traced) -> None:
    """Per-op counts of the untraced and traced passes agree on their common prefix."""
    for stream, ours in plain.counts.items():
        theirs = traced.counts.get(stream, [])
        n = min(len(ours), len(theirs))
        if n == 0:
            raise CheckFailed(f"determinism: a pass completed no ops on {stream}")
        for index in range(n):
            if ours[index] != theirs[index]:
                raise CheckFailed(f"determinism: op {index} of {stream} differs between two "
                                  f"passes with the same seed: {ours[index]} vs {theirs[index]}")


def measure(args, tmp) -> tuple[dict, list[str], int, int]:
    workload = WORKLOADS[args.workload](args.seed, tmp)
    workload.prepare()
    plain = workload.run_pass(args.seconds)
    lines = describe(args.workload, plain)
    if not args.trace:
        e2e = plain.end_to_end()
        metrics = {name: metric(e2e[name], unit) for name, unit, _ in END_TO_END}
        return metrics, lines, plain.attempted, plain.failed

    recorder = spans.Recorder()
    recorder.enabled = False
    spans.preload(spans.LIBRARY_LAYERS)
    spans.install(recorder, spans.LIBRARY_LAYERS)
    traced = workload.run_pass(args.seconds, recorder=recorder, setup_reps=1)
    check_determinism(plain, traced)
    values = {name: 0.0 for name, _, _ in layers.PER_LAYER}
    found, all_spans = layers.layer_metrics(args.workload, traced.dumps)
    layers.check_coverage(args.workload, all_spans)
    values.update(found)
    values.update(workload.layer_values(traced, all_spans))
    values.update(startup_metrics(tmp))
    host, note = host_metrics()
    values.update(host)
    base = plain.end_to_end()["op_cpu_ms"]
    values["trace.overhead_frac"] = traced.end_to_end()["op_cpu_ms"] / base - 1.0
    lines += [f"# traced pass: {traced.attempted} ops, {len(all_spans)} spans", note]
    lines += traced.lines
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        metrics[name] = metric(values[name], unit)
        lines.append(f"{name} = {values[name]:.6g} {unit}")
    return (metrics, lines, plain.attempted + traced.attempted,
            plain.failed + traced.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not harness.program_available():
        print(f"error: no program to measure: {harness.SRC / 'repro'} is missing "
              "(run from the root of a source checkout)", file=sys.stderr)
        return 2
    os.chdir(harness.ROOT)
    harness.use_program_in_process()
    harness.compile_program()

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    with harness.workdir() as tmp:
        try:
            metrics, lines, attempted, failed = measure(args, tmp)
        except CheckFailed as exc:
            print(f"error: check failed: {exc}", file=sys.stderr)
            harness.emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
                         [f"# check failed: {exc}"])
            return 1
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        finally:
            signal.alarm(0)
            harness.stop_calibrator()
    harness.emit({"correct": True, "attempted": max(1, attempted), "failed": failed,
                  "metrics": metrics}, lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
