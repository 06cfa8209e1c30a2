"""The benchmark's own tests: ``python -m pytest perfbench/tests``.

Smoke runs use tiny circuits and a few ops; the benchmark proper uses the
default sizes of each workload module.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import harness
import layers
import run
import spans
import wl_cold_cli
import wl_serve
import wl_whatif

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


class TinyCold(wl_cold_cli.Sizes):
    circuit = "c432"
    setup_reps = 2
    oracle_sites = 5
    accuracy_sites = 10
    accuracy_vectors = 2000


class TinyWhatIf(wl_whatif.Sizes):
    circuit = "c432"
    setup_reps = 2
    top_nodes = 10
    chain_length = 12


class TinyServe(wl_serve.Sizes):
    hit_circuits = ("c17", "c432")
    miss_circuit = "c432"
    delta_circuit = "c17"
    upload_circuit = "s27"
    miss_fraction = 0.2
    setup_reps = 2


#: Long enough for at least one op of each workload on its tiny circuit.
SMOKE_SECONDS = 1.0

SMOKE = {
    "cold_cli": (wl_cold_cli.ColdCLI, TinyCold),
    "whatif_chain": (wl_whatif.WhatIfChain, TinyWhatIf),
    "serve_mix": (wl_serve.ServeMix, TinyServe),
}


@pytest.fixture
def tmp(monkeypatch):
    monkeypatch.chdir(harness.ROOT)
    with harness.workdir() as path:
        yield path


def smoke(workload, seed, tmp, recorder=None):
    cls, sizes = SMOKE[workload]
    bench = cls(seed, tmp, sizes)
    bench.prepare()
    return bench, bench.run_pass(SMOKE_SECONDS, recorder=recorder)


# ------------------------------------------------------------- metric names


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _, _ in run.END_TO_END] + [name for name, _, _ in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit, _ in run.END_TO_END + layers.PER_LAYER:
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_the_metrics_the_code_prints():
    config = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in config["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER]
    assert [w["name"] for w in config["workloads"]] == list(SMOKE)
    for metric in config["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_every_end_to_end_metric_prints_with_its_unit(tmp):
    _, result = smoke("cold_cli", 1, tmp)
    lines = run.describe("cold_cli", result)
    for name, unit, _ in run.END_TO_END:
        assert any(re.match(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", line)
                   for line in lines), name
    assert any(line.startswith("epp_error_pct = ") and "standard error" in line
               for line in lines)


# ------------------------------------------------------------------- seeds


def test_seed_changes_the_netlist_and_the_edit_and_request_sequences(tmp):
    cold = [wl_cold_cli.ColdCLI(seed, tmp, TinyCold) for seed in (1, 2)]
    assert cold[0].generate() != cold[1].generate()

    chains = []
    for seed in (1, 2):
        bench = wl_whatif.WhatIfChain(seed, tmp, TinyWhatIf)
        bench.prepare()
        chains.append(bench.edits)
    assert chains[0] != chains[1]
    # Same rotation of edit kinds: only the targets move with the seed.
    assert [op[0] for op in chains[0]] == [op[0] for op in chains[1]]

    streams = []
    for seed in (1, 2):
        bench = wl_serve.ServeMix(seed, tmp, TinyServe)
        bench.prepare()
        stream = bench.requests(0)
        streams.append([next(stream) for _ in range(40)])
    assert [r[2] for r in streams[0]] != [r[2] for r in streams[1]]


def test_seed_changes_nothing_but_the_inputs(tmp):
    a = wl_serve.ServeMix(1, tmp, TinyServe)
    b = wl_serve.ServeMix(2, tmp, TinyServe)
    assert a.socket == b.socket
    for bench in (a, b):
        bench.prepare()
    # Same named circuits and therefore the same references; only the
    # uploaded netlist is seeded.
    for key in TinyServe.hit_circuits:
        assert a.reference[key] == b.reference[key]
    assert a.upload_text != b.upload_text


# ------------------------------------------------------------ smoke runs


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_run_completes_and_checks_pass(workload, tmp):
    _, result = smoke(workload, 3, tmp)
    assert result.attempted >= 1
    assert result.failed == 0
    assert result.latencies_s
    e2e = result.end_to_end()
    for name, _, _ in run.END_TO_END:
        assert e2e[name] > 0, name


@pytest.mark.parametrize("workload", list(SMOKE))
def test_counts_repeat_for_a_seed_and_differ_across_seeds(workload, tmp):
    first = smoke(workload, 5, tmp)[1].counts
    again = smoke(workload, 5, tmp)[1].counts
    other = smoke(workload, 6, tmp)[1].counts
    for stream in first:
        n = min(len(first[stream]), len(again[stream]))
        assert n > 0
        assert first[stream][:n] == again[stream][:n]
    assert first != other


def test_traced_smoke_reports_every_per_layer_metric(tmp):
    recorder = spans.Recorder()
    recorder.enabled = False
    spans.preload(spans.LIBRARY_LAYERS)
    spans.install(recorder, spans.LIBRARY_LAYERS)
    bench, traced = smoke("whatif_chain", 3, tmp, recorder=recorder)
    values, all_spans = layers.layer_metrics("whatif_chain", traced.dumps)
    names = {s.name for s in all_spans}
    assert {"delta.analyze_delta", "delta.apply", "ser.report_for"} <= names
    assert values["delta.reuse_frac"] >= 0.0
    assert all(name in values for name in layers.TIME_GROUPS)


# -------------------------------------------------------- span coverage


def test_installed_wrappers_replace_from_imports():
    spans.preload(spans.SERVER_LAYERS)
    spans.install(spans.Recorder(), spans.SERVER_LAYERS)
    import repro.core.epp as epp
    import repro.core.epp_delta as epp_delta
    import repro.server.service as service

    for fn in (epp.signal_probabilities, epp_delta.signal_probabilities,
               epp_delta.dirty_mask, service.decode_line, service.encode,
               service.parse_request):
        assert hasattr(fn, "__perfbench_original__"), fn


def test_coverage_check_fails_on_a_bypassed_entry_point():
    seen = [layers.Span([i, None, name, 0, 1, 0, None])
            for i, name in enumerate(sorted(layers.EXPECTED_SPANS["cold_cli"]))]
    layers.check_coverage("cold_cli", seen)
    with pytest.raises(harness.CheckFailed, match="sweep.analyze_sites"):
        layers.check_coverage("cold_cli", [s for s in seen if s.name != "sweep.analyze_sites"])


def test_self_time_subtracts_children_and_adopts_helper_thread_spans():
    dump = {"main_thread": 1, "op": 0, "spans": [
        [1, None, "sweep.analyze_sites", 0, 100, 1, None],
        [2, 1, "plan.batch_plan", 10, 30, 1, None],
        [3, None, "plan.chunk_plan", 40, 60, 2, None],  # helper thread
    ]}
    by_name = {s.name: s for s in layers.index_dump(dump, adopt_orphans=True)}
    assert by_name["sweep.analyze_sites"].self_ns == 60
    assert by_name["plan.chunk_plan"].parent == 1


# ------------------------------------------------------------ measuring


def test_process_cpu_of_a_live_child_grows_and_wait_child_reports_it(tmp_path):
    burn = ("import sys, time\nend = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass\nsys.stdin.read()")
    proc = subprocess.Popen([sys.executable, "-c", burn], stdin=subprocess.PIPE)
    time.sleep(1.0)
    live = harness.process_cpu_s(proc.pid)
    proc.stdin.close()
    returncode, cpu_s, maxrss_mb = harness.wait_child(proc, 30.0)
    assert returncode == 0
    assert 0.25 <= live <= cpu_s
    assert maxrss_mb > 1.0


def test_end_to_end_cpu_scales_with_the_calibration_kernel():
    result = harness.PassResult()
    result.setup_cpu_s = [1.0, 3.0, 2.0]
    result.cpu_s = [0.5]
    assert result.end_to_end()["setup_s"] == 2.0  # no samples: not scaled
    result.calibration_s = [harness.CALIBRATION_REF_S * 2] * 3
    e2e = result.end_to_end()
    assert e2e["setup_s"] == pytest.approx(1.0)
    assert e2e["op_cpu_ms"] == pytest.approx(250.0)
    assert result.raw_cpu()["setup_raw_s"] == 2.0
    result.calibration_s = []
    with pytest.raises(harness.CheckFailed):
        result.end_to_end()


# ------------------------------------------------------------- contract


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
