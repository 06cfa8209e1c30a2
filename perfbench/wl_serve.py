"""Workload ``serve_mix``: a seeded request mix against ``repro serve``.

Starts ``python -m repro serve <sock> --workers 2`` and warms it with one
request per circuit.  Then two connections, each on its own thread of the
benchmark process, send a seeded closed-loop mix:

* 60% repeat full-circuit ``analyze(fit=True, top=10)`` of one of the
  named circuits: artifact-store hits;
* 20% ``analyze`` of a seeded 5% site subset of the larger circuit: a
  miss that sweeps on a warm engine;
* 10% ``analyze`` of uploaded ``.bench`` text of the seeded upload
  circuit: a large request line that takes the digest path (a hit after
  the warm-up);
* 10% ``analyze_delta`` polarity swaps on the smaller circuit, which
  extend the server-held what-if chain.

The gated CPU time of an op is the server's CPU time during the mix,
read from ``/proc/<pid>/stat`` when the mix starts and when it ends,
divided by the completed requests.  The set-up time of a server is its CPU
time from start to the end of the warm-up.  Besides the measured server,
servers that only start and warm up are set up before and after the mix,
so the set-up samples span the whole run.

These CPU figures are not scaled by the calibration kernel
(:func:`harness.calibration_s`), unlike the other workloads': the mix
keeps both vCPUs busy at once (two server workers and two client
threads), so its CPU time also depends on contention between the
benchmark's own processes, which a kernel run on an idle host does not
see.  Scaling made both spreads wider over five seeds (op 0.23 -> 0.24,
set-up 0.19 -> 0.26).

Checks after the mix: every ``analyze`` answer equals the in-process
reference for its circuit and sites, a hit equals the first answer for
its key, and replaying the delta chain in process (in the server's
revision order) reproduces every delta answer.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import threading
import time

import harness
import layers
from harness import CheckFailed, PassResult
from spans import REQUEST_ID_FIELD
from whatif_child import edit_set
from wl_whatif import POLARITY

#: Every ten requests of a connection are a seeded shuffle of this deck,
#: so each run has exactly the stated mix (60/20/10/10) and the seed moves
#: only the order and the content.
DECK = ("hit",) * 6 + ("miss",) * 2 + ("upload", "delta")
CONNECTIONS = 2


class Sizes:
    #: The delta circuit must be a hit circuit: the warm-up's full analyze
    #: is what seeds the server-held what-if chain of that circuit.
    hit_circuits = ("s1423", "s9234")
    miss_circuit = "s9234"
    delta_circuit = "s1423"
    upload_circuit = "s953"
    miss_fraction = 0.05
    #: Servers set up per pass, the measured one included.
    setup_reps = 5


class ServeMix:
    name = "serve_mix"

    def __init__(self, seed: int, tmp, sizes=Sizes):
        self.seed = seed
        self.tmp = tmp
        self.sizes = sizes
        # Relative to the checkout root (the working directory): a unix
        # socket path must stay short.
        self.socket = os.path.relpath(tmp / "serve.sock", harness.ROOT)

    # ------------------------------------------------------------ inputs

    def prepare(self) -> None:
        from repro.cli import resolve_circuit
        from repro.core.epp import EPPEngine
        from repro.netlist.bench import parse_bench, write_bench
        from repro.netlist.generate import generate_iscas

        sizes = self.sizes
        self.upload_text = write_bench(generate_iscas(sizes.upload_circuit, seed=self.seed))
        circuits = {name: resolve_circuit(name) for name in
                    {*sizes.hit_circuits, sizes.miss_circuit, sizes.delta_circuit}}
        circuits["upload"] = parse_bench(self.upload_text, name=sizes.upload_circuit)
        self.circuits = circuits
        self.reference = {}
        for key, circuit in circuits.items():
            snap = EPPEngine(circuit).snapshot()
            self.reference[key] = (list(snap.site_names), snap.p_sensitized.tolist())
        self.delta_base = EPPEngine(circuits[sizes.delta_circuit]).snapshot()
        miss_sites = self.reference[sizes.miss_circuit][0]
        self.miss_sites = miss_sites
        self.miss_size = max(1, round(sizes.miss_fraction * len(miss_sites)))
        compiled = circuits[sizes.delta_circuit].compiled()
        gates = [
            (name, compiled.gate_type(compiled.index[name]).name)
            for name in self.reference[sizes.delta_circuit][0]
            if compiled.gate_type(compiled.index[name]).name in POLARITY
        ]
        random.Random(f"serve-gates-{self.seed}").shuffle(gates)
        # Each connection owns its own gates, so it always knows a gate's
        # current type however the two connections interleave.
        self.gate_pools = [gates[conn::CONNECTIONS] for conn in range(CONNECTIONS)]

    def requests(self, conn: int):
        """The connection's seeded, endless request stream."""
        rng = random.Random(f"serve-{self.seed}-{conn}")
        sizes = self.sizes
        pool = self.gate_pools[conn]
        current = dict(pool)
        hits = swaps = 0
        while True:
            deck = list(DECK)
            rng.shuffle(deck)
            for kind in deck:
                payload = {"op": "analyze", "fit": True, "top": 10, "knobs": {},
                           "client": f"conn{conn}"}
                if kind == "hit":
                    key = sizes.hit_circuits[hits % len(sizes.hit_circuits)]
                    hits += 1
                    payload["circuit"] = key
                elif kind == "miss":
                    key = sizes.miss_circuit
                    payload["circuit"] = key
                    payload["sites"] = rng.sample(self.miss_sites, self.miss_size)
                elif kind == "upload":
                    key = "upload"
                    payload["bench"] = self.upload_text
                else:
                    key = sizes.delta_circuit
                    gate = pool[swaps % len(pool)][0]
                    swaps += 1
                    current[gate] = POLARITY[current[gate]]
                    payload.update(op="analyze_delta", circuit=key,
                                   edits=[["replace_gate", gate, current[gate]]])
                yield kind, key, payload

    # ------------------------------------------------------------ server

    def start_server(self, spans_out=None):
        args = ("serve", self.socket, "--workers", "2")
        if spans_out is None:
            argv = harness.repro_argv(*args)
        else:
            argv = harness.child_argv("launch.py", str(spans_out), "server", "--", *args)
        err = open(self.tmp / "server_stderr.txt", "wb")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=harness.program_env(), cwd=harness.ROOT)
        err.close()
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else b""
        if not line.startswith(b"serving on"):
            proc.kill()
            proc.wait()
            raise CheckFailed(f"server did not start: {line!r} "
                              f"{(self.tmp / 'server_stderr.txt').read_text()[-500:]}")
        return proc

    def stop_server(self, proc) -> float:
        """SIGTERM, wait for the drain; the server's peak RSS (MB)."""
        proc.send_signal(signal.SIGTERM)
        returncode, _, maxrss_mb = harness.wait_child(proc, 20.0)
        rest = proc.stdout.read()
        proc.stdout.close()
        if returncode != 0 or b"drained" not in rest:
            raise CheckFailed(f"server did not drain cleanly (rc {returncode})")
        return maxrss_mb

    def set_up(self, result: PassResult, spans_out=None):
        """Start a server and warm it up; record the set-up's wall and CPU time.

        Returns the running server and its warm-up answers.
        """
        start = time.perf_counter()
        proc = self.start_server(spans_out)
        first = self.warm(proc)
        try:
            cpu = harness.process_cpu_s(proc.pid)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        result.setup_wall_s.append(time.perf_counter() - start)
        result.setup_cpu_s.append(cpu)
        return proc, first

    def warm(self, proc):
        """One request per circuit; the answers are the first per hit key.

        Kills the server if the warm-up fails.
        """
        from repro.server.client import ServeClient

        first = {}
        try:
            with ServeClient(self.socket, client_id="warm") as client:
                for key in self.sizes.hit_circuits:
                    first[key] = client.analyze(circuit=key, fit=True, top=10)["result"]
                first["upload"] = client.analyze(bench=self.upload_text, fit=True,
                                                 top=10)["result"]
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return first

    # -------------------------------------------------------------- pass

    def run_pass(self, seconds: float, recorder=None, setup_reps=None) -> PassResult:
        from repro.server.client import ServeClient

        result = PassResult()
        traced = recorder is not None
        spans_out = self.tmp / "server_spans.json" if traced else None
        warm_spans = self.tmp / "warm_spans.json" if traced else None
        others = (setup_reps or self.sizes.setup_reps) - 1
        for _ in range(others // 2):
            self.stop_server(self.set_up(result, warm_spans)[0])
        proc, first = self.set_up(result, spans_out)
        try:
            with ServeClient(self.socket, client_id="stats") as client:
                before = client.stats()["counters"]
            records, mix_cpu = self.mix(proc, seconds, traced, result)
            with ServeClient(self.socket, client_id="stats") as client:
                after = client.stats()["counters"]
        finally:
            result.peak_rss_mb = self.stop_server(proc)
        for _ in range(others - others // 2):
            self.stop_server(self.set_up(result, warm_spans)[0])
        if result.completed:
            result.cpu_s = [mix_cpu / result.completed]
        result.extra["counters"] = {key: after[key] - before.get(key, 0) for key in after}
        result.extra["records"] = records
        if traced:
            result.dumps.append(harness.load_dump(spans_out))
        self.check(records, first)
        for conn in range(CONNECTIONS):
            result.counts[f"conn{conn}"] = [(r["kind"], r["key"], r["cached"])
                                            for r in records if r["conn"] == conn]
        return result

    def mix(self, proc, seconds, traced, result):
        """Run the mix; the records, and the server's CPU seconds over it."""
        from repro.errors import ReproError
        from repro.server.client import ServeClient

        records: list[dict] = []
        crashes: list[BaseException] = []
        lock = threading.Lock()

        def connection(conn):
            try:
                send(conn)
            except BaseException as exc:  # re-raised in the caller after join
                crashes.append(exc)

        def send(conn):
            with ServeClient(self.socket, client_id=f"conn{conn}", timeout=120.0) as client:
                for index, (kind, key, payload) in enumerate(self.requests(conn)):
                    if time.perf_counter() >= deadline:
                        return
                    rid = f"{conn}-{index}"
                    if traced:
                        payload[REQUEST_ID_FIELD] = rid
                    record = {"conn": conn, "index": index, "kind": kind, "key": key,
                              "rid": rid, "payload": payload, "cached": None}
                    start = time.perf_counter()
                    try:
                        response = client.call(payload)
                    except (ReproError, OSError) as exc:
                        record["error"] = f"{type(exc).__name__}: {exc}"
                    else:
                        record["result"] = response["result"]
                        record["cached"] = bool(response["result"].get("cached"))
                    record["latency_s"] = time.perf_counter() - start
                    with lock:
                        records.append(record)

        threads = [threading.Thread(target=connection, args=(conn,), daemon=True)
                   for conn in range(CONNECTIONS)]
        cpu_start = harness.process_cpu_s(proc.pid)
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.loop_wall_s = time.perf_counter() - loop_start
        cpu = harness.process_cpu_s(proc.pid) - cpu_start
        if crashes:
            raise crashes[0]
        records.sort(key=lambda r: (r["conn"], r["index"]))
        result.attempted = len(records)
        result.failed = sum(1 for r in records if "error" in r)
        result.latencies_s = [r["latency_s"] for r in records if "error" not in r]
        for r in records:
            if "error" in r:
                result.lines.append(f"# request {r['rid']} ({r['kind']}) failed: {r['error']}")
        return records, cpu

    def layer_values(self, traced: PassResult, spans) -> dict:
        """Serving counters from the public ``stats`` op, over the mix."""
        counters = traced.extra["counters"]
        completed = counters.get("completed", 0)
        values = {f"server.{key}": float(counters.get(key, 0))
                  for key in ("coalesced", "shed", "degraded")}
        values["server.cache_hit_frac"] = (
            counters.get("cache_hits", 0) / completed if completed else 0.0)
        values["server.unaccounted_ms"], how = layers.unaccounted_ms(
            spans, traced.extra["records"])
        traced.lines.append(f"# server.unaccounted_ms: {how}")
        return values

    # ------------------------------------------------------------ checks

    def check(self, records, first) -> None:
        deltas = []
        for r in records:
            if "error" in r:
                continue
            got = r["result"]
            if r["kind"] == "delta":
                deltas.append(r)
                continue
            sites, values = self.reference[r["key"]]
            if r["kind"] == "miss":
                lookup = dict(zip(sites, values))
                sites = r["payload"]["sites"]
                values = [lookup[site] for site in sites]
            if got["sites"] != sites or got["p_sensitized"] != values:
                raise CheckFailed(f"request {r['rid']} ({r['kind']} {r['key']}): answer "
                                  "differs from the in-process reference")
            if r["kind"] in ("hit", "upload") and _stable(got) != _stable(first[r["key"]]):
                raise CheckFailed(f"request {r['rid']}: hit differs from the first answer "
                                  f"for {r['key']}")
        deltas.sort(key=lambda r: r["result"]["revision"])
        revisions = [r["result"]["revision"] for r in deltas]
        if revisions != list(range(1, len(deltas) + 1)):
            raise CheckFailed(f"delta revisions are not one chain: {revisions[:20]}")
        revision = self.delta_base
        for r in deltas:
            revision = revision.engine.analyze_delta(
                revision, edit_set(r["payload"]["edits"][0]))
            if (r["result"]["sites"] != list(revision.site_names)
                    or r["result"]["p_sensitized"] != revision.p_sensitized.tolist()):
                raise CheckFailed(f"delta request {r['rid']} (revision "
                                  f"{r['result']['revision']}) differs from the in-process "
                                  "replay of the chain")


def _stable(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "cached"}
