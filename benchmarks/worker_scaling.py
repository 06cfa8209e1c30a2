"""Worker scaling of the sharded backend against the in-process sweep.

Times a full-circuit ``EPPEngine.analyze()`` on the ``vector`` backend
and on the ``sharded`` backend at ``jobs = 1 .. cpu_count``, then the
sharded ``pack_sites`` over every default site with the shared-memory
and the pickle result transports.  Every configuration keeps its own
engine (and so its own warm worker pool); the first call of each is
reported on its own line because it includes pool start-up, and the
timed rounds then alternate between configurations so drift on the host
hits them all alike.  ``sharded jobs=1`` is forced onto the process path
(``min_process_work=0``); left to the crossover guard it runs in-process
and is the ``vector`` row.

Run from the repository root::

    PYTHONPATH=src python benchmarks/worker_scaling.py --rounds 5

It prints one JSON object: ``cpu_count``, then per circuit the first
call and the median / min / max of the warm rounds, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

from repro.core.config import AnalysisConfig
from repro.core.epp import EPPEngine
from repro.core.epp_shard import ShardedEPPEngine
from repro.netlist.generate import generate_iscas


def _analyze_configs(circuit, cpu_count):
    """``name -> zero-argument call`` for the analyze() ladder."""
    configs = {}
    engine = EPPEngine(circuit)
    configs["vector"] = lambda engine=engine: engine.analyze(backend="vector")
    for jobs in range(1, cpu_count + 1):
        engine = EPPEngine(circuit)
        engine.sharded_backend(jobs=jobs).min_process_work = 0
        configs[f"sharded jobs={jobs}"] = (
            lambda engine=engine, jobs=jobs:
            engine.analyze(backend="sharded", jobs=jobs)
        )
    return configs


def _transport_configs(circuit, jobs):
    """``name -> zero-argument call`` for sharded pack_sites per transport."""
    engine = EPPEngine(circuit)
    site_ids = [engine.compiled.index[name] for name in engine.default_sites()]
    configs = {}
    for transport in ("shm", "pickle"):
        backend = ShardedEPPEngine(
            engine.compiled, engine._sp, transport=transport,
            config=AnalysisConfig(jobs=jobs),
        )
        configs[f"pack_sites {transport} jobs={jobs}"] = (
            lambda backend=backend: backend.pack_sites(site_ids)
        )
    return configs


def _measure(configs, rounds):
    first = {}
    for name, call in configs.items():
        start = time.perf_counter()
        call()
        first[name] = time.perf_counter() - start
    warm = {name: [] for name in configs}
    names = list(configs)
    for index in range(rounds):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            start = time.perf_counter()
            configs[name]()
            warm[name].append(time.perf_counter() - start)
    return {
        name: {
            "first_s": round(first[name], 3),
            "median_s": round(statistics.median(warm[name]), 3),
            "min_s": round(min(warm[name]), 3),
            "max_s": round(max(warm[name]), 3),
            "runs": len(warm[name]),
        }
        for name in configs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuits", nargs="*", default=["s9234", "s38417"])
    parser.add_argument("--transport-circuit", default="s38417")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    cpu_count = os.cpu_count() or 1
    report = {"cpu_count": cpu_count, "rounds": args.rounds}
    for name in args.circuits:
        circuit = generate_iscas(name)
        report[name] = _measure(_analyze_configs(circuit, cpu_count), args.rounds)
    if args.transport_circuit:
        circuit = generate_iscas(args.transport_circuit)
        report[f"{args.transport_circuit} transport"] = _measure(
            _transport_configs(circuit, cpu_count), args.rounds
        )
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
