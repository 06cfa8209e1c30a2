"""Workload ``whatif_chain``: the design loop, the only workload that writes.

One fresh child process (:mod:`whatif_child`) runs a seeded chain of
edits on one fixed netlist through ``SERAnalyzer``: in rotation a
``harden`` of a top-ranked node, a ``tmr`` of a top-ranked node, and a
polarity ``replace_gate`` (AND<->NAND, OR<->NOR) of a random gate, each
followed by ``analyze_delta`` and ``report_for``.  A ``harden`` dirties
no site, so it isolates the fixed cost of a new revision (compile, SP
pass, plans).

The netlist is the profile's default ``generate_iscas(circuit)``, the same
circuit ``repro analyze s9234`` uses, and only the edit sequence comes
from the seed.  How far an edit's signal-probability change spreads is a
property of the circuit: on seeded variants of s9234 one structural edit
dirtied from about 30% to about 95% of all sites, which made the cost of
an edit differ by a third from seed to seed.  The edit sequence is
generated here from the seed and the in-process reference ranking of the
unedited circuit, so the program only ever sees generated inputs.

Check: the final revision's packed arrays are ``np.array_equal`` to a
fresh ``snapshot()`` of the circuit with the same edits applied in this
process.
"""

from __future__ import annotations

import json
import random
import time

import harness
from harness import CheckFailed, PassResult
from whatif_child import edit_set

POLARITY = {"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR"}
KINDS = ("harden", "tmr", "swap")
ROTATION = len(KINDS)


class Sizes:
    circuit = "s9234"
    setup_reps = 4
    top_nodes = 50
    chain_length = 400


class WhatIfChain:
    name = "whatif_chain"

    def __init__(self, seed: int, tmp, sizes=Sizes):
        self.seed = seed
        self.tmp = tmp
        self.sizes = sizes
        self.netlist = tmp / f"{sizes.circuit}.bench"

    def prepare(self) -> None:
        from repro.core.analysis import SERAnalyzer
        from repro.netlist.bench import parse_bench_file, write_bench
        from repro.netlist.generate import generate_iscas

        write_bench(generate_iscas(self.sizes.circuit), self.netlist)
        self.circuit = parse_bench_file(self.netlist)
        ranked = [entry.node for entry in SERAnalyzer(self.circuit).analyze().ranked()]
        self.edits = make_edits(self.circuit, ranked, self.seed, self.sizes)

    def run_pass(self, seconds: float, recorder=None, setup_reps=None) -> PassResult:
        result = PassResult()
        traced = recorder is not None
        config = {
            "netlist": str(self.netlist),
            "edits": self.edits,
            "seconds": seconds,
            "setup_reps": setup_reps or self.sizes.setup_reps,
            "spans_out": str(self.tmp / "whatif_spans.json") if traced else None,
            "result_out": str(self.tmp / "whatif_result.json"),
            "packed_out": str(self.tmp / "whatif_packed.npz"),
        }
        config_path = self.tmp / "whatif_config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        child = harness.run_child(harness.child_argv("whatif_child.py", str(config_path)),
                                  self.tmp / "stderr.txt")
        if child.returncode != 0:
            # The chain is one op stream in one process: a crash loses it.
            result.attempted = result.failed = 1
            result.lines.append(f"# what-if child failed (rc {child.returncode}): "
                                f"{child.stderr.strip()[-500:]}")
            return result
        with open(config["result_out"], encoding="utf-8") as handle:
            out = json.load(handle)
        result.setup_wall_s = out["setup_wall_s"]
        result.setup_cpu_s = out["setup_cpu_s"]
        result.calibration_s = out["calibration_s"]
        # The three edit kinds differ about 4x in cost, so a median over
        # single edits would sit on the boundary between two of them.  The
        # latency sample is one whole rotation round's mean edit latency.
        result.latencies_s = _round_means([op["seconds"] for op in out["ops"]])
        result.cpu_s = _round_means([op["cpu_s"] for op in out["ops"]])
        result.loop_wall_s = out["loop_wall_s"]
        result.attempted = len(out["ops"])
        result.peak_rss_mb = child.maxrss_mb
        result.counts = {"chain": [(op["kind"], op["dirty"], op["reused"], op["sites"])
                                   for op in out["ops"]]}
        result.extra["ops"] = out["ops"]
        if traced:
            result.dumps.append(harness.load_dump(config["spans_out"]))
        self.check(len(out["ops"]), out["site_names"], config["packed_out"])
        return result

    def layer_values(self, traced: PassResult, spans) -> dict:
        return {}

    def check(self, applied: int, site_names, packed_path) -> None:
        import numpy as np

        from repro.core.epp import EPPEngine

        circuit = self.circuit
        for op in self.edits[:applied]:
            circuit, _ = edit_set(op).apply(circuit)
        fresh = EPPEngine(circuit).snapshot()
        with np.load(packed_path) as saved:
            packed = [saved[f"arr_{i}"] for i in range(len(saved.files))]
        if list(fresh.site_names) != list(site_names):
            raise CheckFailed("final revision's site list differs from a fresh snapshot")
        if len(packed) != len(fresh.packed) or not all(
            np.array_equal(left, right) for left, right in zip(packed, fresh.packed)
        ):
            raise CheckFailed(f"final revision after {applied} edits is not array_equal "
                              "to a fresh snapshot() of the edited circuit")


def _round_means(values) -> list[float]:
    rounds = len(values) // ROTATION
    return [sum(values[i * ROTATION:(i + 1) * ROTATION]) / ROTATION for i in range(rounds)]


def make_edits(circuit, ranked, seed, sizes) -> list:
    """The seeded edit chain: harden, tmr, polarity swap, in rotation.

    Each node is edited at most once, so an edit never depends on what an
    earlier one did to the same node.
    """
    rng = random.Random(f"whatif-{seed}")
    compiled = circuit.compiled()
    swappable = [
        name for name in ranked
        if compiled.gate_type(compiled.index[name]).name in POLARITY
    ]
    rng.shuffle(swappable)
    top = ranked[: sizes.top_nodes]
    used: set[str] = set()

    def pick_top():
        choices = [name for name in top if name not in used]
        if not choices:
            choices = [name for name in ranked if name not in used]
        name = rng.choice(choices)
        used.add(name)
        return name

    edits = []
    while len(edits) < sizes.chain_length:
        kind = KINDS[len(edits) % ROTATION]
        if kind == "harden":
            edits.append(["harden", pick_top(), 10.0])
        elif kind == "tmr":
            edits.append(["tmr", pick_top()])
        else:
            while swappable and swappable[-1] in used:
                swappable.pop()
            if not swappable:
                break
            name = swappable.pop()
            used.add(name)
            old = compiled.gate_type(compiled.index[name]).name
            edits.append(["replace_gate", name, POLARITY[old]])
    return edits
