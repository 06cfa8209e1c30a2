"""Workload ``cold_cli``: one user running ``repro analyze`` on a netlist file.

Closed loop, one caller: each op is a fresh ``python -m repro analyze
<file> --top 10 --csv <out>`` child, so every op pays interpreter start,
import, ``.bench`` parse, signal probabilities, plans, the sweep and SER
assembly.  The netlist is the seeded ``generate_iscas(circuit, seed)``.
Set-up is generating and writing that netlist in the benchmark process;
it is timed once before the first op and then before each of the
following ops until ``setup_reps`` set-ups are done, so the samples span
the run.  The calibration kernel (:func:`harness.calibration_s`) runs
before every set-up and every op, and once after the last.

Checks, all outside the timed region: every CSV's ``p_sensitized`` agrees
to 1e-9 with an in-process ``SERAnalyzer.analyze`` of the same file, and
a seeded sample of sites agrees with the scalar oracle.  The model-error
figure ``epp_error_pct`` compares the CLI's values with random simulation
at input and state weights taken from the EPP signal-probability map.
"""

from __future__ import annotations

import csv
import gc
import math
import random
import time

import harness
from harness import CheckFailed, PassResult
from spans import recording

TOLERANCE = 1e-9


class Sizes:
    """Workload size; tests shrink it, the benchmark uses the defaults."""

    circuit = "s9234"
    setup_reps = 10
    oracle_sites = 50
    accuracy_sites = 100
    accuracy_vectors = 20_000


class ColdCLI:
    name = "cold_cli"

    def __init__(self, seed: int, tmp, sizes=Sizes):
        self.seed = seed
        self.tmp = tmp
        self.sizes = sizes
        self.netlist = tmp / f"{sizes.circuit}.bench"
        self.accuracy_result = None

    # ------------------------------------------------------------ inputs

    def generate(self):
        from repro.netlist.bench import write_bench
        from repro.netlist.generate import generate_iscas

        circuit = generate_iscas(self.sizes.circuit, seed=self.seed)
        return write_bench(circuit, self.netlist)

    def prepare(self) -> None:
        """Inputs and in-process references; never timed."""
        from repro.core.analysis import SERAnalyzer
        from repro.netlist.bench import parse_bench_file

        self.text = self.generate()
        circuit = parse_bench_file(self.netlist)
        self.circuit = circuit
        self.analyzer = SERAnalyzer(circuit)
        report = self.analyzer.analyze()
        self.reference = {name: node.p_sensitized for name, node in report.nodes.items()}

    # -------------------------------------------------------------- pass

    def set_up(self, result: PassResult, recorder=None) -> None:
        """Generate and write the netlist once, timed."""
        # Objects the benchmark holds (the in-process references) stay out
        # of the collections that generation triggers.
        gc.collect()
        gc.freeze()
        result.calibration_s.append(harness.calibration_s())
        start, cpu_start = time.perf_counter(), time.process_time()
        with recording(recorder, "setup"):
            text = self.generate()
        result.setup_wall_s.append(time.perf_counter() - start)
        result.setup_cpu_s.append(time.process_time() - cpu_start)
        if text != self.text:
            raise CheckFailed("netlist generation is not deterministic")

    def run_pass(self, seconds: float, recorder=None, setup_reps=None) -> PassResult:
        result = PassResult()
        result.calibration_s = []
        reps = setup_reps or self.sizes.setup_reps
        # Set-up runs in this process: record its spans here, and only here.
        self.set_up(result, recorder)
        if recorder is not None:
            result.dumps.append(dict(recorder.to_dict(), op=None))

        csvs = []
        deadline = time.perf_counter() + seconds
        loop_start = time.perf_counter()
        paused_s = 0.0
        while time.perf_counter() < deadline:
            if len(result.setup_cpu_s) < reps:
                paused = time.perf_counter()
                self.set_up(result)
                paused = time.perf_counter() - paused
                deadline += paused
                paused_s += paused
            index = result.attempted
            result.calibration_s.append(harness.calibration_s())
            out = self.tmp / f"op{index}.csv"
            cli_args = ("analyze", str(self.netlist), "--top", "10", "--csv", str(out))
            if recorder is None:
                argv = harness.repro_argv(*cli_args)
            else:
                spans_out = self.tmp / f"spans{index}.json"
                argv = harness.child_argv("launch.py", str(spans_out), "library", "--", *cli_args)
            child = harness.run_child(argv, self.tmp / "stderr.txt")
            result.attempted += 1
            if child.returncode != 0:
                result.failed += 1
                result.lines.append(f"# op {index} failed (rc {child.returncode}): "
                                    f"{child.stderr.strip()[-300:]}")
                continue
            result.latencies_s.append(child.wall_s)
            result.cpu_s.append(child.cpu_s)
            result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_mb)
            csvs.append(out)
            if recorder is not None:
                dump = harness.load_dump(spans_out)
                dump["op"] = index
                result.dumps.append(dump)
        result.loop_wall_s = time.perf_counter() - loop_start - paused_s
        result.calibration_s.append(harness.calibration_s())

        checked = [self.check_csv(path) for path in csvs]
        values = [rows for rows, _ in checked]
        result.counts = {"cli": [(len(rows), cones) for rows, cones in checked]}
        if values:
            self.check_oracle(values[0])
            if self.accuracy_result is None:
                self.accuracy_result = self.accuracy(values[0])
            result.extra["accuracy"] = self.accuracy_result
        return result

    def layer_values(self, traced: PassResult, spans) -> dict:
        """Accuracy, and a check that identical ops did identical sweep work."""
        cells = {}
        for span in spans:
            if span.name == "sweep.analyze_sites" and span.unit is not None:
                cells[span.unit] = cells.get(span.unit, 0) + span.attrs["cells_computed"]
        if len(set(cells.values())) > 1:
            raise CheckFailed(f"determinism: identical ops computed different cell "
                              f"counts: {sorted(set(cells.values()))}")
        accuracy = traced.extra["accuracy"]
        return {"epp.error_pct": accuracy["epp_error_pct"],
                "epp.error_ref_stderr_pct": accuracy["ref_stderr_pct"]}

    # ------------------------------------------------------------ checks

    def check_csv(self, path) -> tuple[dict, int]:
        """The CSV's ``p_sensitized`` per node, and its summed cone sizes."""
        with open(path, newline="", encoding="utf-8") as handle:
            table = list(csv.DictReader(handle))
        rows = {row["node"]: float(row["p_sensitized"]) for row in table}
        cones = sum(int(row["cone_size"]) for row in table)
        if rows.keys() != self.reference.keys():
            raise CheckFailed(f"{path.name}: site set differs from the reference "
                              f"({len(rows)} vs {len(self.reference)} sites)")
        worst = max(abs(rows[name] - ref) for name, ref in self.reference.items())
        if worst > TOLERANCE:
            raise CheckFailed(f"{path.name}: p_sensitized differs from the in-process "
                              f"reference by {worst:.3e}")
        return rows, cones

    def check_oracle(self, values: dict) -> None:
        sites = random.Random(f"oracle-{self.seed}").sample(
            sorted(values), min(self.sizes.oracle_sites, len(values)))
        oracle = self.analyzer.engine.analyze(sites=sites, backend="scalar")
        worst = max(abs(values[site] - oracle[site].p_sensitized) for site in sites)
        if worst > TOLERANCE:
            raise CheckFailed(f"CLI p_sensitized differs from the scalar oracle by {worst:.3e}")

    def accuracy(self, values: dict) -> dict:
        """EPP's model error against random simulation (ROADMAP item 5a).

        The site sample and the simulation seed come from the workload
        seed; the vector budget is fixed.  Sites are drawn from those whose
        EPP value lies strictly inside (0.001, 0.999): most sites of the
        generated circuits reach no sink (EPP is exactly 0) or are sinks
        themselves (exactly 1), where the model cannot err and a uniform
        sample would mostly measure nothing.  The reference's own standard
        error per site is ``sqrt(p(1-p)/n) <= 0.5/sqrt(n)``; its sum over
        the sample, as a share of the reference total, is the noise floor
        printed next to the error.
        """
        from repro.core.baseline import RandomSimulationEstimator
        from repro.probability import signal_probabilities

        rng = random.Random(f"accuracy-{self.seed}")
        candidates = sorted(site for site, p in values.items() if 0.001 < p < 0.999)
        sites = rng.sample(candidates, min(self.sizes.accuracy_sites, len(candidates)))
        sp = signal_probabilities(self.circuit)
        n = self.sizes.accuracy_vectors
        estimator = RandomSimulationEstimator(
            self.circuit, n_vectors=n, seed=rng.randrange(2**31),
            input_weights={name: sp[name] for name in self.circuit.inputs},
            state_weights={name: sp[name] for name in self.circuit.flip_flops},
        )
        reference = estimator.estimate(sites)
        total = sum(reference.values())
        if not total:
            raise CheckFailed("accuracy: no sampled site is observable in random simulation")
        error = sum(abs(values[site] - reference[site]) for site in sites)
        noise = sum(math.sqrt(p * (1.0 - p) / n) for p in reference.values())
        return {
            "epp_error_pct": 100.0 * error / total,
            "ref_stderr_pct": 100.0 * noise / total,
            "ref_stderr_site_max": 0.5 / math.sqrt(n),
            "sites": len(sites),
            "vectors": n,
        }

