"""What-if demonstration: incremental re-analysis vs full re-analysis.

The design-loop workload the incremental layer (:mod:`repro.core.epp_delta`)
exists for: take a circuit, apply a local edit, and compare

* a **full** re-analysis of the edited circuit (``engine.snapshot``), and
* the **incremental** path (``analyze_delta``), which re-sweeps only the
  sites the edit can reach and splices everything else from the previous
  packed arrays

checking along the way that the two are bit-identical (``np.array_equal``
on every packed array — the tentpole invariant) and reporting the dirty /
reused split plus the wall-clock speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.core.epp import EPPEngine
from repro.core.epp_delta import EditSet
from repro.netlist.circuit import Circuit

__all__ = [
    "WhatIfResult",
    "run_whatif",
    "single_gate_edit",
    "representative_edit",
]


@dataclass(frozen=True)
class WhatIfResult:
    """Timings and verification of one incremental-vs-full comparison."""

    circuit_name: str
    n_sites: int
    dirty_sites: int
    reused_sites: int
    full_s: float
    delta_s: float
    identical: bool

    @property
    def speedup(self) -> float:
        return self.full_s / self.delta_s if self.delta_s > 0.0 else float("inf")

    def format(self) -> str:
        return (
            f"what-if on {self.circuit_name}: re-swept "
            f"{self.dirty_sites}/{self.n_sites} sites "
            f"(reused {self.reused_sites}); full {self.full_s * 1e3:.1f} ms, "
            f"delta {self.delta_s * 1e3:.1f} ms "
            f"({self.speedup:.1f}x), bit-identical: {self.identical}"
        )


def single_gate_edit(circuit: Circuit, gate: str | None = None) -> EditSet:
    """A canonical single-gate edit: swap one AND<->NAND (or OR<->NOR).

    Inverting one gate's polarity changes its cone's propagation without
    touching the netlist shape — the smallest "real" what-if edit.  With
    ``gate=None`` the first swappable gate (declaration order) is used.
    """
    from repro.netlist.gate_types import GateType

    swaps = {
        GateType.AND: "nand", GateType.NAND: "and",
        GateType.OR: "nor", GateType.NOR: "or",
    }
    candidates = [gate] if gate is not None else circuit.gates
    for name in candidates:
        replacement = swaps.get(circuit.node(name).gate_type)
        if replacement is not None:
            return EditSet().replace_gate(name, replacement)
    raise AnalysisError(
        f"no AND/NAND/OR/NOR gate to swap in circuit {circuit.name!r}"
    )


def representative_edit(prev, max_probes: int = 12) -> tuple[EditSet, dict]:
    """A single-gate edit with a *local* (small but non-empty) dirty set.

    An arbitrary gate is a bad demo: a gate near the primary inputs
    reaches almost every site and the "incremental" run degenerates to a
    full one.  This probes up to ``max_probes`` evenly spaced swappable
    gates with :func:`~repro.core.epp_delta.edit_impact` (dirty-set
    accounting only — no sweeping) and returns the edit with the
    smallest non-zero dirty count, plus its impact dict.  Deterministic
    given the circuit.
    """
    from repro.core.epp_delta import edit_impact
    from repro.netlist.gate_types import GateType

    circuit = prev.engine.circuit
    swappable = [
        name for name in circuit.gates
        if circuit.node(name).gate_type
        in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)
    ]
    if not swappable:
        raise AnalysisError(
            f"no AND/NAND/OR/NOR gate to swap in circuit {circuit.name!r}"
        )
    stride = max(1, len(swappable) // max_probes)
    best: tuple[EditSet, dict] | None = None
    for name in swappable[::stride][:max_probes]:
        edits = single_gate_edit(circuit, name)
        impact = edit_impact(prev, edits)
        if impact["dirty"] == 0:
            continue
        if best is None or impact["dirty"] < best[1]["dirty"]:
            best = (edits, impact)
    if best is None:  # every probe was dead logic; fall back to the first
        edits = single_gate_edit(circuit, swappable[0])
        return edits, edit_impact(prev, edits)
    return best


def run_whatif(
    circuit: Circuit,
    edits: EditSet | None = None,
    sites=None,
    **knobs,
) -> WhatIfResult:
    """Run one incremental-vs-full comparison on ``circuit``.

    ``edits`` defaults to :func:`single_gate_edit`.  Both paths run the
    same backend knobs; the full path is timed on the *edited* circuit's
    own engine (warm caches for both sides — the comparison is sweeps,
    not setup).
    """
    import numpy as np

    engine = EPPEngine(circuit)
    prev = engine.snapshot(sites=sites, **knobs)
    if edits is None:
        edits, _ = representative_edit(prev)

    start = time.perf_counter()
    delta = engine.analyze_delta(prev, edits)
    delta_s = time.perf_counter() - start

    start = time.perf_counter()
    full = delta.engine.snapshot(
        sites=None if delta.default_sites else delta.site_names,
        config=delta.config,
    )
    full_s = time.perf_counter() - start

    identical = delta.site_names == full.site_names and all(
        np.array_equal(left, right)
        for left, right in zip(delta.packed, full.packed)
    )
    return WhatIfResult(
        circuit_name=circuit.name,
        n_sites=delta.stats["sites"],
        dirty_sites=delta.stats["dirty"],
        reused_sites=delta.stats["reused"],
        full_s=full_s,
        delta_s=delta_s,
        identical=identical,
    )
