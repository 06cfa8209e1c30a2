"""The EPP backends: one fixed name -> :class:`BackendInfo` table.

Every capability question about a backend — can the incremental layer
splice its packed arrays, does it honor ``jobs=`` and the resilience
knobs — is answered from :data:`BACKENDS`, so the config layer's
validation, the CLI's ``--backend`` choices, ``EPPEngine.analyze`` and
the delta layer never compare backend names by hand.

Every factory returns an object honoring the (duck-typed)
**EPPBackendProtocol** — the contract
:class:`~repro.core.epp.EPPEngine` and the incremental layer program
against:

``analyze_sites(site_ids) -> dict[str, EPPResult]``
    Full results for many sites (required).
``pack_sites(site_ids) -> PackedResults``
    The packed per-site arrays the delta layer splices (backends with
    ``supports_pack`` only).
``plan``
    The backend's execution plan, when it has one (cache/diagnostics).
``release_buffers()``
    Drop rebuildable state (optional; absent means nothing to drop).

Factories take ``(engine, config)`` — the bound
:class:`~repro.core.epp.EPPEngine` and a validated
:class:`~repro.core.config.AnalysisConfig` — and return the engine's
cached instance when the effective configuration is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable

from repro.errors import AnalysisConfigError

__all__ = [
    "BACKENDS",
    "BackendInfo",
    "available_backends",
    "backend_info",
    "default_backend",
]


@dataclass(frozen=True)
class BackendInfo:
    """One EPP backend: factory and capabilities.

    ``factory(engine, config)`` returns the backend instance bound to
    ``engine`` under ``config`` (an
    :class:`~repro.core.config.AnalysisConfig`).  ``supports_pack`` marks
    backends whose ``pack_sites`` emits the packed arrays the
    incremental layer splices; ``sharded`` marks backends that honor
    ``jobs=`` and the resilience knobs.
    """

    factory: Callable[[Any, Any], Any]
    supports_pack: bool = False
    sharded: bool = False


class ScalarBackend:
    """The per-site reference oracle behind the protocol facade.

    Wraps the engine's ``node_epp`` cone walk so the scalar path goes
    through the same dispatch as every other backend.  No packed
    representation (``supports_pack=False``): each site is a fresh cone
    walk, there are no chunk arrays to splice.
    """

    __slots__ = ("engine",)

    #: Scalar walks have no batch plan.
    plan = None

    def __init__(self, engine):
        self.engine = engine

    def analyze_sites(self, site_ids) -> dict:
        results = {}
        for site_id in site_ids:
            result = self.engine.node_epp(site_id)
            results[result.site] = result
        return results

    def p_sensitized_many(self, site_ids):
        return [self.engine.p_sensitized(site_id) for site_id in site_ids]

    def release_buffers(self) -> None:
        pass


#: Every EPP backend, by name (read-only): ``scalar`` is the per-site
#: reference oracle (one pure-Python cone walk per site), ``vector`` the
#: batched level-parallel NumPy sweep (:mod:`repro.core.epp_batch`),
#: ``sharded`` site shards fanned across a process pool of vector
#: workers (:mod:`repro.core.epp_shard`).
BACKENDS = MappingProxyType({
    "scalar": BackendInfo(
        factory=lambda engine, config: ScalarBackend(engine),
    ),
    "vector": BackendInfo(
        factory=lambda engine, config: engine._get_vector_backend(config),
        supports_pack=True,
    ),
    "sharded": BackendInfo(
        factory=lambda engine, config: engine._get_sharded_backend(config),
        supports_pack=True,
        sharded=True,
    ),
})


def backend_info(name: str) -> BackendInfo:
    """The info for ``name`` — the one spelling of the "unknown EPP
    backend" error."""
    info = BACKENDS.get(name)
    if info is None:
        raise AnalysisConfigError(
            f"unknown EPP backend {name!r}; choose from {tuple(BACKENDS)}"
        )
    return info


def available_backends() -> tuple[str, ...]:
    """The analyze() backend names."""
    return tuple(BACKENDS)


def default_backend() -> str:
    """The backend an analysis runs on when none is named."""
    return "vector"
