"""The unified AnalysisConfig layer and the backend registry.

Covers the consolidation contracts:

* construction-time validation — unknown/conflicting knobs raise
  :class:`~repro.errors.ConfigError` (and, for compatibility with every
  pre-consolidation pin, :class:`~repro.errors.AnalysisError`) naming
  the offending field;
* canonical serialization — ``to_wire``/``from_wire`` round-trip,
  ``digest`` is stable under field order and construction path and
  distinct for distinct configs (hypothesis property tests);
* tolerant-forward decoding — unknown wire keys (including the retired
  ``cells``/``chunking``/``rows`` sweep knobs of old records) are ignored
  outside the server's strict mode;
* reflection — the CLI ``analyze``/``analyze-delta``/``serve`` flag
  sets and the config field metadata are the same surface, 1:1;
* the backend table — the CLI ``--backend`` choices are exactly
  :data:`~repro.core.backends.BACKENDS`, and an unknown name is a typed
  error naming the choices.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core.backends import BACKENDS, default_backend
from repro.core.config import (
    KNOB_KEYS,
    RESILIENCE_KNOB_KEYS,
    SHARDED_ONLY_KNOBS,
    SWEEP_KNOB_KEYS,
    WIRE_KNOB_KEYS,
    WIRE_VERSION,
    AnalysisConfig,
    field_metadata,
    knob_reference,
)
from repro.core.epp import EPPEngine
from repro.errors import AnalysisConfigError, AnalysisError, ConfigError
from repro.netlist.library import s27


# --------------------------------------------------------------- validation


class TestValidation:
    def test_unknown_knob_names_the_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            AnalysisConfig.from_knobs(bogus=3)

    def test_unknown_knob_is_also_an_analysis_error(self):
        # The bridge class: pre-consolidation callers pinned
        # AnalysisError at the same boundaries the satellite wants
        # ConfigError at.
        with pytest.raises(AnalysisError, match="unknown analysis knob"):
            AnalysisConfig.from_knobs(bogus=3)

    def test_checkpoint_with_vector_backend_conflicts(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            AnalysisConfig(backend="vector", checkpoint="/tmp/nope")

    def test_resilience_knobs_with_scalar_backend_conflict(self):
        with pytest.raises(ConfigError, match="sharded"):
            AnalysisConfig(backend="scalar", retries=2)

    def test_jobs_with_vector_backend_conflicts(self):
        with pytest.raises(ConfigError, match="jobs="):
            AnalysisConfig(backend="vector", jobs=2)

    def test_value_error_beats_conflict_error(self):
        # jobs=0 with a non-sharded backend must name the bad value,
        # not the cross-field conflict.
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            AnalysisConfig(backend="vector", jobs=0)

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown EPP backend"):
            AnalysisConfig(backend="warp")

    def test_bad_schedule_rejected(self):
        # The sweep order is a rule in code now: any schedule is unknown.
        with pytest.raises(ConfigError, match="unknown analysis knob 'schedule'"):
            AnalysisConfig.from_knobs(schedule="sideways")

    def test_bad_retries_uses_flag_spelling(self):
        with pytest.raises(ConfigError, match="--retries must be >= 0"):
            AnalysisConfig(retries=-1)

    def test_deferred_conflict_caught_at_resolution(self):
        # No explicit backend: construction defers the conflict check
        # (the server injects its backend later) — resolution catches it.
        cfg = AnalysisConfig(retries=2)
        with pytest.raises(ConfigError, match="sharded"):
            cfg.require_backend_support("vector")
        cfg.require_backend_support("sharded")  # and sharded honors it

    def test_engine_rejects_config_plus_knobs(self):
        engine = EPPEngine(s27())
        with pytest.raises(ConfigError, match="not both"):
            engine.analyze(config=AnalysisConfig(), batch_size=4)


# ----------------------------------------------------------- derived tables


class TestDerivedTables:
    def test_knob_key_order_is_the_historical_order(self):
        assert KNOB_KEYS == (
            "backend", "batch_size", "jobs", "prune",
            "retries", "shard_timeout", "on_failure", "deadline",
            "fault_injector", "checkpoint",
        )

    def test_wire_keys_exclude_local_only_fields(self):
        assert "fault_injector" not in WIRE_KNOB_KEYS
        assert "checkpoint" not in WIRE_KNOB_KEYS
        assert "deadline" not in WIRE_KNOB_KEYS

    def test_wire_keys_exclude_execution_knobs(self):
        # The server owns its process count and recovery policy: a
        # socket must not size the pool, and knobs that never change a
        # result must not fork result identities.
        assert WIRE_KNOB_KEYS == ("backend", "batch_size", "prune")
        assert WIRE_VERSION == 5

    def test_resilience_keys_are_sharded_only_minus_jobs(self):
        assert RESILIENCE_KNOB_KEYS == tuple(
            k for k in SHARDED_ONLY_KNOBS if k != "jobs"
        )

    def test_sweep_keys(self):
        assert SWEEP_KNOB_KEYS == ("batch_size", "prune")

    def test_knob_reference_covers_every_field(self):
        text = knob_reference()
        table = knob_reference(markdown=True)
        for key in KNOB_KEYS:
            assert key in text
            assert f"`{key}`" in table

    def test_readme_knob_table_is_generated(self):
        """The README's knob table is exactly the generated reference
        (regenerate with ``python -m repro knobs --markdown``)."""
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert readme.read_text().count(knob_reference(markdown=True)) == 1


# ------------------------------------------------- wire round-trip (property)


_WIRE_VALUES = {
    "backend": st.sampled_from([None, "scalar", "vector", "sharded"]),
    "batch_size": st.one_of(st.none(), st.integers(1, 64)),
    "prune": st.sampled_from([None, True, False, "auto"]),
}


@st.composite
def wire_configs(draw):
    """Valid wire-representable configs (every wire knob drawn)."""
    assert tuple(_WIRE_VALUES) == WIRE_KNOB_KEYS
    return AnalysisConfig(**{key: draw(_WIRE_VALUES[key]) for key in _WIRE_VALUES})


class TestWireRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(cfg=wire_configs())
    def test_to_wire_from_wire_round_trips(self, cfg):
        wire = cfg.to_wire()
        assert wire["version"] == WIRE_VERSION
        assert AnalysisConfig.from_wire(wire) == cfg

    @settings(max_examples=200, deadline=None)
    @given(cfg=wire_configs(), seed=st.integers(0, 2**32 - 1))
    def test_digest_stable_under_key_order(self, cfg, seed):
        import random

        wire = cfg.to_wire()
        items = list(wire.items())
        random.Random(seed).shuffle(items)
        assert AnalysisConfig.from_wire(dict(items)).digest() == cfg.digest()

    @settings(max_examples=200, deadline=None)
    @given(left=wire_configs(), right=wire_configs())
    def test_distinct_configs_digest_differently(self, left, right):
        if left == right:
            assert left.digest() == right.digest()
        else:
            assert left.digest() != right.digest()

    @settings(max_examples=100, deadline=None)
    @given(cfg=wire_configs())
    def test_digest_stable_under_construction_path(self, cfg):
        rebuilt = AnalysisConfig.from_knobs(
            **{k: v for k, v in cfg.knobs().items() if v is not None}
        )
        assert rebuilt.digest() == cfg.digest()

    def test_digest_folds_in_wire_version(self):
        # The v2 stamp is what guarantees post-consolidation store keys
        # can never alias v1 (raw sorted-tuple) identities.
        assert b"analysis-config|v%d" % WIRE_VERSION  # spelling exists
        assert AnalysisConfig().digest() != ""

    def test_from_wire_is_tolerant_forward(self):
        wire = {"version": 99, "batch_size": 8, "hyperdrive": True}
        cfg = AnalysisConfig.from_wire(wire)
        assert cfg.batch_size == 8

    def test_from_wire_strict_rejects_unknown(self):
        with pytest.raises(ConfigError, match="hyperdrive"):
            AnalysisConfig.from_wire({"hyperdrive": True}, strict=True)

    def test_resolved_is_idempotent(self):
        cfg = AnalysisConfig(batch_size=4).resolved()
        assert cfg.resolved() == cfg
        assert cfg.prune == "auto"

    def test_from_wire_ignores_retired_sweep_knobs(self):
        # Records written while cells/chunking/rows/schedule existed
        # still load: the retired keys are unknown now, and tolerant
        # decoding drops them instead of failing the whole record.
        old = {"version": 2, "batch_size": 8, "cells": "on",
               "chunking": "adaptive", "rows": "full", "schedule": "cone"}
        cfg = AnalysisConfig.from_wire(old, strict=False)
        assert cfg == AnalysisConfig(batch_size=8)
        assert cfg.digest() == AnalysisConfig(batch_size=8).digest()

    @pytest.mark.parametrize("knob, value", [
        ("cells", "on"), ("chunking", "adaptive"), ("rows", "full"),
        ("schedule", "cone"),
    ])
    def test_retired_sweep_knobs_are_unknown(self, knob, value):
        with pytest.raises(ConfigError, match=knob):
            AnalysisConfig.from_knobs(**{knob: value})
        with pytest.raises(ConfigError, match=knob):
            AnalysisConfig.from_wire({knob: value}, strict=True)


# --------------------------------------------------------------- reflection


def _subcommand(name):
    parser = build_parser()
    actions = parser._subparsers._group_actions[0]
    return actions.choices[name]


def _option_flags(subparser):
    flags = set()
    for action in subparser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                flags.add(option)
    return flags


#: analyze flags that are not analysis knobs (sampling, SP computation,
#: reporting) — everything else must map 1:1 onto config fields.
_ANALYZE_EXTRAS = {"--help", "--top", "--sample", "--sp-method",
                   "--multi-cycle", "--csv"}
_DELTA_EXTRAS = {"--help", "--top", "--sp-method", "--verify", "--harden",
                 "--set-sp", "--tmr", "--rewire", "--replace"}


class TestCLIReflection:
    def test_analyze_flags_match_config_fields(self):
        flags = _option_flags(_subcommand("analyze")) - _ANALYZE_EXTRAS
        expected = {
            field_metadata(key)["cli"] for key in KNOB_KEYS
            if field_metadata(key)["cli"] is not None
        }
        assert flags == expected

    def test_delta_flags_match_delta_marked_fields(self):
        flags = _option_flags(_subcommand("analyze-delta")) - _DELTA_EXTRAS
        expected = {
            field_metadata(key)["cli"] for key in KNOB_KEYS
            if field_metadata(key)["cli"] is not None
            and field_metadata(key)["delta"]
        }
        assert flags == expected

    def test_harden_carries_the_same_knob_surface_as_delta(self):
        delta = _option_flags(_subcommand("analyze-delta")) - _DELTA_EXTRAS
        harden = {
            flag for flag in _option_flags(_subcommand("harden"))
            if flag in delta
        }
        assert harden == delta

    def test_serve_flags_cover_serve_marked_fields(self):
        flags = _option_flags(_subcommand("serve"))
        for key in KNOB_KEYS:
            serve_flag = field_metadata(key)["serve"]
            if serve_flag is not None:
                assert serve_flag in flags

    def test_wire_keys_match_protocol_export(self):
        from repro.server.protocol import WIRE_KNOB_KEYS as PROTOCOL_KEYS

        assert PROTOCOL_KEYS == WIRE_KNOB_KEYS


# ------------------------------------------------------------ backend table


class TestBackendRegistry:
    @pytest.mark.parametrize("command, choices", [
        ("analyze", ("auto", "scalar", "vector", "sharded")),
        # The incremental layer splices packed arrays: no scalar oracle.
        ("analyze-delta", ("auto", "vector", "sharded")),
    ])
    def test_cli_backend_choices_come_from_the_table(self, command, choices):
        assert tuple(BACKENDS) == ("scalar", "vector", "sharded")
        for action in _subcommand(command)._actions:
            if "--backend" in action.option_strings:
                assert tuple(action.choices) == choices
                break
        else:  # pragma: no cover
            raise AssertionError(f"{command} has no --backend flag")

    def test_unknown_backend_error_lists_choices(self):
        engine = EPPEngine(s27())
        with pytest.raises(AnalysisConfigError, match="choose from"):
            engine.analyze(backend="warp")

    def test_default_backend_is_registered(self):
        assert default_backend() in BACKENDS
