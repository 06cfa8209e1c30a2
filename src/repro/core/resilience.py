"""Fault policies and shard outcome records for the sharded EPP driver.

PR 2's per-column shard independence makes every shard *exactly
re-runnable*: a shard's packed result depends only on the compiled
circuit, the SP vector and the shard's site list — never on which worker
computed it, how many times it was attempted, or what other shards did.
That invariant is what lets :class:`~repro.core.epp_shard.ShardedEPPEngine`
recover from worker crashes, wedged processes and failed shared-memory
exports without perturbing a single bit of the result: a recovered
analysis is ``np.array_equal`` to a clean one.

This module holds the policy layer of that recovery:

* :class:`FaultPolicy` — how failures are handled: the per-shard retry
  budget, exponential backoff with *deterministic seeded jitter* (two
  runs with the same policy produce the same delay schedule — chaos
  tests stay reproducible), the per-shard deadline, the global analysis
  deadline, and the terminal action once the budget is exhausted
  (``on_failure="retry" | "degrade" | "raise"``).
* :class:`ShardOutcome` — the per-shard audit record an analysis leaves
  behind (attempts, worker pid, transport used, elapsed seconds,
  degraded flag), surfaced as
  :attr:`~repro.core.epp_shard.ShardedEPPEngine.last_outcomes`.
* :class:`Deadline` — a small monotonic-clock countdown shared by the
  driver's scheduler loop and the pool barriers.

The fault *injection* side — the seeded harness that crashes workers,
stalls shards past their deadline and poisons shm exports so every
recovery path here is pinned in tests — lives in
:mod:`repro.testing.faults`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import AnalysisError, ConfigError

__all__ = [
    "Deadline",
    "FaultPolicy",
    "ON_FAILURE_MODES",
    "ShardOutcome",
]

#: Terminal actions once a shard's retry budget is exhausted (or, for
#: ``"raise"``, on the first failure): ``retry`` raises
#: :class:`~repro.errors.RetryBudgetExceededError` after the budget,
#: ``degrade`` runs the shard on the in-process vector backend instead
#: (the analysis still completes, bit-identical — the local backend runs
#: the same kernels), ``raise`` fails fast on the first shard failure.
ON_FAILURE_MODES = ("retry", "degrade", "raise")


@dataclass(frozen=True)
class FaultPolicy:
    """How the sharded driver responds to shard failures.

    Parameters
    ----------
    retries:
        Extra attempts allowed per shard beyond the first (so a shard is
        submitted at most ``retries + 1`` times).  ``0`` disables
        retrying without disabling the recovery machinery.
    backoff_base / backoff_factor / backoff_max:
        Exponential backoff before re-submission: attempt ``k``'s retry
        waits ``min(backoff_base * backoff_factor**(k-1), backoff_max)``
        seconds (before jitter).  The first submission never waits.
    jitter:
        Fractional jitter on each backoff delay, drawn deterministically
        from ``seed`` and the ``(shard, attempt)`` pair — retries of a
        respawned pool don't stampede, yet the schedule is exactly
        reproducible run to run.
    seed:
        The jitter seed.
    shard_timeout:
        Per-shard deadline in seconds (``None``: no deadline).  A shard
        still unfinished past it is re-enqueued with backoff; if it was
        already running, the wedged worker pool is respawned first.
    deadline:
        Global analysis deadline in seconds (``None``: none).  On expiry
        the analysis raises :class:`~repro.errors.ShardTimeoutError` —
        or, under ``on_failure="degrade"``, finishes the remaining
        shards on the in-process vector backend.
    on_failure:
        The terminal action (see :data:`ON_FAILURE_MODES`).
    """

    retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    shard_timeout: float | None = None
    deadline: float | None = None
    on_failure: str = "retry"

    def __post_init__(self):
        if int(self.retries) < 0:
            raise AnalysisError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0.0 or self.backoff_max < 0.0:
            raise AnalysisError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise AnalysisError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise AnalysisError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.shard_timeout is not None and self.shard_timeout <= 0.0:
            raise AnalysisError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.deadline is not None and self.deadline <= 0.0:
            raise AnalysisError(f"deadline must be > 0, got {self.deadline}")
        if self.on_failure not in ON_FAILURE_MODES:
            raise AnalysisError(
                f"unknown on_failure {self.on_failure!r}; "
                f"choose from {ON_FAILURE_MODES}"
            )

    @classmethod
    def from_config(cls, config) -> "FaultPolicy":
        """The policy an :class:`~repro.core.config.AnalysisConfig`
        (duck-typed, so this module stays import-light) asks for,
        defaulting every knob it leaves ``None``.

        The single resolution point for the sharded driver, so the
        engine-level backend cache can compare policies structurally.

        Non-positive timeouts are rejected *here*, with
        :class:`~repro.errors.ConfigError` naming the user-facing knob:
        these values arrive from ``--shard-timeout``/``--request-deadline``
        style flags, and before this check a bad value would surface deep
        in the shard scheduler as an opaque :class:`AnalysisError`.
        """
        retries = config.retries
        shard_timeout = config.shard_timeout
        deadline = config.deadline
        if shard_timeout is not None and float(shard_timeout) <= 0.0:
            raise ConfigError(
                f"--shard-timeout must be > 0 seconds, got {shard_timeout} "
                "(omit the flag to disable the per-shard deadline)"
            )
        if deadline is not None and float(deadline) <= 0.0:
            raise ConfigError(
                f"--request-deadline must be > 0 seconds, got {deadline} "
                "(omit the flag to disable the global deadline)"
            )
        if retries is not None and int(retries) < 0:
            raise ConfigError(f"--retries must be >= 0, got {retries}")
        kwargs = {}
        if retries is not None:
            kwargs["retries"] = int(retries)
        if shard_timeout is not None:
            kwargs["shard_timeout"] = float(shard_timeout)
        if config.on_failure is not None:
            kwargs["on_failure"] = config.on_failure
        if deadline is not None:
            kwargs["deadline"] = float(deadline)
        return cls(**kwargs)

    @property
    def max_attempts(self) -> int:
        """Total submissions allowed per shard (first try included)."""
        return int(self.retries) + 1

    def backoff_delay(self, shard: int, attempt: int) -> float:
        """Seconds to wait before re-submitting ``shard``'s ``attempt``-th
        retry (``attempt`` counts failed submissions so far, >= 1).

        Deterministic: the jitter fraction is drawn from a generator
        seeded by ``(seed, shard, attempt)``, so the full delay schedule
        of an analysis is a pure function of the policy — what lets the
        chaos tests assert recovery timing without sleeping on real
        randomness.
        """
        if attempt < 1:
            return 0.0
        delay = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if self.jitter and delay > 0.0:
            rng = random.Random(f"{self.seed}:{shard}:{attempt}")
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass
class ShardOutcome:
    """The audit record of one shard's journey through an analysis.

    ``transport`` is how the delivered result crossed the process
    boundary: ``"shm"`` (shared-memory segment), ``"pickle"`` (executor
    result channel — including the worker-side fallback after a failed
    shm export), or ``"local"`` (the shard was degraded to the
    in-process vector backend).  ``attempts`` counts every submission,
    the successful one included; ``worker_pid`` is the pid that produced
    the delivered result (``None`` for local/degraded shards).
    """

    shard: int
    sites: int
    attempts: int = 1
    worker_pid: int | None = None
    transport: str = "shm"
    elapsed: float = 0.0
    degraded: bool = False


@dataclass
class Deadline:
    """Monotonic countdown: ``None`` budget means "never expires".

    A negative budget is clamped to ``0.0`` at construction — the
    countdown is *already expired*, which is the only coherent reading
    of "you had less than no time".  Before the clamp a negative budget
    leaked into ``started + budget - now`` arithmetic and every wait
    computed from :meth:`remaining` still behaved, but consumers doing
    their own ``budget - elapsed`` math (the server's queue accounting)
    saw nonsense negatives.
    """

    budget: float | None
    started: float = field(default_factory=time.monotonic)

    def __post_init__(self):
        if self.budget is not None and self.budget < 0.0:
            self.budget = 0.0

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0.0, self.started + self.budget - time.monotonic())

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0
