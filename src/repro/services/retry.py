"""Client retry pacing for replica failover.

When a map-server request fails — the bounded queue shed it, the server is
dead or partitioned away and the attempt timed out, or a lossy exchange ran
out of retransmits — the client may retry against the next replica of the
same coverage group (:mod:`repro.services.failover`).  A
:class:`RetryPolicy` says how long the client waits before that retry and
what an unresponsive server costs it.  There are two kinds:

* ``backoff`` (:meth:`RetryPolicy.full_jitter`) — capped exponential
  backoff with full jitter: the delay is drawn ``Uniform(0, computed)``
  (AWS-style) from the *seeded per-device* stream the caller provides, so a
  replica group's clients desynchronize their retry storms without losing
  reproducibility.  Patience escalates: an unresponsive server costs
  ``ATTEMPT_TIMEOUT_MS`` on the first attempt, doubling per prior failure
  up to ``DEAD_SERVER_TIMEOUT_MS``, so the first failover is cheap and later
  attempts (fewer replicas left) wait longer.
* ``utilization`` (:meth:`RetryPolicy.utilization_aware`) — deterministic
  exponential backoff divided by ``1 - load`` of the *failed* server (its
  queue depth over capacity, clamped to 0.95; a dead server reads as fully
  loaded), so retries against a saturated group spread out while a retry
  after a one-off blip stays fast.  Every unresponsive server costs the
  constant ``DEAD_SERVER_TIMEOUT_MS``.

Delays are charged against the simulated clock by the caller, so backoff
shows up in client-observed latency percentiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BACKOFF = "backoff"
UTILIZATION = "utilization"

_KINDS = (BACKOFF, UTILIZATION)

BASE_DELAY_MS = 10.0
"""The backoff before the first retry; each further failure doubles it."""

BACKOFF_MULTIPLIER = 2.0

MAX_DELAY_MS = 2_000.0

DEAD_SERVER_TIMEOUT_MS = 200.0
"""What waiting out an unresponsive server costs the client at most."""

ATTEMPT_TIMEOUT_MS = 50.0
"""A ``backoff`` client's patience on its first attempt."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a client paces failover attempts across a replica group."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown retry policy kind {self.kind!r}; expected one of {_KINDS}")

    @classmethod
    def utilization_aware(cls) -> "RetryPolicy":
        return cls(UTILIZATION)

    @classmethod
    def full_jitter(cls) -> "RetryPolicy":
        """Exponential backoff with full jitter and escalating timeouts —
        the recommended policy under correlated failures, where a
        deterministic policy synchronizes a whole region's retries."""
        return cls(BACKOFF)

    def delay_ms(
        self,
        failed_attempts: int,
        utilization: float = 0.0,
        rng: random.Random | None = None,
    ) -> float:
        """Milliseconds to wait before the next attempt.

        ``failed_attempts`` counts the attempts that have already failed for
        this logical request (>= 1 when a retry is being considered);
        ``utilization`` is the failed server's instantaneous load in [0, 1],
        consulted only by the ``utilization`` kind.  ``rng`` is the caller's
        seeded per-device stream, drawn from only by the ``backoff`` kind;
        without one that kind returns the un-jittered ceiling.
        """
        if failed_attempts < 1:
            return 0.0
        delay = BASE_DELAY_MS * BACKOFF_MULTIPLIER ** (failed_attempts - 1)
        if self.kind == UTILIZATION:
            load = min(max(utilization, 0.0), 0.95)
            return min(delay / (1.0 - load), MAX_DELAY_MS)
        delay = min(delay, MAX_DELAY_MS)
        return rng.uniform(0.0, delay) if rng is not None else delay

    def timeout_ms(self, failed_attempts: int) -> float:
        """What waiting out an unresponsive server costs on this attempt."""
        if self.kind == UTILIZATION:
            return DEAD_SERVER_TIMEOUT_MS
        return min(ATTEMPT_TIMEOUT_MS * BACKOFF_MULTIPLIER**failed_attempts, DEAD_SERVER_TIMEOUT_MS)
