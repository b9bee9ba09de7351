"""Deterministic churn schedules: when servers join, leave and crash.

A :class:`ChurnSchedule` is a time-ordered list of membership events over a
fixed set of eligible server ids.  Schedules are either *trace-driven*
(:meth:`ChurnSchedule.from_events`, for tests and replayed incidents) or
*generated* (:meth:`ChurnSchedule.poisson`): crash/leave arrivals follow a
seeded Poisson process, each taking down one currently-up server and
scheduling its rejoin ``downtime_seconds`` later.  Generation is pure in its
arguments, so a fixed seed reproduces the same incident tape byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from repro.simulation.tape import Tape


class ChurnEventKind(str, Enum):
    """What happens to a server at a scheduled instant."""

    JOIN = "join"
    """The server (re)joins: reachable again and (re)registered in the
    discovery DNS if its records lapsed while it was away."""

    LEAVE = "leave"
    """Graceful departure: the operator deregisters (records are withdrawn
    from the authority immediately; only caches stay stale)."""

    CRASH = "crash"
    """Unplanned death: the server stops answering but its discovery records
    linger at the authority until its registration lease expires."""


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One membership change at one simulated instant."""

    at_seconds: float
    kind: ChurnEventKind
    server_id: str

    def __post_init__(self) -> None:
        if self.at_seconds < 0.0:
            raise ValueError("churn events cannot predate the run")


class ChurnSchedule(Tape[ChurnEvent]):
    """A time-ordered tape of churn events over eligible servers."""

    @staticmethod
    def _sort_key(event: ChurnEvent) -> tuple[float, str, str]:
        # A total order: churn's same-instant events never depend on each
        # other, so ties break by (server, kind) rather than authored order.
        return (event.at_seconds, event.server_id, event.kind.value)

    @classmethod
    def poisson(
        cls,
        server_ids: list[str] | tuple[str, ...],
        rate_per_minute: float,
        horizon_seconds: float,
        downtime_seconds: float = 60.0,
        crash_fraction: float = 1.0,
        seed: int = 0,
    ) -> "ChurnSchedule":
        """Generate a Poisson churn tape over ``server_ids``.

        Failures (one per arrival of a Poisson process with ``rate_per_minute``
        arrivals per simulated minute, aggregate over the whole set) pick a
        uniformly random *currently-up* server; each failure is a CRASH with
        probability ``crash_fraction`` (a graceful LEAVE otherwise) and is
        followed by a JOIN ``downtime_seconds`` later.  Arrivals finding every
        server already down are dropped rather than deferred, keeping the
        effective rate honest under extreme settings.
        """
        if rate_per_minute < 0.0:
            raise ValueError("churn rate cannot be negative")
        if horizon_seconds < 0.0:
            raise ValueError("horizon cannot be negative")
        if downtime_seconds <= 0.0:
            raise ValueError("downtime must be positive")
        if not (0.0 <= crash_fraction <= 1.0):
            raise ValueError("crash fraction must be in [0, 1]")
        eligible = sorted(set(server_ids))
        if rate_per_minute == 0.0 or not eligible:
            return cls(())

        rng = random.Random(seed)
        mean_gap = 60.0 / rate_per_minute
        events: list[ChurnEvent] = []
        down_until: dict[str, float] = {}
        t = 0.0
        while True:
            t += rng.expovariate(1.0 / mean_gap)
            if t >= horizon_seconds:
                break
            up = [sid for sid in eligible if down_until.get(sid, 0.0) <= t]
            if not up:
                continue
            victim = up[rng.randrange(len(up))]
            kind = (
                ChurnEventKind.CRASH
                if rng.random() < crash_fraction
                else ChurnEventKind.LEAVE
            )
            events.append(ChurnEvent(t, kind, victim))
            rejoin_at = t + downtime_seconds
            down_until[victim] = rejoin_at
            events.append(ChurnEvent(rejoin_at, ChurnEventKind.JOIN, victim))
        return cls(tuple(events))
