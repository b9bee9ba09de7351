"""Applying a churn schedule to a live federation.

The :class:`ChurnController` is the deployment-side actor of the churn
subsystem: as simulated time passes it takes due :class:`ChurnEvent`s and
performs them against the :class:`~repro.core.federation.Federation` —
removing crashed servers from the reachable directory, withdrawing a
graceful leaver's discovery records at the authority, re-registering
rejoiners, and expiring the registration *lease* of a crashed server that
stopped refreshing it (records linger at the authority for the lease, then
vanish; caches stay stale until their own TTLs lapse — two distinct decay
clocks, both measured by the workload engine).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.core.federation import Federation
from repro.simulation.tape import TapeCursor

LEASE_EXPIRED = "lease-expired"
"""Pseudo-event kind recorded when a crashed server's registration lapses."""


@dataclass(frozen=True, slots=True)
class AppliedChurnEvent:
    """One event the controller performed (or skipped as inapplicable)."""

    at_seconds: float
    kind: str
    server_id: str
    applied: bool = True


@dataclass
class ChurnController:
    """Drives scheduled membership changes through a federation mid-run."""

    federation: Federation
    schedule: ChurnSchedule
    lease_seconds: float | None = None
    """How long a crashed server's discovery records survive at the
    authority (its registration lease).  ``None`` uses the federation's
    ``registration_ttl_seconds`` — the paper's long-TTL registrants simply
    never expire within a short run."""

    applied: list[AppliedChurnEvent] = field(default_factory=list)
    rejoined_at: dict[str, float] = field(default_factory=dict)
    """Most recent JOIN instant per server — the workload engine measures
    time-to-rediscovery from these."""
    crashed_at: dict[str, float] = field(default_factory=dict)
    _cursor: TapeCursor[ChurnEvent] = field(init=False, repr=False)
    _lease_expiries: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cursor = TapeCursor(self.schedule.events)

    @property
    def effective_lease_seconds(self) -> float:
        if self.lease_seconds is not None:
            return self.lease_seconds
        return self.federation.config.registration_ttl_seconds

    @property
    def pending_events(self) -> int:
        return self._cursor.remaining + len(self._lease_expiries)

    def apply_until(self, now: float) -> list[AppliedChurnEvent]:
        """Apply every event (and lease expiry) due at or before ``now``,
        in time order; a lease expiring at an event's instant goes first."""
        performed: list[AppliedChurnEvent] = []
        for event in self._cursor.due(now):
            performed.extend(self._expire_leases(event.at_seconds))
            performed.append(self._apply(event.at_seconds, event.kind, event.server_id))
        performed.extend(self._expire_leases(now))
        self.applied.extend(performed)
        return performed

    def _expire_leases(self, until: float) -> list[AppliedChurnEvent]:
        """Pop every lease expiry at or before ``until``.  Re-reads the list
        each step: applying a crash inserts an expiry, a join removes some."""
        expired: list[AppliedChurnEvent] = []
        while self._lease_expiries and self._lease_expiries[0][0] <= until:
            expired.append(self._expire_lease(*self._lease_expiries.pop(0)))
        return expired

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, at: float, kind: ChurnEventKind, server_id: str) -> AppliedChurnEvent:
        federation = self.federation
        if kind == ChurnEventKind.CRASH:
            if server_id not in federation.servers:
                return AppliedChurnEvent(at, kind.value, server_id, applied=False)
            federation.crash_map_server(server_id)
            self.crashed_at[server_id] = at
            insort(self._lease_expiries, (at + self.effective_lease_seconds, server_id))
            return AppliedChurnEvent(at, kind.value, server_id)
        if kind == ChurnEventKind.LEAVE:
            if server_id not in federation.servers:
                return AppliedChurnEvent(at, kind.value, server_id, applied=False)
            federation.leave_map_server(server_id)
            return AppliedChurnEvent(at, kind.value, server_id)
        # JOIN: revive an offline server (no-op for one that never left).
        if not federation.is_offline(server_id):
            return AppliedChurnEvent(at, kind.value, server_id, applied=False)
        federation.revive_map_server(server_id)
        self.rejoined_at[server_id] = at
        self.crashed_at.pop(server_id, None)
        # Rejoining refreshes the registration lease: the old crash's
        # pending expiry must not fire against a later crash's records.
        self._lease_expiries = [
            entry for entry in self._lease_expiries if entry[1] != server_id
        ]
        return AppliedChurnEvent(at, kind.value, server_id)

    def _expire_lease(self, at: float, server_id: str) -> AppliedChurnEvent:
        federation = self.federation
        # Only expire if the server is still down and still registered: a
        # rejoin before the lease lapsed refreshed the registration.
        if federation.is_offline(server_id) and federation.registration_for(server_id) is not None:
            federation.expire_registration(server_id)
            return AppliedChurnEvent(at, LEASE_EXPIRED, server_id)
        return AppliedChurnEvent(at, LEASE_EXPIRED, server_id, applied=False)
