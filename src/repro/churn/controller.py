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
from repro.simulation.tape import TapeCursor, TimelineEntry

LEASE_EXPIRED = "lease-expired"
"""Pseudo-event kind recorded when a crashed server's registration lapses."""


@dataclass
class ChurnController:
    """Drives scheduled membership changes through a federation mid-run."""

    federation: Federation
    schedule: ChurnSchedule
    timeline: list[TimelineEntry] = field(default_factory=list)
    """Where entries land; the workload engine passes its run's one list."""
    _cursor: TapeCursor[ChurnEvent] = field(init=False, repr=False)
    _lease_expiries: list[tuple[float, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cursor = TapeCursor(self.schedule.events)

    @property
    def pending_events(self) -> int:
        return self._cursor.remaining + len(self._lease_expiries)

    def apply_until(self, now: float) -> list[TimelineEntry]:
        """Apply every event (and lease expiry) due at or before ``now``,
        in time order; a lease expiring at an event's instant goes first."""
        performed: list[TimelineEntry] = []
        for event in self._cursor.due(now):
            performed.extend(self._expire_leases(event.at_seconds))
            performed.append(self._apply(event.at_seconds, event.kind, event.server_id))
        performed.extend(self._expire_leases(now))
        self.timeline.extend(performed)
        return performed

    def _expire_leases(self, until: float) -> list[TimelineEntry]:
        """Pop every lease expiry at or before ``until``.  Re-reads the list
        each step: applying a crash inserts an expiry, a join removes some."""
        expired: list[TimelineEntry] = []
        while self._lease_expiries and self._lease_expiries[0][0] <= until:
            expired.append(self._expire_lease(*self._lease_expiries.pop(0)))
        return expired

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, at: float, kind: ChurnEventKind, server_id: str) -> TimelineEntry:
        federation = self.federation
        if kind == ChurnEventKind.JOIN:
            # Revive an offline server (no-op for one that never left).
            applied = federation.is_offline(server_id)
            if applied:
                federation.revive_map_server(server_id)
                # Rejoining refreshes the registration lease: the old crash's
                # pending expiry must not fire against a later crash's records.
                self._lease_expiries = [entry for entry in self._lease_expiries if entry[1] != server_id]
        else:
            applied = server_id in federation.servers
            if applied and kind == ChurnEventKind.CRASH:
                federation.crash_map_server(server_id)
                # A crashed server's records survive at the authority for
                # its registration lease: the federation's record TTL (the
                # paper's long-TTL registrants never expire in a short run).
                lease = federation.config.registration_ttl_seconds
                insort(self._lease_expiries, (at + lease, server_id))
            elif applied:
                federation.leave_map_server(server_id)
        return TimelineEntry(at, "churn", kind.value, server_id, applied)

    def _expire_lease(self, at: float, server_id: str) -> TimelineEntry:
        federation = self.federation
        # Only expire if the server is still down and still registered: a
        # rejoin before the lease lapsed refreshed the registration.
        applied = federation.is_offline(server_id) and federation.registration_for(server_id) is not None
        if applied:
            federation.expire_registration(server_id)
        return TimelineEntry(at, "churn", LEASE_EXPIRED, server_id, applied)
