"""Client-side replica health tracking, optionally shared per resolver pool.

Each device remembers which replicas recently failed it and demotes them for
a cooldown window, so consecutive requests do not keep paying the dead-server
timeout for a replica the device already knows is sick.

By default the tracker is per-device state, exactly as in a real fleet of
independent clients: a replica another device saw fail is still fair game
here.  With ``FederationConfig.shared_health`` the devices behind one shared
resolver pool additionally gossip through a :class:`SharedHealthBoard` —
the pool-level "this replica is dead" view.  The first device to pay a
dead-server timeout posts the replica to its pool's board; every other
device in the pool learns the replica is suspect the next time it plans a
request, *without* paying its own timeout.  Board entries carry a TTL so a
revived server is re-tried (and rediscovered) once the entry lapses, no
matter how many devices reported it dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.clock import SimulatedClock

HEALTHY = "healthy"
"""Consult verdict: nothing known against the replica."""
KNOWN_DEAD = "known-dead"
"""Consult verdict: this device already knew (own demotion or old news)."""
SHARED_NEWS = "shared-news"
"""Consult verdict: the pool board just told this device the replica is
suspect — the detection the device did NOT have to pay a timeout for."""

SHARED_HEALTH_TTL_SECONDS = 30.0
"""Lifetime of a federation's shared-health board entries.  Entries must
expire so a revived replica is re-tried (and wins traffic back) even if the
whole pool once saw it dead."""

HEALTH_COOLDOWN_SECONDS = 30.0
"""How long a replica stays demoted in a device's tracker after a failed
attempt."""


@dataclass
class SharedHealthBoard:
    """One resolver pool's shared view of dead replicas, with entry TTLs.

    ``epoch`` increments every time a replica goes from clean to suspect, so
    devices can tell fresh news from an outage they already incorporated
    (a device acknowledges each (replica, epoch) pair at most once).
    """

    clock: SimulatedClock
    _suspect_until: dict[str, float] = field(default_factory=dict)
    _suspected_at: dict[str, float] = field(default_factory=dict)
    """When each live entry was last (re)posted — devices compare their own
    last success against this to tell stale suspicion from fresh news."""
    _epochs: dict[str, int] = field(default_factory=dict)
    reports: int = 0
    recoveries: int = 0

    def report_failure(self, server_id: str) -> None:
        """A device failed against ``server_id``: (re)post it to the board."""
        now = self.clock.now()
        self.reports += 1
        if self._suspect_until.get(server_id, 0.0) <= now:
            # Clean (or lapsed) -> suspect: a new outage epoch begins.
            self._epochs[server_id] = self._epochs.get(server_id, 0) + 1
        self._suspect_until[server_id] = now + SHARED_HEALTH_TTL_SECONDS
        self._suspected_at[server_id] = now

    def report_recovery(self, server_id: str) -> None:
        """A device got a real answer from ``server_id``: clear the entry.

        Only a *live* entry counts as a recovery: an entry whose TTL already
        lapsed expired on its own (``is_suspect`` would have dropped it), so
        a success racing the expiry must not inflate the recovery counter.
        """
        until = self._suspect_until.pop(server_id, None)
        self._suspected_at.pop(server_id, None)
        if until is not None and until > self.clock.now():
            self.recoveries += 1

    def is_suspect(self, server_id: str) -> bool:
        until = self._suspect_until.get(server_id)
        if until is None:
            return False
        if until <= self.clock.now():
            # TTL lapsed: the entry expires so a revived server wins traffic
            # back even if nobody explicitly reported the recovery.
            del self._suspect_until[server_id]
            self._suspected_at.pop(server_id, None)
            return False
        return True

    def suspected_at(self, server_id: str) -> float | None:
        """When the live entry against ``server_id`` was last posted."""
        return self._suspected_at.get(server_id) if self.is_suspect(server_id) else None

    def epoch(self, server_id: str) -> int:
        return self._epochs.get(server_id, 0)


@dataclass
class ReplicaHealth:
    """Per-device failure memory with a cooldown window (and optional gossip)."""

    clock: SimulatedClock
    board: SharedHealthBoard | None = None
    """The device's resolver pool's shared board; ``None`` keeps the tracker
    purely per-device (the legacy behaviour, byte-identical)."""
    _demoted_until: dict[str, float] = field(default_factory=dict)
    _failures: dict[str, int] = field(default_factory=dict)
    _acknowledged_epoch: dict[str, int] = field(default_factory=dict)
    """Board epoch this device has already incorporated per replica."""
    _last_success: dict[str, float] = field(default_factory=dict)
    """When this device last got a real answer per replica.  First-hand
    evidence at least as fresh as a board entry overrides the board: under
    the engine's concurrent-round clock a pool mate's timeout can be posted
    at a simulated instant *before* this device's own success, and gossip
    must not demote a replica the device itself just proved healthy."""

    def record_failure(self, server_id: str, dead: bool = False) -> None:
        """Demote a replica for the cooldown window (failures accumulate).

        ``dead`` marks a dead-server timeout (the replica is unreachable,
        not merely busy).  Only those are gossiped to the pool board: a
        shed request on an overloaded-but-alive replica is this device's
        backpressure signal, not pool-wide "that replica is dead" news —
        publishing it would demote a healthy replica for the whole pool and
        pollute the time-to-detect accounting.
        """
        self._failures[server_id] = self._failures.get(server_id, 0) + 1
        self._last_success.pop(server_id, None)
        self._demoted_until[server_id] = self.clock.now() + HEALTH_COOLDOWN_SECONDS
        if dead and self.board is not None:
            self.board.report_failure(server_id)
            self._acknowledged_epoch[server_id] = self.board.epoch(server_id)

    def record_success(self, server_id: str) -> None:
        """A successful response immediately rehabilitates the replica."""
        self._demoted_until.pop(server_id, None)
        self._failures.pop(server_id, None)
        self._last_success[server_id] = self.clock.now()
        if self.board is not None:
            self.board.report_recovery(server_id)

    def _own_demotion_active(self, server_id: str) -> bool:
        until = self._demoted_until.get(server_id)
        if until is None:
            return False
        if until <= self.clock.now():
            # The cooldown is the tracker's whole memory horizon: a replica
            # that served out its demotion starts with a clean slate, so a
            # crashed-and-rejoined server wins traffic back instead of being
            # demoted forever by its accumulated history.
            del self._demoted_until[server_id]
            self._failures.pop(server_id, None)
            return False
        return True

    def _board_suspicion_active(self, server_id: str) -> bool:
        """Whether the pool board's suspicion applies to *this* device.

        First-hand evidence wins: a device whose own last success against
        the replica is at least as fresh as the board entry ignores the
        entry — the device literally proved the replica healthy no earlier
        than the moment the entry was posted, so the shared suspicion is
        stale for it (though still valid gossip for pool mates without that
        evidence).
        """
        if self.board is None or not self.board.is_suspect(server_id):
            return False
        last_success = self._last_success.get(server_id)
        if last_success is not None:
            suspected_at = self.board.suspected_at(server_id)
            if suspected_at is not None and last_success >= suspected_at:
                return False
        return True

    def is_healthy(self, server_id: str) -> bool:
        if self._own_demotion_active(server_id):
            return False
        if self._board_suspicion_active(server_id):
            return False
        return True

    def consult(self, server_id: str) -> str:
        """Classify what this device knows about a replica right now.

        Returns :data:`SHARED_NEWS` exactly once per (replica, board epoch):
        the moment the pool's board — not the device's own experience — is
        what marks the replica suspect.  That moment is the gossip win the
        availability metrics count: a detection whose cost was zero instead
        of a dead-server timeout.  Board entries the device's own fresher
        success overrides are neither news nor suspicion — the epoch stays
        unacknowledged, so a *renewed* entry (posted after the success)
        still lands as shared news.
        """
        own = self._own_demotion_active(server_id)
        if self._board_suspicion_active(server_id):
            epoch = self.board.epoch(server_id)
            if self._acknowledged_epoch.get(server_id) != epoch:
                self._acknowledged_epoch[server_id] = epoch
                if not own:
                    return SHARED_NEWS
            return KNOWN_DEAD
        return KNOWN_DEAD if own else HEALTHY

    def knew_dead(self, server_id: str) -> bool:
        """True if the device already holds the replica suspect (any source)."""
        return not self.is_healthy(server_id)

    def failure_count(self, server_id: str) -> int:
        return self._failures.get(server_id, 0)

    def sort_key(self, server_id: str) -> tuple[int, int, str]:
        """Ordering key: healthy first, then fewest recorded failures.

        The trailing id keeps the order total and deterministic.
        """
        return (0 if self.is_healthy(server_id) else 1, self.failure_count(server_id), server_id)
