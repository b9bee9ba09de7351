"""Warm pools: pre-registered zero-weight standby replicas.

Elastic capacity without cold starts: a :class:`WarmPool` deploys extra
replicas into an existing replica group *at SRV weight 0* — registered in
discovery (every answer carries them) but last-resort for RFC 2782
selection, so they serve (almost) no traffic while pooled.  Promotion is
then a pure weight change (``set_weight(promote_weight)``) that clients
converge to as their TTLs lapse; no registration race, no NXDOMAIN
window, no cache-fill stampede.

Retirement runs the other way — drain (weight back to 0) and, after a
grace period, *park*: the standby's records are withdrawn at the
authority (fresh discoveries stop seeing it) while the server itself
stays reachable, so devices holding stale cached answers drain off it
gracefully.  A parked standby is back in the pool; re-promotion unparks
(re-registers) it first.

The pool is bookkeeping plus :class:`~repro.core.federation.Federation`
lifecycle calls — the *decisions* (when to promote, how fast to ramp)
live in :class:`repro.autoscale.scaler.Autoscaler`, and the weight
changes themselves travel through the control plane so they are audited
like any operator action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - cycle guard: core.federation imports this module
    from repro.core.federation import Federation


@dataclass
class WarmPool:
    """The standby replicas attached to one replica group.

    Built via :meth:`provision` (or ``Federation.attach_warm_pool``);
    holds the federation, the group id, and the standby server ids in
    deployment order.  All state queries read the live federation — the
    pool object itself is stateless, so it can never disagree with the
    SRV truth.
    """

    federation: "Federation"
    group_id: str
    standby_ids: tuple[str, ...]

    @classmethod
    def provision(cls, federation: "Federation", group_id: str, size: int) -> "WarmPool":
        """Deploy ``size`` standbys into the group at weight 0 and wrap
        them as a pool.  The standbys continue the group's ``rN.`` id
        sequence and register immediately (pre-registered, zero-weight)."""
        standby_ids = federation.extend_replica_group(
            group_id, count=size, weight=0, priority=0
        )
        return cls(federation=federation, group_id=group_id, standby_ids=standby_ids)

    # ------------------------------------------------------------------
    # State queries (live SRV truth)
    # ------------------------------------------------------------------
    def weight_of(self, server_id: str) -> int:
        """The standby's currently advertised SRV weight."""
        return self.federation.srv_of(server_id)[1]

    def is_parked(self, server_id: str) -> bool:
        """Whether the standby's records are currently withdrawn."""
        return server_id not in self.federation.registry.registrations

    def pooled_ids(self) -> tuple[str, ...]:
        """Standbys at weight 0 (parked or registered): promotable."""
        return tuple(sid for sid in self.standby_ids if self.weight_of(sid) == 0)

    def serving_ids(self) -> tuple[str, ...]:
        """Standbys carrying positive weight, in deployment order."""
        return tuple(sid for sid in self.standby_ids if self.weight_of(sid) > 0)

    # ------------------------------------------------------------------
    # Lifecycle (federation calls; weight changes go via the control plane)
    # ------------------------------------------------------------------
    def ensure_registered(self, server_id: str) -> None:
        """Unpark a standby before promotion (no-op when registered)."""
        self._check(server_id)
        self.federation.unpark_map_server(server_id)

    def park(self, server_id: str) -> int:
        """Deregister a *fully drained* standby back into the pool.

        Refuses to park a standby still carrying weight — parking it
        would strand converged clients on a server fresh discoveries can
        no longer see.  Returns the number of records withdrawn.
        """
        self._check(server_id)
        if self.weight_of(server_id) != 0:
            raise ValueError(
                f"standby {server_id!r} still carries weight; drain it before parking"
            )
        return self.federation.park_map_server(server_id)

    def _check(self, server_id: str) -> None:
        if server_id not in self.standby_ids:
            raise ValueError(
                f"server {server_id!r} is not a standby of group {self.group_id!r}"
            )
