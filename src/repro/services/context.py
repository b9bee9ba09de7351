"""Shared context for the federated client-side services.

Every federated service (Section 5.2) needs the same three things: a way to
*discover* map servers for a region, a way to *reach* a discovered server by
its identifier, and a *network* against which to charge the requests it
makes.  :class:`FederationContext` bundles them; it is constructed by
:class:`repro.core.federation.Federation` and handed to each service.

With the churn subsystem the context also carries the client's failover
machinery: the federation's replica-group membership map, the configured
:class:`~repro.services.retry.RetryPolicy`, a per-device
:class:`~repro.services.health.ReplicaHealth` tracker and a per-device
:class:`~repro.services.failover.FailoverRecorder`.  Services address *logical
targets* (:meth:`targets`) and execute requests through :meth:`request`,
which fails over between replicas; with no retry policy configured both
collapse to the historical skip-on-failure behaviour with identical message
counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from repro.discovery.discoverer import Discoverer, DiscoveryResult
from repro.geometry.point import LatLng
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.server import MapServer
from repro.services.failover import (
    FIRST_HEALTHY,
    FailoverRecorder,
    RequestTarget,
    TargetUnavailableError,
    execute_with_failover,
    plan_targets,
)
from repro.services.health import ReplicaHealth
from repro.services.retry import RetryPolicy
from repro.simulation.network import SimulatedNetwork

T = TypeVar("T")


class UnknownServerError(KeyError):
    """Raised when discovery returns a server id the directory cannot reach."""


@dataclass
class FederationContext:
    """Everything a federated client-side service needs to operate."""

    discoverer: Discoverer
    directory: dict[str, MapServer] = field(default_factory=dict)
    network: SimulatedNetwork = field(default_factory=SimulatedNetwork)
    credential: Credential = ANONYMOUS
    retry_policy: RetryPolicy | None = None
    group_of: Mapping[str, str] = field(default_factory=dict)
    health: ReplicaHealth | None = None
    failover: FailoverRecorder = field(default_factory=FailoverRecorder)
    replica_selection: str = FIRST_HEALTHY
    """How replica chains are ordered (see :mod:`repro.services.failover`);
    the federation injects its configured mode — the bare-context default
    keeps the legacy first-healthy ordering."""
    srv_of: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    """Per-server (priority, weight) for RFC 2782 weighted selection."""
    selection_rng: random.Random | None = None
    """This device's seeded weighted-selection RNG stream."""
    backoff_rng: random.Random | None = None
    """This device's seeded retry-backoff jitter stream, consulted only by
    full-jitter retry policies (no draws otherwise — byte-identity safe)."""

    # ------------------------------------------------------------------
    # Directory
    # ------------------------------------------------------------------
    def server(self, server_id: str) -> MapServer:
        """Resolve a discovered server id to a reachable map server."""
        try:
            return self.directory[server_id]
        except KeyError:
            raise UnknownServerError(server_id) from None

    def servers(self, server_ids: tuple[str, ...] | list[str]) -> list[MapServer]:
        """Resolve several ids, skipping any that are not reachable."""
        found = []
        for server_id in server_ids:
            server = self.directory.get(server_id)
            if server is not None:
                found.append(server)
        return found

    # ------------------------------------------------------------------
    # Logical targets and failover execution
    # ------------------------------------------------------------------
    @property
    def failover_enabled(self) -> bool:
        return self.retry_policy is not None

    def targets(self, server_ids: Sequence[str]) -> list[RequestTarget]:
        """Collapse discovered ids into logical request targets.

        Replicas of one group become a single target with an ordered
        failover chain; with failover enabled, dead ids (stale cache
        entries) stay in the chain so the client pays — and the run
        measures — their timeout cost.
        """
        return plan_targets(
            server_ids,
            directory=self.directory,
            group_of=self.group_of,
            health=self.health,
            include_dead=self.failover_enabled,
            selection=self.replica_selection,
            srv_of=self.srv_of,
            rng=self.selection_rng,
            recorder=self.failover,
        )

    def request(
        self,
        target: RequestTarget,
        operation: Callable[[MapServer], T],
        charge_exchange: bool = True,
    ) -> T:
        """Execute ``operation`` against ``target`` with replica failover.

        Raises :class:`~repro.services.failover.TargetUnavailableError` when
        the whole chain fails (callers usually skip the target, exactly as
        they always skipped one failed server).  ``charge_exchange=False``
        leaves the per-message accounting to the operation itself (the tile
        service charges per tile, not per server).
        """
        network = self.network if charge_exchange else _NoExchangeNetwork(self.network)
        return execute_with_failover(
            target,
            operation,
            network=network,
            policy=self.retry_policy,
            health=self.health,
            recorder=self.failover,
            rng=self.backoff_rng,
        )

    # ------------------------------------------------------------------
    # Discovery helpers (charged against the network)
    # ------------------------------------------------------------------
    def discover_at(self, location: LatLng, uncertainty_meters: float = 0.0) -> DiscoveryResult:
        return self.discoverer.discover_at(location, uncertainty_meters)

    def discover_along(self, waypoints: list[LatLng], corridor_meters: float = 200.0) -> DiscoveryResult:
        return self.discoverer.discover_along(waypoints, corridor_meters)

    def charge_map_server_request(self) -> None:
        """Charge one client↔map-server exchange against the network."""
        self.network.client_map_server_exchange()


class _NoExchangeNetwork:
    """Network view whose per-attempt exchange charge is a no-op.

    Timeouts, backoff and the clock still hit the real network; only the
    one-exchange-per-attempt charge is suppressed, for operations that
    account their own messages.
    """

    __slots__ = ("_network",)

    def __init__(self, network: SimulatedNetwork) -> None:
        self._network = network

    @property
    def clock(self):
        return self._network.clock

    def client_map_server_exchange(
        self, server_id: str | None = None, fail_on_exhaustion: bool = False
    ) -> float:
        return 0.0

    def server_reachable(self, server_id: str) -> bool:
        return self._network.server_reachable(server_id)

    def client_backoff(self, delay_ms: float) -> float:
        return self._network.client_backoff(delay_ms)

    def dead_server_timeout(self, timeout_ms: float) -> float:
        return self._network.dead_server_timeout(timeout_ms)


__all__ = [
    "FederationContext",
    "RequestTarget",
    "TargetUnavailableError",
    "UnknownServerError",
]
