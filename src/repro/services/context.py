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
targets* (:meth:`targets`) and execute requests through :meth:`fan_out`,
the one loop over a request's targets, which fails over between replicas;
with no retry policy configured both collapse to the historical
skip-on-failure behaviour with identical message counts.  Each service
returns a :class:`RequestOutcome` with its result, so no caller has to infer
how a request was served from shared counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

from repro.discovery.discoverer import Discoverer, DiscoveryResult
from repro.geometry.point import LatLng
from repro.mapserver.auth import Credential
from repro.mapserver.server import MapServer
from repro.services.failover import (
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


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """How one federated request was served, as the service saw it.

    ``served`` is false exactly when some target's replica chain was
    exhausted and no target answered: the user got nothing although
    servers were found.  ``degraded`` is true when the request's discovery
    answered a cell from a stale cache entry because live resolution failed.
    Both can hold at once — a stale view that names only dead replicas.

    A geocode asks the world provider as one more target, so its asks count
    like any other.  A lost coarse stage — the provider's chain exhausted —
    leaves a forward geocode with no area to discover, and so unserved
    unless its fallback ask to the same provider answers.  With no retry
    policy a crashed provider is no target at all (nothing to time out on),
    and the geocode reads served with no answer, as any request does whose
    servers all vanished.
    """

    served: bool
    degraded: bool

    @classmethod
    def of(cls, served: bool, discovery: DiscoveryResult | None) -> "RequestOutcome":
        """The outcome of a fan-out after ``discovery`` (``None``: none ran)."""
        return cls(served, discovery is not None and discovery.stale_cells > 0)


@dataclass
class FederationContext:
    """Everything a federated client-side service needs to operate."""

    discoverer: Discoverer
    directory: dict[str, MapServer]
    network: SimulatedNetwork
    credential: Credential
    retry_policy: RetryPolicy | None
    group_of: Mapping[str, str]
    health: ReplicaHealth | None
    failover: FailoverRecorder
    replica_selection: str
    """How replica chains are ordered (see :mod:`repro.services.failover`)."""
    srv_of: Mapping[str, tuple[int, int]]
    """Per-server (priority, weight) for RFC 2782 weighted selection."""
    selection_rng: random.Random
    """This device's seeded weighted-selection RNG stream."""
    backoff_rng: random.Random
    """This device's seeded retry-backoff jitter stream, consulted only by
    full-jitter retry policies (no draws otherwise — byte-identity safe)."""

    # ------------------------------------------------------------------
    # Logical targets and failover execution
    # ------------------------------------------------------------------
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
            include_dead=self.retry_policy is not None,
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
        the whole chain fails.  ``charge_exchange=False`` leaves the
        per-message accounting to the operation itself (the tile service
        charges per tile, not per server).
        """
        return execute_with_failover(
            target,
            operation,
            network=self.network,
            policy=self.retry_policy,
            health=self.health,
            recorder=self.failover,
            rng=self.backoff_rng,
            charge_exchange=charge_exchange,
        )

    def fan_out(
        self,
        targets: Sequence[RequestTarget],
        operation: Callable[[MapServer], T],
        charge_exchange: bool = True,
    ) -> tuple[list[T], bool]:
        """Request ``operation`` from every target, in order.

        Returns the answers of the targets that answered, in target order,
        and whether the fan-out served: false exactly when some chain was
        exhausted and none answered.  A target whose chain fails is skipped;
        a policy-denied chain counts as neither answered nor exhausted.
        """
        answers: list[T] = []
        exhausted = 0
        for target in targets:
            try:
                answers.append(self.request(target, operation, charge_exchange))
            except TargetUnavailableError as error:
                if not error.denied:
                    exhausted += 1
        return answers, bool(answers) or not exhausted

    # ------------------------------------------------------------------
    # Discovery helpers (charged against the network)
    # ------------------------------------------------------------------
    def discover_at(self, location: LatLng, uncertainty_meters: float = 0.0) -> DiscoveryResult:
        return self.discoverer.discover_at(location, uncertainty_meters)

    def discover_along(self, waypoints: list[LatLng], corridor_meters: float) -> DiscoveryResult:
        return self.discoverer.discover_along(waypoints, corridor_meters)

    def charge_map_server_request(self) -> None:
        """Charge one client↔map-server exchange against the network."""
        self.network.client_map_server_exchange()


__all__ = [
    "FederationContext",
    "RequestOutcome",
    "RequestTarget",
    "TargetUnavailableError",
]
