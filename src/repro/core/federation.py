"""Wiring a federation together: DNS, discovery, map servers, client context.

:class:`Federation` is the deployment-side object: it owns the simulated
network, the DNS namespace (root server, the spatial discovery zone and its
authoritative server, a recursive resolver), the discovery registry, and the
directory of reachable map servers.  Applications then obtain an
:class:`repro.core.client.OpenFlameClient` from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.replicas import ReplicaGroup, replica_server_id
from repro.core.srv_view import DeviceSrvView
from repro.core.warmpool import WarmPool
from repro.discovery.discoverer import Discoverer
from repro.discovery.naming import SpatialNaming
from repro.discovery.registry import DiscoveryRegistry, Registration
from repro.dns.records import RecordType
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.server import NameServer
from repro.dns.zone import Zone
from repro.geometry.polygon import Polygon
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.policy import AccessPolicy
from repro.mapserver.server import MapServer
from repro.osm.mapdata import MapData
from repro.services.context import FederationContext
from repro.services.failover import FailoverRecorder
from repro.services.health import ReplicaHealth, SharedHealthBoard
from repro.simulation.clock import SimulatedClock
from repro.simulation.network import SimulatedNetwork
from repro.simulation.queueing import ServerQueue

ROUTING_ALGORITHM = "contraction"
"""How a map server deployed without an explicit ``routing_algorithm``
answers routing queries: contraction-hierarchy preprocessing and the fast
bidirectional upward search (Dijkstra for metrics the hierarchy was not
built for)."""


@dataclass
class Federation:
    """A running OpenFLAME federation (Figure 2)."""

    config: FederationConfig = field(default_factory=FederationConfig)
    network: SimulatedNetwork = field(init=False)
    naming: SpatialNaming = field(init=False)
    registry: DiscoveryRegistry = field(init=False)
    root_server: NameServer = field(init=False)
    resolver: RecursiveResolver = field(init=False)
    stub_resolver: StubResolver = field(init=False)
    servers: dict[str, MapServer] = field(default_factory=dict)
    world_provider_id: str | None = None
    replica_groups: dict[str, ReplicaGroup] = field(default_factory=dict)
    _group_of: dict[str, str] = field(default_factory=dict)
    _srv_of: dict[str, tuple[int, int]] = field(default_factory=dict)
    """Per-server ``(priority, weight)`` as advertised in its SRV records.
    Kept here (not only in the registry) because clients must keep ordering
    a group's chain while a crashed replica's registration is expired."""
    _offline: dict[str, MapServer] = field(default_factory=dict)
    """Servers currently crashed or gracefully departed, kept for revival.
    They are absent from ``servers`` (the reachable directory every client
    context shares), so requests addressed to them fail like real timeouts."""
    _parked: set[str] = field(default_factory=set)
    """Servers an operator deliberately parked (records withdrawn, object
    reachable).  Tracked explicitly so the parked state survives a
    crash/expire/revive interleaving: a revive must not resurrect a parked
    server's discovery records just because they happen to be absent."""
    warm_pools: dict[str, WarmPool] = field(default_factory=dict)
    """Replica group id → its attached :class:`repro.core.warmpool.WarmPool` of
    standby replicas (empty unless :meth:`attach_warm_pool` was called).
    The autoscaler discovers its scaling domains here."""

    def __post_init__(self) -> None:
        self.network = SimulatedNetwork(clock=SimulatedClock(), latency=self.config.latency)
        self.naming = SpatialNaming(self.config.discovery_suffix)
        self.registry = DiscoveryRegistry(
            naming=self.naming,
            covering_options=self.config.registration_covering,
            ttl_seconds=self.config.registration_ttl_seconds,
        )

        # Root name server delegates the discovery suffix to the registry's
        # authoritative server.
        root_zone = Zone(origin="")
        root_zone.add(self.naming.suffix, RecordType.NS, self.registry.authority.server_id)
        self.root_server = NameServer(server_id="root", zones={"": root_zone})
        self.resolver = RecursiveResolver(
            root=self.root_server,
            servers={
                "root": self.root_server,
                self.registry.authority.server_id: self.registry.authority,
            },
            network=self.network,
        )
        self.stub_resolver = StubResolver(recursive=self.resolver, network=self.network)
        self._resolver_pool: list[StubResolver] = [self.stub_resolver]
        self._context_counter = 0
        """Contexts built so far — the default weighted-selection seed, so
        devices created without an explicit seed draw *different* (but
        construction-order-deterministic) RNG streams instead of all
        replaying Random(0) in lockstep."""
        self._health_boards: dict[int, tuple[StubResolver, SharedHealthBoard]] = {}
        """Shared-health board per resolver pool, keyed by the stub
        resolver's identity.  The resolver itself is kept in the value so
        the keyed object can never be collected and its id() reused by an
        unrelated resolver — a board stays bound to exactly one pool."""

    # ------------------------------------------------------------------
    # Map server lifecycle
    # ------------------------------------------------------------------
    def add_map_server(
        self,
        server_id: str,
        map_data: MapData,
        policy: AccessPolicy | None = None,
        coverage: Polygon | None = None,
        routing_algorithm: str | None = None,
        is_world_provider: bool = False,
        srv_priority: int = 0,
        srv_weight: int = 0,
    ) -> MapServer:
        """Deploy a map server and register it in the discovery DNS.

        ``srv_priority``/``srv_weight`` land in every SRV record the
        registration emits (RFC 2782 semantics); standalone servers keep the
        0/0 default because a single-candidate target has nothing to
        balance.
        """
        if server_id in self.servers:
            raise FederationConfigError(f"map server {server_id!r} is already deployed")
        if coverage is not None:
            map_data.set_coverage(coverage)
        queue: ServerQueue | None = None
        if self.config.service_times is not None:
            queue = ServerQueue(
                network=self.network,
                service_times=self.config.service_times,
                capacity=self.config.server_queue_capacity,
                workers=self.config.server_workers,
            )
        server = MapServer(
            server_id=server_id,
            map_data=map_data,
            policy=policy or AccessPolicy(),
            routing_algorithm=routing_algorithm or ROUTING_ALGORITHM,
            queue=queue,
        )
        self.servers[server_id] = server
        self.registry.register_region(
            server_id, server.coverage, priority=srv_priority, weight=srv_weight
        )
        self._srv_of[server_id] = (srv_priority, srv_weight)
        if is_world_provider:
            self.world_provider_id = server_id
        return server

    def registration_for(self, server_id: str) -> Registration | None:
        return self.registry.registrations.get(server_id)

    # ------------------------------------------------------------------
    # Replica groups
    # ------------------------------------------------------------------
    def add_replica_group(
        self,
        group_id: str,
        map_data: MapData,
        replica_count: int,
        policy: AccessPolicy | None = None,
        coverage: Polygon | None = None,
        routing_algorithm: str | None = None,
        weights: tuple[int, ...] | list[int] | None = None,
        priorities: tuple[int, ...] | list[int] | None = None,
    ) -> ReplicaGroup:
        """Deploy ``replica_count`` interchangeable replicas of one map.

        Every replica advertises the same coverage region, so each covering
        cell's spatial name carries one SRV record per replica and a single
        discovery query hands clients the whole failover chain.  The
        replicas share the map data (and the access policy) but each runs
        its own queue — load and failures are per replica.

        ``weights`` configures per-replica RFC 2782 weights (heterogeneous
        capacity: ``(3, 1)`` sends replica 0 three quarters of the tier's
        traffic); the default gives every replica an equal positive weight
        so clients spread load uniformly.  ``priorities`` configures strict
        tiers (lower serves first; e.g. a warm standby at priority 1).
        Replica server ids are derived from the group id, so no two
        replicas can ever advertise the same host:port — the registry
        additionally rejects any endpoint collision at a shared spatial
        name rather than letting records shadow each other.
        """
        if replica_count < 1:
            raise FederationConfigError("a replica group needs at least one replica")
        if group_id in self.replica_groups:
            raise FederationConfigError(f"replica group {group_id!r} already exists")
        if weights is not None and len(weights) != replica_count:
            raise FederationConfigError(
                f"got {len(weights)} weights for {replica_count} replicas"
            )
        if priorities is not None and len(priorities) != replica_count:
            raise FederationConfigError(
                f"got {len(priorities)} priorities for {replica_count} replicas"
            )
        if coverage is not None:
            map_data.set_coverage(coverage)
        shared_policy = policy or AccessPolicy()
        group = ReplicaGroup(
            group_id=group_id,
            server_ids=tuple(replica_server_id(group_id, i) for i in range(replica_count)),
            weights=tuple(weights) if weights is not None else (),
            priorities=tuple(priorities) if priorities is not None else (),
        )
        for index, server_id in enumerate(group.server_ids):
            self.add_map_server(
                server_id,
                map_data,
                policy=shared_policy,
                routing_algorithm=routing_algorithm,
                srv_priority=group.priorities[index],
                srv_weight=group.weights[index],
            )
        self.replica_groups[group_id] = group
        for server_id in group.server_ids:
            self._group_of[server_id] = group_id
        return group

    def group_for(self, server_id: str) -> ReplicaGroup | None:
        group_id = self._group_of.get(server_id)
        return self.replica_groups.get(group_id) if group_id is not None else None

    # ------------------------------------------------------------------
    # Elastic capacity (warm-pool lifecycle)
    # ------------------------------------------------------------------
    def extend_replica_group(
        self, group_id: str, count: int = 1, weight: int = 0, priority: int = 0
    ) -> tuple[str, ...]:
        """Deploy ``count`` additional replicas into an existing group.

        The new replicas share the group's map data, access policy, and
        routing algorithm (taken from an existing member — online or
        offline), advertise the same coverage, and continue the group's
        ``rN.`` id sequence.  They register immediately at the given
        ``(priority, weight)`` — the default weight 0 makes them
        *pre-registered standbys*: present in every discovery answer but
        last-resort for selection, so a later promotion is a pure weight
        change that clients converge to as TTLs lapse.  Returns the new
        server ids in deployment order.
        """
        if count < 1:
            raise FederationConfigError("extending a group needs at least one replica")
        group = self.replica_groups.get(group_id)
        if group is None:
            raise FederationConfigError(f"replica group {group_id!r} does not exist")
        template: MapServer | None = None
        for server_id in group.server_ids:
            template = self.servers.get(server_id) or self._offline.get(server_id)
            if template is not None:
                break
        if template is None:
            raise FederationConfigError(
                f"replica group {group_id!r} has no member left to clone"
            )
        start = len(group.server_ids)
        new_ids = tuple(replica_server_id(group_id, start + i) for i in range(count))
        for server_id in new_ids:
            self.add_map_server(
                server_id,
                template.map_data,
                policy=template.policy,
                routing_algorithm=template.routing_algorithm,
                srv_priority=priority,
                srv_weight=weight,
            )
        group.extend(new_ids, weight=weight, priority=priority)
        for server_id in new_ids:
            self._group_of[server_id] = group_id
        return new_ids

    def park_map_server(self, server_id: str) -> int:
        """Withdraw a server's discovery records while keeping it reachable.

        The pool-retirement counterpart of :meth:`leave_map_server`: the
        authority stops advertising the server (fresh discoveries no longer
        see it) but the server object stays in the reachable directory, so
        devices holding stale cached answers drain off it gracefully as
        their TTLs lapse instead of hitting timeouts.  Idempotent for an
        already-parked server.  Returns the number of records withdrawn.

        Parking a crashed or departed server is rejected explicitly (it is
        not reachable, so "parked but reachable" would be a lie); revive it
        first.  The rejection changes no state.
        """
        if server_id in self._offline:
            raise FederationConfigError(
                f"map server {server_id!r} is offline — revive it before parking"
            )
        if server_id not in self.servers:
            raise FederationConfigError(f"map server {server_id!r} is not deployed")
        self._parked.add(server_id)
        return self.registry.deregister(server_id)

    def unpark_map_server(self, server_id: str) -> None:
        """Re-register a parked server with its current SRV values.

        The promotion-from-pool counterpart of :meth:`park_map_server`; a
        no-op when the server is already registered, so controllers can
        call it unconditionally before re-weighting.

        Unparking a server that crashed (or left) while parked is rejected
        explicitly — an unreachable server must not be re-advertised; the
        parked state is kept so a later revive stays unregistered until the
        operator unparks it again.
        """
        if server_id in self._offline:
            raise FederationConfigError(
                f"map server {server_id!r} is offline — revive it before unparking"
            )
        if server_id not in self.servers:
            raise FederationConfigError(f"map server {server_id!r} is not deployed")
        self._parked.discard(server_id)
        if server_id not in self.registry.registrations:
            server = self.servers[server_id]
            priority, weight = self._srv_of.get(server_id, (0, 0))
            self.registry.register_region(
                server_id, server.coverage, priority=priority, weight=weight
            )

    def attach_warm_pool(self, group_id: str, size: int) -> WarmPool:
        """Provision a :class:`repro.core.warmpool.WarmPool` of ``size``
        standby replicas for one group and remember it in
        :attr:`warm_pools` (one pool per group)."""
        if group_id in self.warm_pools:
            raise FederationConfigError(
                f"replica group {group_id!r} already has a warm pool"
            )
        pool = WarmPool.provision(self, group_id, size)
        self.warm_pools[group_id] = pool
        return pool

    # ------------------------------------------------------------------
    # Live SRV mutation (operator control plane)
    # ------------------------------------------------------------------
    def srv_of(self, server_id: str) -> tuple[int, int]:
        """A server's currently advertised SRV ``(priority, weight)``."""
        if server_id not in self.servers and server_id not in self._offline:
            raise FederationConfigError(f"map server {server_id!r} is not deployed")
        return self._srv_of.get(server_id, (0, 0))

    def set_srv(
        self, server_id: str, priority: int | None = None, weight: int | None = None
    ) -> tuple[int, int]:
        """Change a deployed server's SRV priority and/or weight, live.

        The change lands everywhere the old values lived, in dependency
        order: the replica group's advertised tuples, the federation's
        ``_srv_of`` (so crash → lease expiry → revive re-registers with the
        *new* values, exactly as :meth:`revive_map_server` preserves
        registration-time ones), and — when the server is currently
        registered, reachable or not — the authority's records via
        :meth:`repro.discovery.registry.DiscoveryRegistry.reweight`
        (add-before-remove: no NXDOMAIN window).  An offline server whose
        records already expired gets only the state update; its revival
        re-registers with the new values.

        Clients are deliberately *not* notified: their cached discovery
        answers keep the old values until the TTLs lapse, which is the
        convergence window the workload engine measures.
        """
        old_priority, old_weight = self.srv_of(server_id)
        new_priority = old_priority if priority is None else priority
        new_weight = old_weight if weight is None else weight
        if new_priority < 0:
            raise FederationConfigError("SRV priority cannot be negative")
        if new_weight < 0:
            raise FederationConfigError("SRV weight cannot be negative")
        if (new_priority, new_weight) == (old_priority, old_weight):
            return (new_priority, new_weight)
        group = self.group_for(server_id)
        if group is not None:
            # The group guard (no all-zero-weight multi-replica group) runs
            # before any state changes, so a rejected drain leaves the
            # federation untouched.
            if new_weight != old_weight:
                group.set_weight(server_id, new_weight)
            if new_priority != old_priority:
                group.set_priority(server_id, new_priority)
        self._srv_of[server_id] = (new_priority, new_weight)
        if server_id in self.registry.registrations:
            self.registry.reweight(server_id, priority=new_priority, weight=new_weight)
        return (new_priority, new_weight)

    # ------------------------------------------------------------------
    # Churn lifecycle (crash / graceful leave / revive / lease expiry)
    # ------------------------------------------------------------------
    def crash_map_server(self, server_id: str) -> None:
        """The server dies unannounced: unreachable, but records linger.

        Its discovery records stay at the authority until its registration
        lease expires (:meth:`expire_registration`, driven by the churn
        controller) — exactly the window in which *fresh* DNS resolution
        still hands out a dead server.
        """
        server = self.servers.pop(server_id, None)
        if server is None:
            raise FederationConfigError(f"map server {server_id!r} is not deployed")
        self._offline[server_id] = server

    def leave_map_server(self, server_id: str) -> None:
        """Graceful departure: deregister immediately, keep the object around.

        The authority stops answering for the server at once; only caches
        (resolver and device) stay stale until their TTLs lapse.
        """
        server = self.servers.pop(server_id, None)
        if server is None:
            raise FederationConfigError(f"map server {server_id!r} is not deployed")
        self._offline[server_id] = server
        self.registry.deregister(server_id)

    def revive_map_server(self, server_id: str) -> MapServer:
        """Bring an offline server back: reachable again and re-registered.

        A server that was *parked* when it went offline comes back reachable
        but stays unregistered — reviving restores reachability, it does not
        overrule the operator's parking decision (that is what
        :meth:`unpark_map_server` is for).
        """
        server = self._offline.pop(server_id, None)
        if server is None:
            raise FederationConfigError(f"map server {server_id!r} is not offline")
        self.servers[server_id] = server
        if server_id in self._parked:
            return server
        if server_id not in self.registry.registrations:
            priority, weight = self._srv_of.get(server_id, (0, 0))
            self.registry.register_region(
                server_id, server.coverage, priority=priority, weight=weight
            )
        return server

    def expire_registration(self, server_id: str) -> int:
        """Withdraw a server's records at the authority (lease expiry)."""
        return self.registry.deregister(server_id)

    def is_offline(self, server_id: str) -> bool:
        return server_id in self._offline

    def is_parked(self, server_id: str) -> bool:
        """Whether an operator parked this server (records deliberately
        withdrawn; survives crash/revive until unparked)."""
        return server_id in self._parked

    @property
    def offline_server_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._offline))

    @property
    def discovery_authority_id(self) -> str:
        """The authoritative DNS server for the discovery zone.

        Fault plans that take "the authority" offline without naming one
        resolve to this id — the single server every spatial name's
        resolution ultimately walks to.
        """
        return self.registry.authority.server_id

    @property
    def all_servers(self) -> dict[str, MapServer]:
        """Every deployed server, reachable or currently offline.

        Reporting uses this so a server that crashed mid-run keeps its
        accumulated load statistics in the run's books.
        """
        combined = dict(self.servers)
        combined.update(self._offline)
        return combined

    @property
    def world_provider(self) -> MapServer | None:
        if self.world_provider_id is None:
            return None
        return self.servers.get(self.world_provider_id)

    # ------------------------------------------------------------------
    # Shared regional resolver pools
    # ------------------------------------------------------------------
    def resolver_pool(self, pool_count: int) -> list[StubResolver]:
        """Stub resolvers backed by ``pool_count`` shared recursive resolvers.

        Pool 0 is the federation's default resolver, so a pool of one is the
        historical single-shared-resolver deployment.  Each further pool gets
        its own recursive resolver (and therefore its own DNS cache) over the
        same namespace — the "several regional resolvers" deployment whose
        per-pool hit rates the workload engine compares.
        """
        if pool_count < 1:
            raise FederationConfigError("a federation needs at least one resolver pool")
        while len(self._resolver_pool) < pool_count:
            recursive = RecursiveResolver(
                root=self.root_server,
                servers=dict(self.resolver.servers),
                network=self.network,
            )
            self._resolver_pool.append(StubResolver(recursive=recursive, network=self.network))
        return self._resolver_pool[:pool_count]

    # ------------------------------------------------------------------
    # Client-side context
    # ------------------------------------------------------------------
    def shared_health_board(self, stub_resolver: StubResolver | None = None) -> SharedHealthBoard:
        """The :class:`SharedHealthBoard` of a stub resolver's pool.

        Devices that share a resolver pool share one board — that is the
        gossip domain ``FederationConfig.shared_health`` turns on.
        """
        resolver = stub_resolver or self.stub_resolver
        entry = self._health_boards.get(id(resolver))
        if entry is None or entry[0] is not resolver:
            entry = (
                resolver,
                SharedHealthBoard(clock=self.network.clock),
            )
            self._health_boards[id(resolver)] = entry
        return entry[1]

    def build_context(
        self,
        credential: Credential | None = None,
        stub_resolver: StubResolver | None = None,
        selection_seed: int | None = None,
        backoff_seed: int | None = None,
    ) -> FederationContext:
        """Build the client-side context (discoverer + directory + network).

        ``selection_seed`` seeds the device's RFC 2782 weighted-selection
        RNG stream; ``backoff_seed`` seeds its retry-jitter stream (drawn
        from only by full-jitter retry policies).  The workload engine
        derives one of each per device so fleet runs stay deterministic
        while devices draw independently.  Without an explicit seed each
        context gets the next value of a federation counter — deterministic
        in construction order, but distinct per device, so ad-hoc fleets
        still spread load instead of every client replaying the same draw
        sequence.
        """
        discoverer = Discoverer(
            resolver=stub_resolver or self.stub_resolver,
            naming=self.naming,
            query_level=self.config.discovery_level,
            ancestor_levels=self.config.discovery_ancestor_levels,
            device_cache_ttl_seconds=self.config.device_discovery_cache_ttl_seconds,
            stale_serve_max_ms=self.config.stale_serve_max_ms,
        )
        retry_policy = self.config.retry_policy
        health: ReplicaHealth | None = None
        if retry_policy is not None:
            health = ReplicaHealth(
                clock=self.network.clock,
                board=self.shared_health_board(stub_resolver)
                if self.config.shared_health
                else None,
            )
        context = FederationContext(
            discoverer=discoverer,
            directory=self.servers,
            network=self.network,
            credential=credential if credential is not None else ANONYMOUS,
            retry_policy=retry_policy,
            group_of=self._group_of,
            health=health,
            failover=FailoverRecorder(),
            replica_selection=self.config.replica_selection,
            # The device's *own* view of SRV data: the (possibly stale)
            # values decoded from the discovery answers it actually holds,
            # falling back to the live advertisement for servers it never
            # resolved.  With static weights the two always agree; after a
            # control-plane re-weight the device keeps acting on the old
            # values until its cache entries expire — real convergence.
            srv_of=DeviceSrvView(discoverer.srv_view, self._srv_of),
            selection_rng=random.Random(
                selection_seed if selection_seed is not None else self._context_counter
            ),
            backoff_rng=random.Random(
                backoff_seed
                if backoff_seed is not None
                else self._context_counter ^ 0xB0FF
            ),
        )
        self._context_counter += 1
        return context

    def client(
        self,
        credential: Credential | None = None,
        stub_resolver: StubResolver | None = None,
        selection_seed: int | None = None,
        backoff_seed: int | None = None,
    ):
        """Create an :class:`repro.core.client.OpenFlameClient` for this federation."""
        # Deferred: repro.core.client imports this module (core.client <-> core.federation).
        from repro.core.client import OpenFlameClient

        return OpenFlameClient(
            federation=self,
            credential=credential,
            stub_resolver=stub_resolver,
            selection_seed=selection_seed,
            backoff_seed=backoff_seed,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def server_count(self) -> int:
        return len(self.servers)

    def reset_network_stats(self) -> None:
        self.network.reset_stats()
