"""Configuration for a federation instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.discovery.naming import DEFAULT_DISCOVERY_SUFFIX
from repro.services.failover import SELECTION_MODES, WEIGHTED
from repro.services.retry import RetryPolicy
from repro.simulation.network import LatencyModel
from repro.simulation.queueing import ServiceTimeModel, check_count
from repro.spatialindex.cellid import MAX_LEVEL
from repro.spatialindex.covering import CoveringOptions


@dataclass(frozen=True, slots=True)
class FederationConfig:
    """Tunables shared by every component of one federation.

    ``registration_covering`` controls how map coverage regions are converted
    into DNS records; ``discovery_level`` is the cell level used for client
    discovery queries; ``registration_ttl_seconds`` is the TTL on discovery
    records (long, because map server addresses rarely change — Section 5.1).

    ``device_discovery_cache_ttl_seconds`` enables the per-device
    :class:`repro.discovery.cache.DiscoveryCache` (0 disables it);
    ``client_tile_cache_entries`` sizes the per-device tile LRU (0 disables
    it).  Both default to off so single-request experiments keep their exact
    message counts; traffic-heavy workloads switch them on.
    """

    discovery_suffix: str = DEFAULT_DISCOVERY_SUFFIX
    discovery_level: int = 17
    discovery_ancestor_levels: int = 8
    registration_covering: CoveringOptions = field(
        default_factory=lambda: CoveringOptions(min_level=13, max_level=17, max_cells=64)
    )
    registration_ttl_seconds: float = 3600.0
    device_discovery_cache_ttl_seconds: float = 0.0
    client_tile_cache_entries: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)
    service_times: ServiceTimeModel | None = None
    """Per-request-kind service times for the server-side queueing model;
    ``None`` (the default) keeps every map server infinitely fast, preserving
    the exact latency accounting of the single-request experiments."""
    server_queue_capacity: int = 64
    """Bounded queue depth *per worker* once ``service_times`` is set;
    requests arriving when every worker's queue is full are dropped (load
    shedding)."""
    server_workers: int = 1
    """Logical workers per map server's queue: a server with 4 workers
    saturates at 4× the single-worker knee.  Only meaningful with
    ``service_times`` set."""
    retry_policy: RetryPolicy | None = None
    """Client-side replica failover policy.  ``None`` (the default) keeps
    the historical behaviour — failed servers are skipped silently, with no
    retries, no dead-server timeouts and identical message counts;
    federations that deploy replica groups set a policy so clients fail
    over between replicas."""
    replica_selection: str = WEIGHTED
    """How a client orders the replicas of one coverage group:
    ``"weighted"`` (the default) applies RFC 2782 SRV semantics — strict
    priority tiers, weighted-random within a tier from a per-device seeded
    RNG stream — so an N-replica group actually spreads load N ways;
    ``"first-healthy"`` keeps the legacy ordering (healthiest first, then
    id order), which funnels a healthy group's whole load onto one
    replica."""
    shared_health: bool = False
    """Gossip dead-replica knowledge through each shared resolver pool: the
    first device to pay a dead-server timeout posts the replica to its
    pool's :class:`repro.services.health.SharedHealthBoard`, and pool mates
    demote it without paying their own timeout.  Off (the default) keeps
    health strictly per-device — the byte-identical legacy behaviour."""
    stale_serve_max_ms: float = 0.0
    """Graceful-degradation bound: how long past expiry a device may keep
    serving a *stale* cached discovery result when live resolution fails
    (authority dark, SERVFAIL).  0 — the default — hard-fails on discovery
    failure exactly as before; disaster scenarios set it so warm-cache
    devices coast through authority outages, with degraded requests counted
    separately in :class:`repro.workload.engine.WorkloadReport`."""

    def __post_init__(self) -> None:
        if self.replica_selection not in SELECTION_MODES:
            raise ValueError(
                f"unknown replica_selection {self.replica_selection!r}; "
                f"expected one of {SELECTION_MODES}"
            )
        covering = self.registration_covering
        if not (1 <= self.discovery_level <= MAX_LEVEL):
            raise ValueError(f"discovery_level must be in [1, {MAX_LEVEL}]")
        if self.discovery_ancestor_levels < 0:
            raise ValueError("discovery_ancestor_levels cannot be negative")
        if covering.max_level > self.discovery_level:
            raise ValueError(
                f"registration_covering.max_level ({covering.max_level}) is finer than "
                f"discovery_level ({self.discovery_level}): the discovery walk only climbs, "
                "so registrations below the query level would never be found"
            )
        if self.discovery_level - self.discovery_ancestor_levels > covering.min_level:
            raise ValueError(
                f"the discovery walk stops at level "
                f"{self.discovery_level - self.discovery_ancestor_levels}, short of "
                f"registration_covering.min_level ({covering.min_level}): coarse "
                "registrations would never be found; raise discovery_ancestor_levels"
            )
        # ``nan < 0`` is false, so a plain sign check lets NaN through — and a
        # NaN TTL silently disables the cache.
        for name in ("device_discovery_cache_ttl_seconds", "stale_serve_max_ms"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.client_tile_cache_entries < 0:
            raise ValueError(
                f"client_tile_cache_entries cannot be negative, got {self.client_tile_cache_entries}"
            )
        check_count("server_queue_capacity", self.server_queue_capacity)
        check_count("server_workers", self.server_workers)
