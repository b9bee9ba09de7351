"""Client-side map server discovery.

Section 5.1: "The discovery query would involve the coarse location of the
device obtained from ubiquitous sources like the GPS.  The discovery system
would then respond to the query with a list of map providers for the region."

The :class:`Discoverer` converts a coarse location (a point plus an
uncertainty radius, or a region) into spatial domain names, resolves them
through the caching DNS resolver, and returns a de-duplicated list of map
server identifiers.

Naming-level convention: registrations are published at cell levels *no finer
than* ``query_level`` (the registry enforces its own ``max_level``; the
federation configures both from one value).  A discovery query therefore
always enumerates cells at exactly ``query_level`` and, for each, also checks
its ancestor names up to ``ancestor_levels`` levels coarser — so any
registration at an equal or coarser level is guaranteed to be met by the
walk, while the DNS cache absorbs the repeated coarse-level lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.discovery.cache import DiscoveryCache
from repro.discovery.naming import SpatialNaming
from repro.discovery.registry import MAP_SERVER_RECORD_TYPE
from repro.dns.message import ResponseCode
from repro.dns.records import SrvData
from repro.dns.resolver import StubResolver
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.spatialindex.cellid import CellId
from repro.spatialindex.covering import cells_at_level, normalize_covering


@lru_cache(maxsize=65536)
def _ancestor_walk(naming: SpatialNaming, token: str, ancestor_levels: int) -> tuple[str, ...]:
    """Domain names for one cell's ancestor walk (cell first, then coarser).

    Every client in a fleet walks the same city cells, and each walk re-derives
    the same ~``ancestor_levels`` parent tokens and names; the walk is pure in
    (naming, token), so one process-wide cache serves the whole fleet.  The
    names themselves come from :meth:`SpatialNaming.ancestor_names` — this is
    only a bounded, memoized view of it.
    """
    return tuple(naming.ancestor_names(CellId(token))[: ancestor_levels + 1])


_NOTHING_WALKED: tuple[tuple[str, ...], float, bool] = ((), math.inf, False)
"""The merged outcome of an empty walk: no servers, never expires, no failure."""


@dataclass(frozen=True, slots=True)
class DiscoveryResult:
    """The outcome of one discovery query."""

    server_ids: tuple[str, ...]
    cells_queried: tuple[CellId, ...]
    dns_lookups: int
    coalesced_lookups: int = 0
    """DNS lookups avoided because an identical query was already in flight."""

    def __contains__(self, server_id: str) -> bool:
        return server_id in self.server_ids


@dataclass
class Discoverer:
    """Resolves coarse locations to the map servers covering them.

    ``device_cache_ttl_seconds`` enables a small device-side cache of per-cell
    discovery results (on top of the resolver's own DNS cache): a device that
    keeps querying the same few cells — the common case for a user walking
    around one store or one block — stops issuing DNS traffic entirely for
    the cached cells until the TTL lapses.  Set it to 0 to disable.
    """

    resolver: StubResolver
    naming: SpatialNaming = None  # type: ignore[assignment]
    query_level: int = 17
    ancestor_levels: int = 9
    max_query_cells: int = 24
    device_cache_ttl_seconds: float = 0.0
    cache_max_entries: int = 4096
    stale_serve_max_ms: float = 0.0
    """Graceful degradation bound: when live resolution *fails* (SERVFAIL —
    authority dark or unreachable), an expired device-cache entry younger
    than this may still be served, stale, instead of hard-failing.  0 (the
    default) disables stale serving entirely."""

    def __post_init__(self) -> None:
        if self.ancestor_levels < 0:
            raise ValueError("ancestor_levels cannot be negative")
        if self.max_query_cells < 1:
            raise ValueError("max_query_cells must be >= 1")
        if self.naming is None:
            self.naming = SpatialNaming()
        self.cache = DiscoveryCache(
            clock=self.resolver.network.clock,
            max_entries=self.cache_max_entries,
            default_ttl_seconds=self.device_cache_ttl_seconds,
            stale_grace_seconds=self.stale_serve_max_ms / 1000.0,
        )
        self.stale_serves: int = 0
        """Cells answered from an expired cache entry because live
        resolution failed — the degraded-service counter the workload
        engine reads to tell degraded requests from healthy ones."""
        self.srv_view: dict[str, tuple[int, int]] = {}
        """Per-server ``(priority, weight)`` as this device last decoded it
        from an actual discovery answer.  Updated only on fresh name
        resolution — replays from the device cache keep whatever the device
        learned before — so after an operator re-weights a live replica the
        device's view stays stale until its discovery-cache entry *and* the
        resolver pool's DNS entry expire.  That staleness is the point: it
        is the client half of the control plane's convergence story."""

    @property
    def device_cache_hits(self) -> int:
        return self.cache.stats.hits

    @property
    def device_cache_misses(self) -> int:
        return self.cache.stats.misses

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover_at(self, location: LatLng, uncertainty_meters: float = 0.0) -> DiscoveryResult:
        """Discover map servers around a coarse device location."""
        if uncertainty_meters <= 0.0:
            cells = [CellId.from_point(location, self.query_level)]
        else:
            box = BoundingBox.around(location, uncertainty_meters)
            cells = cells_at_level(box, self.query_level, self.max_query_cells)
        return self._discover_cells(cells)

    def discover_region(self, region: Polygon | BoundingBox) -> DiscoveryResult:
        """Discover map servers intersecting a region (e.g. a viewport)."""
        box = region if isinstance(region, BoundingBox) else region.bounding_box
        cells = cells_at_level(box, self.query_level, self.max_query_cells)
        return self._discover_cells(cells)

    def discover_along(self, waypoints: list[LatLng], corridor_meters: float = 200.0) -> DiscoveryResult:
        """Discover every map server along a path of waypoints (for routing)."""
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        all_cells: list[CellId] = []
        for waypoint in waypoints:
            box = BoundingBox.around(waypoint, corridor_meters)
            all_cells.extend(cells_at_level(box, self.query_level, self.max_query_cells))
        return self._discover_cells(normalize_covering(all_cells))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _discover_cells(self, cells: list[CellId]) -> DiscoveryResult:
        """Walk ``cells`` (all at ``query_level``, so all walks are equally
        long) and merge what their names resolve to."""
        servers: list[str] = []
        seen: set[str] = set()
        # Single-flight tables for this query batch: duplicate queries for a
        # cell (or for a name shared between two cells' ancestor walks) issued
        # while the first one is logically in flight coalesce onto its result
        # instead of issuing more DNS traffic.  ``walked[name]`` is the merged
        # outcome of the walk from ``name`` upward — (servers, earliest
        # expiry, any failure) — so a cell whose parent was already walked
        # resolves one name and reuses the rest in one probe.
        walked: dict[str, tuple[tuple[str, ...], float, bool]] = {}
        cell_results: dict[str, tuple[str, ...]] = {}
        lookups = 0
        coalesced = 0
        clock = self.resolver.network.clock
        # With the device cache off (the default) every probe of it misses
        # and every store is dropped, so the walk does not make them.
        caching = self.cache.enabled

        for cell in cells:
            cell_servers = cell_results.get(cell.token)
            if cell_servers is not None:
                coalesced += 1
            else:
                cell_servers = self.cache.get(cell.token) if caching else None
                if cell_servers is None:
                    walk = self._names_for_cell(cell)
                    fresh = []
                    rest = _NOTHING_WALKED
                    for name in walk:
                        known = walked.get(name)
                        if known is not None:
                            rest = known
                            break
                        # Deepest name first, one exchange each, in walk order.
                        fresh.append((name, self._resolve_name(name)))
                    lookups += len(fresh)
                    coalesced += len(walk) - len(fresh)
                    for name, (name_servers, expires_at, failed) in reversed(fresh):
                        if rest[1] < expires_at:
                            expires_at = rest[1]
                        rest = walked[name] = (name_servers + rest[0], expires_at, failed or rest[2])
                    cell_servers, cell_expires_at, resolution_failed = rest
                    if caching:
                        # The expiry is absolute: the clock advances while the
                        # walk resolves, and an entry derived from an answer
                        # expiring at T must itself expire at T no matter when
                        # it is stored.
                        self.cache.put(
                            cell.token, cell_servers, ttl_seconds=cell_expires_at - clock.now()
                        )
                        if not cell_servers and resolution_failed:
                            # Graceful degradation: live resolution failed (not
                            # "nobody covers this cell" — the authority could
                            # not answer at all).  Serve a just-expired cached
                            # view if one is still inside the stale window; the
                            # entry is NOT re-cached, so the window stays
                            # anchored to the moment the data went stale.
                            stale = self.cache.get_stale(cell.token)
                            if stale is not None:
                                cell_servers = stale
                                self.stale_serves += 1
                cell_results[cell.token] = cell_servers

            for server_id in cell_servers:
                if server_id not in seen:
                    seen.add(server_id)
                    servers.append(server_id)

        return DiscoveryResult(tuple(servers), tuple(cells), lookups, coalesced)

    def _resolve_name(self, name: str) -> tuple[tuple[str, ...], float, bool]:
        """Resolve one spatial name to ``(targets, absolute expiry, failed)``.

        The expiry bounds how long a device-cache entry derived from this
        answer may live: never past the instant the resolver itself stops
        standing by the answer (``response.expires_at`` — an answer served
        from a cache expiring in 10s must not seed a 120s device entry), nor
        past the records' own TTL; an answer the resolver is not caching
        expires at once.  ``failed`` marks a *transient* resolution failure
        (SERVFAIL/REFUSED) — the cue for stale-serve degradation — as opposed
        to an authoritative "nobody covers this name".
        """
        response = self.resolver.resolve(name, MAP_SERVER_RECORD_TYPE)
        now = self.resolver.network.clock.now()
        if response.code not in (ResponseCode.NOERROR, ResponseCode.NXDOMAIN):
            # Transient failures (SERVFAIL/REFUSED) are deliberately not
            # cached by the resolver; the device cache must not negative-cache
            # them either, or it would hide the recovery an uncached client
            # sees on its very next query.
            return (), now, True
        targets: tuple[str, ...] = ()
        ttl = math.inf
        if response.answers and response.code == ResponseCode.NOERROR:
            found = []
            for record in response.answers:
                if record.record_type == MAP_SERVER_RECORD_TYPE:
                    srv = SrvData.decode(record.data)
                    # The freshest SRV data this device has actually seen for
                    # the target; weighted replica selection reads this view.
                    self.srv_view[srv.target] = (srv.priority, srv.weight)
                    found.append(srv.target)
                    if record.ttl_seconds < ttl:
                        ttl = record.ttl_seconds
            targets = tuple(found)
        if response.expires_at is None:
            ttl = 0.0
        else:
            remaining = response.expires_at - now
            if remaining < ttl:
                ttl = remaining
        return targets, now + ttl, False

    def _names_for_cell(self, cell: CellId) -> tuple[str, ...]:
        """Names to query for a cell: the cell itself plus a few ancestors.

        Registrations may live at coarser cells than the query level (large
        providers cover whole districts with one record), so each query also
        walks up the hierarchy.  The walk is bounded by ``ancestor_levels``
        and memoized process-wide (see :func:`_ancestor_walk`).
        """
        return _ancestor_walk(self.naming, cell.token, self.ancestor_levels)
