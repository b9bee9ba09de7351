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
from operator import attrgetter

from repro.discovery.cache import DiscoveryCache
from repro.discovery.naming import SpatialNaming
from repro.discovery.registry import MAP_SERVER_RECORD_TYPE
from repro.dns.message import DnsResponse, ResponseCode
from repro.dns.records import SrvData
from repro.dns.resolver import StubResolver
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.simulation.network import CLIENT_TO_RESOLVER_MS
from repro.spatialindex.cellid import MAX_LEVEL, CellId
from repro.spatialindex.covering import cells_at_level, normalize_covering


_NOERROR = ResponseCode.NOERROR
_NXDOMAIN = ResponseCode.NXDOMAIN

_WALK_TABLE_MAX_TOKENS = 65536
_WALK_PLAN_ENTRIES = 512

DISCOVERY_CACHE_MAX_ENTRIES = 4096
"""Cells one device's discovery cache holds before evicting the oldest."""

_token_of = attrgetter("token")


@lru_cache(maxsize=64)
def _walk_table(suffix: str, ancestor_levels: int) -> dict[str, tuple[str, ...]]:
    """The token → walk-names table of one ``(suffix, ancestor_levels)``.

    Every client in a fleet walks the same city cells, and a cell's names
    (itself first, then coarser) are pure in its token, so every
    :class:`Discoverer` naming the same way shares one table —
    :func:`_names_for_token` fills it and keeps it bounded.
    """
    return {}


def _names_for_token(
    token: str, suffix: str, ancestor_levels: int, names_by_token: dict[str, tuple[str, ...]]
) -> tuple[str, ...]:
    """Names to query for a cell new to ``names_by_token``: the cell
    itself plus a few ancestors.

    Registrations may live at coarser cells than the query level (large
    providers cover whole districts with one record), so each query also
    walks up the hierarchy, bounded by ``ancestor_levels``.
    """
    if len(names_by_token) >= _WALK_TABLE_MAX_TOKENS:
        names_by_token.clear()
    walk = names_by_token[token] = tuple(
        SpatialNaming(suffix).ancestor_names(CellId(token))[: ancestor_levels + 1]
    )
    return walk


@lru_cache(maxsize=_WALK_PLAN_ENTRIES)
def _walk_plan(
    tokens: tuple[str, ...], suffix: str, ancestor_levels: int
) -> tuple[tuple[str, ...], int]:
    """The names a walk of ``tokens`` resolves, in resolve order, and the
    lookups it coalesces.

    The walk's single-flight rules, run without a resolver: a cell already
    walked in this query coalesces whole, and a cell's walk stops at the
    first name an earlier walk resolved, coalescing the rest.  Which names
    came earlier depends on the tokens only, never on an answer, so the plan
    is pure in its key and holds names, never answers.
    """
    names_by_token = _walk_table(suffix, ancestor_levels)
    names: list[str] = []
    resolved: set[str] = set()
    walked: set[str] = set()
    coalesced = 0
    for token in tokens:
        if token in walked:
            coalesced += 1
            continue
        walked.add(token)
        walk = names_by_token.get(token) or _names_for_token(
            token, suffix, ancestor_levels, names_by_token
        )
        before = len(names)
        for name in walk:
            if name in resolved:
                break
            resolved.add(name)
            names.append(name)
        coalesced += len(walk) - (len(names) - before)
    return tuple(names), coalesced


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
    stale_cells: int = 0
    """Cells answered from an expired device-cache entry because live
    resolution failed: a request that saw any was served degraded."""

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
    stale_serve_max_ms: float = 0.0
    """Graceful degradation bound: when live resolution *fails* (SERVFAIL —
    authority dark or unreachable), an expired device-cache entry younger
    than this may still be served, stale, instead of hard-failing.  0 (the
    default) disables stale serving entirely."""

    def __post_init__(self) -> None:
        # ``FederationConfig`` checks its copies of these fields, but a
        # discoverer can be built directly, and a bad value would otherwise
        # surface mid-walk (or, for a NaN TTL, silently disable the cache).
        if not (isinstance(self.query_level, int) and 0 <= self.query_level <= MAX_LEVEL):
            raise ValueError(
                f"query_level must be an int in [0, {MAX_LEVEL}], got {self.query_level!r}"
            )
        if not (isinstance(self.ancestor_levels, int) and self.ancestor_levels >= 0):
            raise ValueError(f"ancestor_levels must be an int >= 0, got {self.ancestor_levels!r}")
        for name in ("device_cache_ttl_seconds", "stale_serve_max_ms"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.max_query_cells < 1:
            raise ValueError("max_query_cells must be >= 1")
        if self.naming is None:
            self.naming = SpatialNaming()
        self.cache = DiscoveryCache(
            clock=self.resolver.network.clock,
            max_entries=DISCOVERY_CACHE_MAX_ENTRIES,
            default_ttl_seconds=self.device_cache_ttl_seconds,
            stale_grace_seconds=self.stale_serve_max_ms / 1000.0,
        )
        self.stale_serves: int = 0
        """Cells answered from an expired cache entry because live
        resolution failed, over this device's lifetime: the sum of every
        result's ``stale_cells`` (the run reports it as ``stale_serves``)."""
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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover_at(self, location: LatLng, uncertainty_meters: float = 0.0) -> DiscoveryResult:
        """Discover map servers around a coarse device location."""
        if not (0.0 <= uncertainty_meters < math.inf):
            raise ValueError(f"uncertainty_meters must be finite and >= 0, got {uncertainty_meters}")
        if uncertainty_meters == 0.0:
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

    def discover_along(self, waypoints: list[LatLng], corridor_meters: float) -> DiscoveryResult:
        """Discover every map server along a path of waypoints (for routing)."""
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        if not (0.0 <= corridor_meters < math.inf):
            raise ValueError(f"corridor_meters must be finite and >= 0, got {corridor_meters}")
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
        long) and merge what their names resolve to.

        Each new name costs the two calls a stub resolution is, made here
        without the stub's frame: one client→resolver exchange on the stub's
        network, then the stub's recursive resolver.
        """
        if not self.cache.enabled:
            return self._walk_from_plan(cells)
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
        stale_cells = 0
        network = self.resolver.network
        clock = network.clock
        exchange = network.round_trip
        resolve = self.resolver.recursive.resolve
        suffix, ancestor_levels = self.naming.suffix, self.ancestor_levels
        names_by_token = _walk_table(suffix, ancestor_levels)

        for cell in cells:
            token = cell.token
            cell_servers = cell_results.get(token)
            if cell_servers is not None:
                coalesced += 1
            else:
                cell_servers = self.cache.get(token)
                if cell_servers is None:
                    walk = names_by_token.get(token) or _names_for_token(
                        token, suffix, ancestor_levels, names_by_token
                    )
                    names: list[str] = []
                    outcomes: list[tuple[tuple[str, ...], float, bool]] = []
                    rest = _NOTHING_WALKED
                    for name in walk:
                        known = walked.get(name)
                        if known is not None:
                            rest = known
                            break
                        # Deepest name first, one exchange each, in walk order.
                        exchange("dns.client_resolver", CLIENT_TO_RESOLVER_MS)
                        response = resolve(name, MAP_SERVER_RECORD_TYPE)
                        now = clock.now()
                        expires_at = response.expires_at
                        names.append(name)
                        if expires_at is None or response.answers:
                            outcomes.append(self._decode(response, now))
                        else:
                            # "Nobody at this name", and the resolver stands
                            # by it until ``expires_at`` (only NOERROR and
                            # NXDOMAIN answers are ever stamped with one):
                            # what ``_decode`` returns for it.
                            outcomes.append(((), now + (expires_at - now), False))
                    lookups += len(names)
                    coalesced += len(walk) - len(names)
                    cell_servers, cell_expires_at, resolution_failed = rest
                    for name, (name_servers, expires_at, failed) in zip(
                        reversed(names), reversed(outcomes)
                    ):
                        if name_servers:
                            cell_servers = name_servers + cell_servers
                        if expires_at < cell_expires_at:
                            cell_expires_at = expires_at
                        if failed:
                            resolution_failed = True
                        walked[name] = (cell_servers, cell_expires_at, resolution_failed)
                    # The expiry is absolute: the clock advances while the
                    # walk resolves, and an entry derived from an answer
                    # expiring at T must itself expire at T no matter when
                    # it is stored.
                    self.cache.put(token, cell_servers, ttl_seconds=cell_expires_at - clock.now())
                    if not cell_servers and resolution_failed:
                        # Graceful degradation: live resolution failed (not
                        # "nobody covers this cell" — the authority could
                        # not answer at all).  Serve a just-expired cached
                        # view if one is still inside the stale window; the
                        # entry is NOT re-cached, so the window stays
                        # anchored to the moment the data went stale.
                        stale = self.cache.get_stale(token)
                        if stale is not None:
                            cell_servers = stale
                            stale_cells += 1
                cell_results[token] = cell_servers

            for server_id in cell_servers:
                if server_id not in seen:
                    seen.add(server_id)
                    servers.append(server_id)

        self.stale_serves += stale_cells
        return DiscoveryResult(tuple(servers), tuple(cells), lookups, coalesced, stale_cells)

    def _walk_from_plan(self, cells: list[CellId]) -> DiscoveryResult:
        """The walk with the device cache off: the same names, exchanges and
        answers as the loop above, with nothing merged per cell.

        Nothing is stored per cell, so only the server list is needed, and it
        is the ordered union of the answers' targets in resolve order: a
        cell's merged list is its own new names' targets (deepest first,
        which is resolve order) followed by the merged list of the first name
        an earlier cell walked — servers that earlier cell already emitted.
        """
        names, coalesced = _walk_plan(
            tuple(map(_token_of, cells)), self.naming.suffix, self.ancestor_levels
        )
        network = self.resolver.network
        clock = network.clock
        exchange = network.round_trip
        resolve = self.resolver.recursive.resolve
        found: list[str] = []
        for name in names:
            exchange("dns.client_resolver", CLIENT_TO_RESOLVER_MS)
            response = resolve(name, MAP_SERVER_RECORD_TYPE)
            # Only records name a server: decoding a negative answer or a
            # failure would return no targets and write no ``srv_view``.
            if response.answers:
                found += self._decode(response, clock.now())[0]
        return DiscoveryResult(tuple(dict.fromkeys(found)), tuple(cells), len(names), coalesced)

    def _decode(self, response: DnsResponse, now: float) -> tuple[tuple[str, ...], float, bool]:
        """Decode one spatial name's answer to ``(targets, absolute expiry, failed)``.

        The expiry bounds how long a device-cache entry derived from this
        answer may live: never past the instant the resolver itself stops
        standing by the answer (``response.expires_at`` — an answer served
        from a cache expiring in 10s must not seed a 120s device entry), nor
        past the records' own TTL; an answer the resolver is not caching
        expires at once.  ``failed`` marks a *transient* resolution failure
        (SERVFAIL/REFUSED) — the cue for stale-serve degradation — as opposed
        to an authoritative "nobody covers this name".
        """
        code = response.code
        if code is not _NOERROR and code is not _NXDOMAIN:
            # Transient failures (SERVFAIL/REFUSED) are deliberately not
            # cached by the resolver; the device cache must not negative-cache
            # them either, or it would hide the recovery an uncached client
            # sees on its very next query.
            return (), now, True
        targets: tuple[str, ...] = ()
        ttl = math.inf
        if response.answers and code is _NOERROR:
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
