"""The map server: one organization's map plus its location-based services.

"A map server is a system that stores the map of a region and provides
services such as search and routing on the map.  The usefulness of a map
server is determined by the services it implements.  It can also impose
fine-grained security and privacy policies on users and applications"
(Section 3).

:class:`MapServer` is the façade the federated client talks to.  Every
request carries a :class:`repro.mapserver.auth.Credential` and passes the
server's :class:`repro.mapserver.policy.AccessPolicy` before reaching the
underlying service; private-tagged data is filtered for unauthorised
principals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.localization.cues import CueBundle, CueType, LocalizationResult
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.geocode import Address, GeocodeResult, GeocodeService, ReverseGeocodeResult
from repro.mapserver.localization_service import LocalizationService
from repro.mapserver.policy import AccessPolicy, ServiceName
from repro.mapserver.routing_service import RouteResponse, RoutingService
from repro.mapserver.search import SearchResult, SearchService
from repro.mapserver.tile_service import TileService
from repro.osm.mapdata import MapData
from repro.simulation.queueing import ServerQueue
from repro.tiles.renderer import Tile
from repro.tiles.tile_math import TileCoordinate


@dataclass
class ServerStats:
    """Request accounting for one map server."""

    requests_by_service: dict[str, int] = field(default_factory=dict)

    def record(self, service: ServiceName) -> None:
        key = service.value
        self.requests_by_service[key] = self.requests_by_service.get(key, 0) + 1

    @property
    def total_requests(self) -> int:
        return sum(self.requests_by_service.values())


@dataclass
class MapServer:
    """An independently operated map server (the unit of federation)."""

    server_id: str
    map_data: MapData
    policy: AccessPolicy = field(default_factory=AccessPolicy)
    routing_algorithm: str = "dijkstra"
    stats: ServerStats = field(default_factory=ServerStats)
    queue: ServerQueue | None = None
    """Server-side load model (service times + bounded queue).  ``None``
    keeps the server infinitely fast, as the single-request experiments
    expect; the federation attaches a queue when its config sets
    ``service_times``."""

    geocode_service: GeocodeService = field(init=False)
    search_service: SearchService = field(init=False)
    routing_service: RoutingService = field(init=False)
    localization_service: LocalizationService = field(init=False)
    tile_service: TileService = field(init=False)

    def __post_init__(self) -> None:
        self.geocode_service = GeocodeService(self.map_data)
        self.search_service = SearchService(self.map_data)
        self.routing_service = RoutingService(self.map_data, algorithm=self.routing_algorithm)
        self.localization_service = LocalizationService(self.map_data, self.server_id)
        self.tile_service = TileService(self.map_data)

    # ------------------------------------------------------------------
    # Descriptive properties
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> Polygon:
        return self.map_data.coverage

    @property
    def name(self) -> str:
        return self.map_data.metadata.name

    def advertised_localization_technologies(self) -> set[CueType]:
        return self.localization_service.advertised_technologies()

    def covers_point(self, point: LatLng, slack_meters: float = 50.0) -> bool:
        """True if this server's (fuzzy) coverage plausibly contains ``point``."""
        if self.map_data.covers_point(point):
            return True
        return self.map_data.coverage.bounding_box.expanded(slack_meters).contains(point)

    # ------------------------------------------------------------------
    # Request admission
    # ------------------------------------------------------------------
    def _admit(self, service: ServiceName) -> None:
        """Pass one request through the server's load model.

        Charges queueing delay plus service time against the simulated clock
        (so the caller's observed latency reflects server load) and raises
        :class:`repro.simulation.queueing.ServerOverloadedError` when the
        bounded queue sheds the request.  ``stats`` records only requests
        actually serviced — shed requests live in ``queue.stats.dropped``,
        mirroring how policy-denied requests never reach ``stats`` either.
        """
        if self.queue is not None:
            self.queue.process(service.value)
        self.stats.record(service)

    def telemetry_frame(self) -> dict[str, object] | None:
        """Cumulative queue counters for windowed telemetry (``None`` when
        this server runs without a load model — nothing to window)."""
        if self.queue is None:
            return None
        return self.queue.telemetry_frame()

    # ------------------------------------------------------------------
    # Location-based services (policy enforced)
    # ------------------------------------------------------------------
    def geocode(self, address: Address, credential: Credential = ANONYMOUS, limit: int = 5) -> list[GeocodeResult]:
        self.policy.check(ServiceName.GEOCODE, credential)
        self._admit(ServiceName.GEOCODE)
        return self.geocode_service.geocode(address, limit, self.policy.node_filter(credential))

    def reverse_geocode(
        self,
        location: LatLng,
        credential: Credential = ANONYMOUS,
        max_distance_meters: float = 250.0,
    ) -> ReverseGeocodeResult | None:
        self.policy.check(ServiceName.REVERSE_GEOCODE, credential)
        self._admit(ServiceName.REVERSE_GEOCODE)
        return self.geocode_service.reverse_geocode(location, max_distance_meters)

    def search(
        self,
        query: str,
        near: LatLng | None = None,
        radius_meters: float | None = None,
        credential: Credential = ANONYMOUS,
        limit: int = 10,
    ) -> list[SearchResult]:
        self.policy.check(ServiceName.SEARCH, credential)
        self._admit(ServiceName.SEARCH)
        return self.search_service.search(
            query, near, radius_meters, limit, self.policy.node_filter(credential)
        )

    def route(
        self,
        origin: LatLng,
        destination: LatLng,
        credential: Credential = ANONYMOUS,
        metric: str = "distance",
    ) -> RouteResponse | None:
        self.policy.check(ServiceName.ROUTING, credential)
        self._admit(ServiceName.ROUTING)
        return self.routing_service.route(origin, destination, metric)

    def localize(self, cues: CueBundle, credential: Credential = ANONYMOUS) -> list[LocalizationResult]:
        self.policy.check(ServiceName.LOCALIZATION, credential)
        self._admit(ServiceName.LOCALIZATION)
        return self.localization_service.localize(cues)

    def get_tile(self, coordinate: TileCoordinate, credential: Credential = ANONYMOUS) -> Tile:
        self.policy.check(ServiceName.TILES, credential)
        self._admit(ServiceName.TILES)
        return self.tile_service.get_tile(coordinate)
