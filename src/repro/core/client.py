"""The OpenFLAME client: the public API spatial applications program against.

The client mirrors the service split of Section 5.2: every call first
discovers the relevant map servers (through DNS), fans the request out to
them, and merges/stitches/selects on the client side.  It is deliberately a
thin façade over the federated services so that applications (the examples in
``examples/``) read like the grocery-store walkthrough of Section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.federation import Federation
from repro.dns.resolver import StubResolver
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle
from repro.localization.imu import DeadReckoningTracker
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.geocode import Address
from repro.services.context import FederationContext
from repro.services.geocode import (
    FederatedGeocodeResult,
    FederatedGeocoder,
    FederatedReverseGeocodeResult,
)
from repro.services.localization import FederatedLocalizationResult, FederatedLocalizer
from repro.services.routing import FederatedRouteResult, FederatedRouter
from repro.services.search import FederatedSearch, FederatedSearchResult
from repro.services.tiles import FederatedTileClient, FederatedViewport
from repro.tiles.cache import TileCache


@dataclass
class OpenFlameClient:
    """A client device participating in an OpenFLAME federation."""

    federation: Federation
    credential: Credential | None = None
    stub_resolver: StubResolver | None = None
    """Resolver this device points at; ``None`` uses the federation default.
    Workloads use this to shard a fleet across shared regional resolvers."""
    selection_seed: int | None = None
    """Seed of this device's RFC 2782 weighted-selection RNG stream; the
    workload engine derives one per device for reproducible fleets."""
    backoff_seed: int | None = None
    """Seed of this device's retry-jitter RNG stream (full-jitter backoff);
    derived per device like ``selection_seed``."""
    context: FederationContext = field(init=False)
    geocoder: FederatedGeocoder = field(init=False)
    searcher: FederatedSearch = field(init=False)
    router: FederatedRouter = field(init=False)
    localizer: FederatedLocalizer = field(init=False)
    tile_client: FederatedTileClient = field(init=False)

    def __post_init__(self) -> None:
        self.context = self.federation.build_context(
            self.credential or ANONYMOUS,
            stub_resolver=self.stub_resolver,
            selection_seed=self.selection_seed,
            backoff_seed=self.backoff_seed,
        )
        self.geocoder = FederatedGeocoder(
            context=self.context, world_provider_id=self.federation.world_provider_id
        )
        self.searcher = FederatedSearch(context=self.context)
        self.router = FederatedRouter(context=self.context)
        self.localizer = FederatedLocalizer(context=self.context)
        tile_cache_entries = self.federation.config.client_tile_cache_entries
        self.tile_client = FederatedTileClient(
            context=self.context,
            cache=TileCache(max_entries=tile_cache_entries) if tile_cache_entries > 0 else None,
        )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self, location: LatLng, uncertainty_meters: float = 100.0):
        """Discover the map servers covering a coarse location."""
        return self.context.discover_at(location, uncertainty_meters)

    # ------------------------------------------------------------------
    # Location-based services (Section 4, federated per Section 5.2)
    # ------------------------------------------------------------------
    def geocode(self, address: str | Address, limit: int = 5) -> FederatedGeocodeResult:
        """Forward geocode a textual address across the federation."""
        parsed = address if isinstance(address, Address) else Address.parse(address)
        return self.geocoder.geocode(parsed, limit)

    def reverse_geocode(self, location: LatLng, max_distance_meters: float = 250.0) -> FederatedReverseGeocodeResult:
        """Find the most precise named node near a location."""
        return self.geocoder.reverse_geocode(location, max_distance_meters)

    def search(
        self,
        query: str,
        near: LatLng,
        radius_meters: float = 500.0,
        limit: int = 10,
    ) -> FederatedSearchResult:
        """Location-based search ("seaweed near me") across discovered servers."""
        return self.searcher.search(query, near, radius_meters, limit)

    def route(
        self,
        origin: LatLng,
        destination: LatLng,
        metric: str = "distance",
        waypoints: list[LatLng] | None = None,
    ) -> FederatedRouteResult:
        """Compute a stitched multi-map route from origin to destination."""
        return self.router.route(origin, destination, metric, waypoints)

    def localize(
        self,
        coarse_location: LatLng,
        cues: CueBundle,
        tracker: DeadReckoningTracker | None = None,
    ) -> FederatedLocalizationResult:
        """Localize the device from its sensed cues via discovered map servers."""
        return self.localizer.localize(coarse_location, cues, tracker)

    def render_viewport(self, viewport: BoundingBox, zoom: int = 18) -> FederatedViewport:
        """Download and stitch tiles for a viewport from every relevant server."""
        return self.tile_client.render_viewport(viewport, zoom)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def network_messages(self) -> int:
        return self.context.network.stats.messages_sent

    @property
    def network_latency_ms(self) -> float:
        return self.context.network.stats.total_latency_ms

    def cache_stats(self) -> dict[str, float]:
        """This device's client-side cache counters (discovery + tiles)."""
        discovery_stats = self.context.discoverer.cache.stats
        tile_cache = self.tile_client.cache
        return {
            "discovery.hits": float(discovery_stats.hits),
            "discovery.misses": float(discovery_stats.misses),
            "discovery.hit_rate": discovery_stats.hit_rate,
            "tiles.hits": float(tile_cache.stats.hits) if tile_cache else 0.0,
            "tiles.misses": float(tile_cache.stats.misses) if tile_cache else 0.0,
            "tiles.hit_rate": tile_cache.stats.hit_rate if tile_cache else 0.0,
        }
