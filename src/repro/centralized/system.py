"""The centralized mapping system (Figure 1 baseline).

A single organization ingests every map it can obtain into one database,
preprocesses it, and serves all five location-based services from that single
copy.  Two properties distinguish it from the federation and drive the
experiments:

* It can only answer from data that has been *ingested* — indoor maps that
  organizations decline to hand over (the paper's privacy argument) simply do
  not exist here (experiments E6/E7).
* Every request is one client↔provider exchange with no discovery overhead —
  the latency/message baseline the federation is compared against (E1/E2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, CueType, LocalizationResult
from repro.mapserver.geocode import Address, GeocodeIndex, GeocodeResult, ReverseGeocodeResult
from repro.mapserver.search import SearchResult
from repro.osm.mapdata import MapData, MapMetadata
from repro.centralized.preprocess import PreprocessedData, preprocess_world_map
from repro.routing.shortest_path import NoRouteError, Route, dijkstra
from repro.simulation.network import SimulatedNetwork
from repro.tiles.renderer import Tile
from repro.tiles.tile_math import TileCoordinate


@dataclass
class CentralizedStats:
    """Request accounting for the centralized provider."""

    requests_by_service: dict[str, int] = field(default_factory=dict)

    def record(self, service: str) -> None:
        self.requests_by_service[service] = self.requests_by_service.get(service, 0) + 1

    @property
    def total_requests(self) -> int:
        return sum(self.requests_by_service.values())


class CentralizedMapSystem:
    """The Figure-1 architecture: one provider, one merged map, five services."""

    def __init__(
        self,
        network: SimulatedNetwork | None = None,
        use_contraction_hierarchy: bool = True,
        prerender_zoom: int | None = None,
        name: str = "central-maps",
    ) -> None:
        self.network = network or SimulatedNetwork()
        self.name = name
        self.world_map = MapData(metadata=MapMetadata(name=name, operator=name))
        self._use_ch = use_contraction_hierarchy
        self._prerender_zoom = prerender_zoom
        self._prepared: PreprocessedData | None = None
        self.stats = CentralizedStats()
        self.gnss_accuracy_meters = 10.0

    # ------------------------------------------------------------------
    # Ingestion and preprocessing
    # ------------------------------------------------------------------
    def ingest(self, map_data: MapData) -> None:
        """Copy an organization's map into the central database."""
        offset = self.world_map.max_element_id() + 1_000_000
        self.world_map.merge(map_data, id_offset=offset)
        self._prepared = None

    def preprocess(self) -> PreprocessedData:
        """Run (or re-run) the preprocessing pipeline over the ingested data."""
        self._prepared = preprocess_world_map(
            self.world_map,
            use_contraction_hierarchy=self._use_ch,
            prerender_zoom=self._prerender_zoom,
        )
        return self._prepared

    @property
    def prepared(self) -> PreprocessedData:
        if self._prepared is None:
            self.preprocess()
        assert self._prepared is not None
        return self._prepared

    # ------------------------------------------------------------------
    # Location-based services (each is one client↔provider exchange)
    # ------------------------------------------------------------------
    def geocode(self, address: Address, limit: int = 5) -> list[GeocodeResult]:
        self.network.client_central_exchange()
        self.stats.record("geocode")
        return self.prepared.geocode_index.lookup(address, limit)

    def reverse_geocode(self, location: LatLng, max_distance_meters: float = 250.0) -> ReverseGeocodeResult | None:
        self.network.client_central_exchange()
        self.stats.record("reverse_geocode")
        candidates = self.world_map.nodes_near(location, max_distance_meters)
        best: ReverseGeocodeResult | None = None
        for node in candidates:
            label = GeocodeIndex._label_for(node)
            if not label:
                continue
            distance = location.distance_to(node.location)
            if best is None or distance < best.distance_meters:
                best = ReverseGeocodeResult(node.node_id, node.location, label, distance, self.name)
        return best

    def search(
        self,
        query: str,
        near: LatLng | None = None,
        radius_meters: float | None = None,
        limit: int = 10,
    ) -> list[SearchResult]:
        self.network.client_central_exchange()
        self.stats.record("search")
        scored = self.prepared.search_index.candidates(query)
        results: list[SearchResult] = []
        for node_id, keyword_score in scored.items():
            node = self.world_map.node(node_id)
            distance = near.distance_to(node.location) if near is not None else 0.0
            if radius_meters is not None and near is not None and distance > radius_meters:
                continue
            proximity = 1.0 / (1.0 + distance / 100.0) if near is not None else 1.0
            results.append(
                SearchResult(
                    node_id=node_id,
                    location=node.location,
                    label=node.name or node.tags.get("product") or f"node {node_id}",
                    relevance=0.7 * keyword_score + 0.3 * proximity,
                    distance_meters=distance,
                    map_name=self.name,
                    tags=tuple(sorted(node.tags.items())),
                )
            )
        results.sort(key=lambda r: r.relevance, reverse=True)
        return results[:limit]

    def route(self, origin: LatLng, destination: LatLng, metric: str = "distance") -> Route | None:
        self.network.client_central_exchange()
        self.stats.record("routing")
        graph = self.prepared.graph
        if graph.vertex_count < 2:
            return None
        source = graph.nearest_vertex(origin)
        target = graph.nearest_vertex(destination)
        try:
            if self.prepared.hierarchy is not None and metric == self.prepared.hierarchy.metric:
                return self.prepared.hierarchy.query(source, target)
            return dijkstra(graph, source, target, metric)
        except NoRouteError:
            return None

    def route_locations(self, origin: LatLng, destination: LatLng, metric: str = "distance") -> list[LatLng]:
        """Route and return the geographic polyline (empty if unroutable)."""
        route = self.route(origin, destination, metric)
        if route is None:
            return []
        return route.locations(self.prepared.graph)

    def localize(self, cues: CueBundle) -> LocalizationResult | None:
        """Centralized localization: GNSS only.

        The centralized provider has no access to indoor fingerprint
        databases (the organizations kept them private), so indoors it can do
        no better than the coarse satellite fix — the contrast measured in
        experiment E6.
        """
        self.network.client_central_exchange()
        self.stats.record("localization")
        if cues.gnss is None:
            return None
        return LocalizationResult(
            server_id=self.name,
            location=cues.gnss.location,
            accuracy_meters=max(cues.gnss.accuracy_meters, self.gnss_accuracy_meters),
            confidence=0.6,
            cue_type=CueType.GNSS,
        )

    def get_tile(self, coordinate: TileCoordinate) -> Tile:
        self.network.client_central_exchange()
        self.stats.record("tiles")
        return self.prepared.tile_renderer.render(coordinate)
