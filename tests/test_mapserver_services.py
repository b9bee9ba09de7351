"""Unit tests for the per-map-server services (geocode, search, routing, localization, tiles)."""

from __future__ import annotations

import random

import pytest

from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, CueType, GnssCue
from repro.mapserver.auth import Credential
from repro.mapserver.geocode import Address, GeocodeService
from repro.mapserver.localization_service import LocalizationService
from repro.mapserver.policy import AccessPolicy
from repro.mapserver.routing_service import RoutingService
from repro.mapserver.search import SearchService
from repro.mapserver.server import MapServer
from repro.mapserver.tile_service import TileService
from repro.osm.elements import Node
from repro.osm.mapdata import MapData, MapMetadata
from repro.tiles.tile_math import tile_for_point


class TestAddressParsing:
    def test_parse_house_number_and_street(self):
        address = Address.parse("124 Fifth Street, Simville")
        assert address.house_number == "124"
        assert address.street == "Fifth Street"
        assert address.city == "Simville"

    def test_parse_place_name(self):
        address = Address.parse("City Cafe, Simville")
        assert address.place_name == "City Cafe"
        assert address.city == "Simville"

    def test_as_query_prefers_free_text(self):
        address = Address(free_text="  Some   Place ")
        assert address.as_query() == "some place"

    def test_as_query_from_components(self):
        address = Address(house_number="12", street="Oak Avenue", city="Simville")
        assert address.as_query() == "12 oak avenue simville"


class TestGeocodeService:
    def test_forward_geocode_building_address(self, city):
        service = GeocodeService(city.map_data)
        some_address = next(iter(city.building_addresses))
        results = service.geocode(Address.parse(f"{some_address}, {city.city_name}"))
        assert results
        assert results[0].label.lower().startswith(some_address.split()[0])
        expected_location = city.building_addresses[some_address]
        assert results[0].location.distance_to(expected_location) < 1.0

    def test_forward_geocode_poi_name(self, city):
        service = GeocodeService(city.map_data)
        poi_name = next(iter(city.poi_locations))
        results = service.geocode(Address(free_text=poi_name))
        assert results
        assert results[0].location.distance_to(city.poi_locations[poi_name]) < 1.0

    def test_unknown_address_returns_empty(self, city):
        service = GeocodeService(city.map_data)
        assert service.geocode(Address(free_text="zzz qqq nowhere")) == []

    def test_empty_query_returns_empty(self, city):
        service = GeocodeService(city.map_data)
        assert service.geocode(Address(free_text="   ")) == []

    def test_results_sorted_by_score(self, city):
        service = GeocodeService(city.map_data)
        results = service.geocode(Address(free_text="Street Simville"), limit=10)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_reverse_geocode_snaps_to_named_node(self, city):
        service = GeocodeService(city.map_data)
        target = city.intersections[1][1]
        probe = target.location.destination(45.0, 12.0)
        result = service.reverse_geocode(probe)
        assert result is not None
        assert result.distance_meters < 50.0
        assert result.label

    def test_reverse_geocode_nothing_nearby(self, city):
        service = GeocodeService(city.map_data)
        assert service.reverse_geocode(LatLng(10.0, 10.0)) is None

    def test_query_counter(self, city):
        service = GeocodeService(city.map_data)
        service.geocode(Address(free_text="anything"))
        service.reverse_geocode(city.bounds.center)
        assert service.queries_served == 2


class TestSearchService:
    def test_search_by_product_keyword(self, store):
        service = SearchService(store.map_data)
        results = service.search("seaweed", near=store.entrance, radius_meters=200.0)
        assert results
        assert any("seaweed" in (r.tag_dict().get("product") or "") for r in results)

    def test_search_by_amenity(self, city):
        service = SearchService(city.map_data)
        results = service.search("cafe", near=city.bounds.center, radius_meters=5_000.0)
        assert results
        assert all(r.distance_meters <= 5_000.0 for r in results)

    def test_radius_filter(self, city):
        service = SearchService(city.map_data)
        tight = service.search("cafe", near=city.bounds.center, radius_meters=10.0)
        loose = service.search("cafe", near=city.bounds.center, radius_meters=5_000.0)
        assert len(tight) <= len(loose)

    def test_no_match_returns_empty(self, store):
        service = SearchService(store.map_data)
        assert service.search("nonexistentproductxyz", near=store.entrance) == []

    def test_results_ranked_by_relevance(self, store):
        service = SearchService(store.map_data)
        results = service.search("seaweed snack", near=store.entrance, radius_meters=300.0)
        relevances = [r.relevance for r in results]
        assert relevances == sorted(relevances, reverse=True)

    def test_limit_respected(self, store):
        service = SearchService(store.map_data)
        results = service.search("shelf", near=store.entrance, radius_meters=300.0, limit=3)
        assert len(results) <= 3

    def test_proximity_breaks_ties(self, store):
        service = SearchService(store.map_data)
        results = service.search("aisle", near=store.entrance, radius_meters=300.0, limit=50)
        assert len(results) >= 2


class TestRoutingService:
    def test_route_between_points(self, city):
        service = RoutingService(city.map_data)
        origin = city.intersections[0][0].location
        destination = city.intersections[3][3].location
        response = service.route(origin, destination)
        assert response is not None
        assert len(response.points) >= 2
        assert response.cost > 0
        assert response.points[0].distance_to(origin) < 30.0

    def test_route_snapping_distance_reported(self, city):
        service = RoutingService(city.map_data)
        origin = city.intersections[0][0].location.destination(45.0, 25.0)
        destination = city.intersections[2][2].location
        response = service.route(origin, destination)
        assert response is not None
        assert response.entry_snap_meters == pytest.approx(25.0, rel=0.2)

    def test_route_as_leg(self, city):
        service = RoutingService(city.map_data)
        response = service.route(city.intersections[0][0].location, city.intersections[1][1].location)
        leg = response.as_leg("city-server")
        assert leg.server_id == "city-server"
        assert leg.points == response.points

    def test_contraction_algorithm_matches_dijkstra(self, city):
        plain = RoutingService(city.map_data, algorithm="dijkstra")
        fast = RoutingService(city.map_data, algorithm="contraction")
        rng = random.Random(0)
        for _ in range(5):
            i1, j1 = rng.randrange(5), rng.randrange(5)
            i2, j2 = rng.randrange(5), rng.randrange(5)
            a = city.intersections[i1][j1].location
            b = city.intersections[i2][j2].location
            r1 = plain.route(a, b)
            r2 = fast.route(a, b)
            assert r1.cost == pytest.approx(r2.cost, rel=1e-9)

    def test_contraction_hierarchy_is_built_lazily(self, monkeypatch):
        from repro.mapserver import routing_service
        from repro.worldgen.outdoor import generate_city

        builds = []
        build = routing_service.build_contraction_hierarchy
        monkeypatch.setattr(routing_service, "build_contraction_hierarchy", lambda graph: builds.append(1) or build(graph))
        city = generate_city(rows=3, cols=3, seed=3)  # a map no other test has routed on
        services = [RoutingService(city.map_data, algorithm="contraction") for _ in range(2)]
        assert builds == []  # nothing preprocessed at startup
        for service in services:
            response = service.route(city.intersections[0][0].location, city.intersections[1][1].location)
            assert response is not None
        assert builds == [1]  # the first query built it, for every service over the map

    def test_contraction_falls_back_to_dijkstra_for_other_metrics(self, city):
        fast = RoutingService(city.map_data, algorithm="contraction")
        plain = RoutingService(city.map_data, algorithm="dijkstra")
        a = city.intersections[0][0].location
        b = city.intersections[2][2].location
        # The hierarchy is built for "distance"; a "time" query must fall
        # back to Dijkstra yet return the same cost as a plain service.
        assert fast.route(a, b, metric="time").cost == pytest.approx(
            plain.route(a, b, metric="time").cost, rel=1e-9
        )

    def test_contraction_settles_fewer_vertices_than_dijkstra(self, city):
        plain = RoutingService(city.map_data, algorithm="dijkstra")
        fast = RoutingService(city.map_data, algorithm="contraction")
        a = city.intersections[0][0].location
        b = city.intersections[4][4].location
        assert fast.route(a, b).settled_vertices <= plain.route(a, b).settled_vertices

    def test_unroutable_map_returns_none(self, store):
        # Build a map with no routable ways.
        from repro.osm.builder import MapBuilder

        builder = MapBuilder(name="norouting")
        builder.add_node(LatLng(40.0, -80.0), {"name": "isolated"})
        service = RoutingService(builder.build())
        assert service.route(LatLng(40.0, -80.0), LatLng(40.001, -80.0)) is None


class TestTileService:
    def test_get_tile_counts_requests(self, city):
        service = TileService(city.map_data)
        coordinate = tile_for_point(city.bounds.center, 16)
        service.get_tile(coordinate)
        service.get_tile(coordinate)
        assert service.tiles_served == 2


class TestMapServerFacade:
    def test_server_exposes_all_services(self, store):
        server = MapServer(server_id="s1", map_data=store.map_data)
        store.equip_map_server(server)
        assert server.name == store.map_data.metadata.name
        assert server.covers_point(store.entrance)
        assert CueType.BEACON in server.advertised_localization_technologies()

        search_results = server.search("seaweed", near=store.entrance, radius_meters=200.0)
        assert search_results

        route = server.route(store.entrance, search_results[0].location)
        assert route is not None

        tile = server.get_tile(tile_for_point(store.entrance, 19))
        assert tile.source_map == store.map_data.metadata.name

        assert server.stats.total_requests >= 3

    def test_localize_via_server(self, store, rng):
        server = MapServer(server_id="s1", map_data=store.map_data)
        store.equip_map_server(server)
        true_position = store.random_interior_point(rng)
        cues = store.sense_cues(true_position, rng)
        results = server.localize(cues)
        assert results
        best_error = min(
            r.location.distance_to(store.local_to_geographic(true_position)) for r in results
        )
        assert best_error < 8.0

    def test_covers_point_fuzzy_slack(self, store):
        server = MapServer(server_id="s1", map_data=store.map_data)
        just_outside = store.entrance.destination(180.0, 20.0)
        assert server.covers_point(just_outside, slack_meters=50.0)
        far_away = store.entrance.destination(180.0, 5_000.0)
        assert not server.covers_point(far_away)


class TestLocalizationCoverageCheck:
    CUES = CueBundle(gnss=GnssCue(LatLng(40.4400, -79.9500)))

    def test_a_map_with_no_extent_keeps_every_fix(self):
        service = LocalizationService(MapData(MapMetadata(name="empty")), "s1", accepts_gnss=True)
        assert [fix.cue_type for fix in service.localize(self.CUES)] == [CueType.GNSS]

    def test_only_the_missing_extent_is_excused(self, monkeypatch):
        """Anything else raised under ``MapData.coverage`` is a bug and must
        surface (it used to read as "in coverage")."""

        def broken(self):
            raise RuntimeError("coverage is broken")

        monkeypatch.setattr(MapData, "coverage", property(broken))
        service = LocalizationService(MapData(MapMetadata(name="empty")), "s1", accepts_gnss=True)
        with pytest.raises(RuntimeError, match="coverage is broken"):
            service.localize(self.CUES)


class TestPrivateDataBeforeTheCut:
    """Private nodes are dropped while ranking, not after the ``limit`` cut:
    a restricted principal gets up to ``limit`` *visible* results, and a
    short answer does not betray that private matches exist."""

    NEAR = LatLng(40.4400, -79.9500)

    def _server(self) -> MapServer:
        map_data = MapData(MapMetadata(name="campus-print"))
        map_data.add_node(Node(1, self.NEAR, {"name": "printer dean", "privacy": "private"}))
        map_data.add_node(Node(2, self.NEAR, {"name": "printer staff", "privacy": "private"}))
        map_data.add_node(Node(3, self.NEAR.destination(90.0, 30.0), {"name": "printer lobby"}))
        return MapServer(
            server_id="print",
            map_data=map_data,
            policy=AccessPolicy(private_data_domains={"campus.edu"}),
        )

    def test_anonymous_search_fills_the_limit_with_visible_nodes(self):
        server = self._server()
        assert [r.label for r in server.search("printer", self.NEAR, limit=2)] == ["printer lobby"]
        assert [r.label for r in server.search("printer", self.NEAR, limit=10)] == ["printer lobby"]

    def test_anonymous_geocode_fills_the_limit_with_visible_nodes(self):
        server = self._server()
        assert [r.label for r in server.geocode(Address.parse("printer"), limit=1)] == ["printer lobby"]

    def test_insider_still_gets_the_private_nodes_first(self):
        server = self._server()
        insider = Credential(user_id="alice", email="alice@campus.edu")
        found = server.search("printer", self.NEAR, credential=insider, limit=2)
        assert [r.node_id for r in found] == [1, 2]
        assert [r.node_id for r in server.geocode(Address.parse("printer"), insider, limit=3)] == [1, 2, 3]
