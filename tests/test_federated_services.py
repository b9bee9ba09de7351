"""Integration tests for the federated client-side services (Section 5.2)."""

from __future__ import annotations

import random

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.localization.cues import CueBundle, GnssCue
from repro.localization.fusion import LocalizationSelector
from repro.localization.imu import DeadReckoningTracker
from repro.mapserver.auth import Credential
from repro.services.localization import FederatedLocalizer
from repro.services.routing import FederatedRoutingError
from repro.worldgen.scenario import outdoor_point_near


class TestDiscoveryThroughClient:
    def test_discovery_near_store_finds_city_and_store(self, scenario, client):
        store = scenario.stores[0]
        result = client.discover(store.entrance, uncertainty_meters=50.0)
        assert "city.maps.example" in result.server_ids
        assert store.name in result.server_ids

    def test_discovery_away_from_stores_finds_only_city(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        result = client.discover(corner, uncertainty_meters=30.0)
        assert "city.maps.example" in result.server_ids
        store_names = {store.name for store in scenario.stores}
        assert not store_names & set(result.server_ids)


class TestFederatedSearch:
    def test_indoor_product_found_via_federation(self, scenario, client):
        store = scenario.stores[0]
        result = client.search("seaweed", near=store.entrance, radius_meters=300.0)
        assert len(result) > 0
        assert any(store.name == r.map_name for r in result.results)
        assert result.servers_consulted >= 2

    def test_centralized_misses_withheld_indoor_data(self, scenario):
        store = scenario.stores[0]
        central_results = scenario.centralized.search("seaweed", near=store.entrance, radius_meters=300.0)
        assert central_results == []

    def test_outdoor_poi_found_by_both(self, scenario, client):
        poi_name, poi_location = next(iter(scenario.city.poi_locations.items()))
        keyword = poi_name.split()[1]  # e.g. "Restaurant"
        federated = client.search(keyword, near=poi_location, radius_meters=400.0)
        central = scenario.centralized.search(keyword, near=poi_location, radius_meters=400.0)
        assert len(federated) > 0
        assert len(central) > 0

    def test_ranking_is_relevance_ordered(self, scenario, client):
        store = scenario.stores[0]
        result = client.search("organic", near=store.entrance, radius_meters=300.0, limit=20)
        relevances = [r.relevance for r in result.results]
        assert relevances == sorted(relevances, reverse=True)

    def test_search_away_from_stores_returns_no_indoor_items(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        result = client.search("seaweed", near=corner, radius_meters=100.0)
        store_names = {store.name for store in scenario.stores}
        assert not any(r.map_name in store_names for r in result.results)


class TestFederatedGeocode:
    def test_city_address_geocodes(self, scenario, client):
        address = next(iter(scenario.city.building_addresses))
        result = client.geocode(f"{address}, {scenario.city.city_name}")
        assert result.best is not None
        expected = scenario.city.building_addresses[address]
        assert result.best.location.distance_to(expected) < 30.0

    def test_two_stage_geocode_reaches_store_entrance(self, scenario, client):
        store = scenario.stores[0]
        entrance_address = None
        for node in store.map_data.nodes():
            if "addr:full" in node.tags:
                entrance_address = node.tags["addr:full"]
                break
        assert entrance_address is not None
        result = client.geocode(f"{store.name} entrance, {entrance_address}")
        assert result.best is not None
        assert result.coarse_location is not None
        # The winning candidate should come from the store's own map and be
        # at (or extremely near) the entrance.
        assert result.best.location.distance_to(store.entrance) < 60.0

    def test_unknown_address(self, scenario, client):
        result = client.geocode("qqqq zzzz street, Nowhereville")
        assert result.best is None

    def test_reverse_geocode_prefers_fine_map(self, scenario, client):
        store = scenario.stores[0]
        inside_point = store.product_locations["wasabi seaweed snack"]
        result = client.reverse_geocode(inside_point, max_distance_meters=100.0)
        assert result.best is not None
        assert result.best.map_name == store.map_data.metadata.name
        assert result.best.distance_meters < 10.0

    def test_reverse_geocode_outdoors(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        result = client.reverse_geocode(corner.destination(45.0, 10.0))
        assert result.best is not None
        assert result.best.map_name == scenario.city.map_data.metadata.name


class TestFederatedRouting:
    def test_street_to_shelf_route_spans_two_maps(self, scenario, client):
        store = scenario.stores[0]
        origin = outdoor_point_near(scenario, 0, 200.0)
        destination = store.product_locations["wasabi seaweed snack"]
        result = client.route(origin, destination)
        assert result.legs_used >= 2
        assert "city.maps.example" in result.servers
        assert store.name in result.servers
        assert result.route.points[0].distance_to(origin) < 1.0
        assert result.route.points[-1].distance_to(destination) < 1.0

    def test_stitched_route_stretch_is_bounded(self, scenario, client):
        store = scenario.stores[0]
        origin = outdoor_point_near(scenario, 0, 200.0)
        destination = store.product_locations["wasabi seaweed snack"]
        result = client.route(origin, destination)
        straight_line = origin.distance_to(destination)
        assert result.length_meters < 4.0 * straight_line

    def test_outdoor_only_route(self, scenario, client):
        origin = scenario.city.intersections[0][0].location
        destination = scenario.city.intersections[4][4].location
        result = client.route(origin, destination)
        assert result.servers == ("city.maps.example",)
        central = scenario.centralized.route(origin, destination)
        assert central is not None
        # The federated outdoor route should match the centralized optimum,
        # both serve it from the same city graph.
        assert result.route.legs[0].cost == pytest.approx(central.cost, rel=1e-6)

    def test_route_with_waypoints_discovers_along_path(self, scenario, client):
        origin = scenario.city.intersections[0][0].location
        destination = scenario.city.intersections[4][4].location
        waypoints = [scenario.city.intersections[2][2].location]
        result = client.route(origin, destination, waypoints=waypoints)
        assert result.dns_lookups > 0

    def test_unroutable_region_raises(self, scenario, client):
        with pytest.raises(FederatedRoutingError):
            client.route(LatLng(10.0, 10.0), LatLng(10.001, 10.0))


class TestFederatedLocalization:
    def test_indoor_localization_beats_gnss(self, scenario, client):
        store = scenario.stores[0]
        rng = random.Random(7)
        federated_errors = []
        gnss_errors = []
        for _ in range(10):
            true_local = store.random_interior_point(rng)
            true_geo = store.local_to_geographic(true_local)
            cues = store.sense_cues(true_local, rng)
            result = client.localize(true_geo, cues)
            assert result.best is not None
            federated_errors.append(result.location.distance_to(true_geo))
            gnss_errors.append(cues.gnss.location.distance_to(true_geo))
        assert sum(federated_errors) / 10 < sum(gnss_errors) / 10
        assert sum(federated_errors) / 10 < 5.0

    def test_localization_far_from_any_indoor_map_degrades_to_gnss(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        cues = CueBundle(gnss=GnssCue(corner.destination(45.0, 8.0), accuracy_meters=10.0))
        result = client.localize(corner, cues)
        assert result.best is not None
        assert result.best.result.cue_type.value == "gnss"

    def test_tracker_rejects_wrong_store(self, scenario, client):
        """With dead reckoning anchored in store 0, a store-1 result is rejected."""
        store = scenario.stores[0]
        rng = random.Random(9)
        true_local = store.random_interior_point(rng)
        true_geo = store.local_to_geographic(true_local)
        tracker = DeadReckoningTracker(anchor=true_geo, anchor_accuracy_meters=2.0)
        cues = store.sense_cues(true_local, rng)
        result = client.localize(true_geo, cues, tracker=tracker)
        assert result.best is not None
        assert result.best.result.server_id in (store.name, "client.gnss")
        assert result.location.distance_to(true_geo) < 10.0

    def test_fiducial_gives_sub_meter_accuracy(self, scenario, client):
        store = scenario.stores[0]
        rng = random.Random(11)
        true_local = store.random_interior_point(rng)
        true_geo = store.local_to_geographic(true_local)
        cues = store.sense_cues(true_local, rng, include_fiducial=True)
        result = client.localize(true_geo, cues)
        assert result.best is not None
        assert result.location.distance_to(true_geo) < 2.0


    def test_results_below_the_plausibility_floor_leave_no_fix(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        cues = CueBundle(gnss=GnssCue(corner.destination(45.0, 8.0), accuracy_meters=10.0))
        strict = FederatedLocalizer(context=client.context, selector=LocalizationSelector(min_plausibility=2.0))
        result = strict.localize(corner, cues)
        assert result.candidates
        assert result.best is None

class TestFederatedTiles:
    def test_viewport_near_store_composites_both_maps(self, scenario, client):
        store = scenario.stores[0]
        viewport = BoundingBox.around(store.entrance, 60.0)
        view = client.render_viewport(viewport, zoom=19)
        assert view.servers_consulted >= 2
        assert view.tiles_downloaded > 0
        assert view.coverage_fraction > 0.0
        contributing_maps = set()
        for composite in view.composites.values():
            contributing_maps.update(k for k, v in composite.contributions.items() if v > 0)
        assert store.map_data.metadata.name in contributing_maps

    def test_viewport_outdoors_uses_city_only(self, scenario, client):
        corner = scenario.city.intersections[0][0].location
        viewport = BoundingBox.around(corner, 60.0)
        view = client.render_viewport(viewport, zoom=18)
        contributing_maps = set()
        for composite in view.composites.values():
            contributing_maps.update(k for k, v in composite.contributions.items() if v > 0)
        store_names = {store.map_data.metadata.name for store in scenario.stores}
        assert not contributing_maps & store_names

    def test_each_tile_is_matched_against_each_server_once(self, scenario, client, monkeypatch):
        """One tile/coverage intersection per (server, tile) per viewport: the
        pre-check and the fetch share one ``relevant`` list."""
        from repro.services import tiles as federated_tiles
        from repro.tiles.tile_math import tile_bounds, tiles_for_box

        matched = []
        monkeypatch.setattr(
            federated_tiles, "tile_bounds", lambda tile: matched.append(tile) or tile_bounds(tile)
        )
        viewport = BoundingBox.around(scenario.stores[0].entrance, 60.0)
        view = client.render_viewport(viewport, zoom=19)
        assert view.servers_consulted >= 2
        assert len(matched) == view.servers_consulted * len(tiles_for_box(viewport, 19))


class TestPolicyEnforcementThroughFederation:
    def test_campus_search_restricted_to_campus_users(self, scenario):
        campus = scenario.campus
        assert campus is not None
        building_name, building_location = next(iter(campus.building_locations.items()))

        outsider = scenario.federation.client()
        insider = scenario.federation.client(Credential(email="alice@campus.edu"))

        outsider_result = outsider.search("lab", near=building_location, radius_meters=300.0)
        insider_result = insider.search("lab", near=building_location, radius_meters=300.0)

        campus_map = campus.map_data.metadata.name
        assert not any(r.map_name == campus_map for r in outsider_result.results)
        assert any(r.map_name == campus_map for r in insider_result.results)

    def test_campus_localization_restricted_to_campus_app(self, scenario):
        campus = scenario.campus
        assert campus is not None
        campus_server = scenario.campus_server
        assert campus_server is not None
        from repro.localization.cues import CueBundle, GnssCue
        from repro.mapserver.policy import AccessDenied

        building_location = next(iter(campus.building_locations.values()))
        cues = CueBundle(gnss=GnssCue(building_location))

        with pytest.raises(AccessDenied):
            campus_server.localize(cues, Credential(application_id="random-app"))
        # The blessed application is allowed (even if the campus has no
        # fingerprint data, the request is authorised).
        campus_server.localize(cues, Credential(application_id=campus.navigation_app_id))

    def test_network_accounting_visible_to_client(self, scenario):
        fresh_client = scenario.federation.client()
        before = fresh_client.network_messages
        store = scenario.stores[0]
        fresh_client.search("seaweed", near=store.entrance, radius_meters=200.0)
        assert fresh_client.network_messages > before
        assert fresh_client.network_latency_ms > 0.0
