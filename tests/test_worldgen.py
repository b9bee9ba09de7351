"""Unit tests for the synthetic world generators."""

from __future__ import annotations

import random

import pytest

from repro.osm.validation import has_errors, validate_map
from repro.routing.graph import graph_from_map
from repro.routing.shortest_path import dijkstra
from repro.worldgen.campus import generate_campus
from repro.worldgen.indoor import generate_store
from repro.worldgen.outdoor import generate_city
from repro.worldgen.products import category_names, generate_catalog
from repro.worldgen.scenario import build_scenario


class TestProducts:
    def test_catalog_size_and_determinism(self):
        first = generate_catalog(50, seed=1)
        second = generate_catalog(50, seed=1)
        assert len(first) == 50
        assert first == second

    def test_different_seeds_differ(self):
        assert generate_catalog(30, seed=1) != generate_catalog(30, seed=2)

    def test_seaweed_always_present(self):
        catalog = generate_catalog(5, seed=3)
        assert any("seaweed" in product.name for product in catalog)

    def test_unique_skus(self):
        catalog = generate_catalog(100, seed=0)
        assert len({product.sku for product in catalog}) == 100

    def test_categories_are_known(self):
        catalog = generate_catalog(40, seed=0)
        known = set(category_names())
        assert all(product.category in known for product in catalog)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_catalog(0)


class TestCityGeneration:
    def test_city_is_structurally_valid(self, city):
        issues = validate_map(city.map_data, check_coverage=False)
        assert not has_errors(issues)

    def test_grid_dimensions(self):
        city = generate_city(rows=4, cols=6, seed=0)
        assert len(city.intersections) == 4
        assert len(city.intersections[0]) == 6
        assert len(city.street_names) == 4
        assert len(city.avenue_names) == 6

    def test_street_graph_is_connected(self, city):
        graph = graph_from_map(city.map_data)
        corners = [
            city.intersections[0][0].node_id,
            city.intersections[-1][-1].node_id,
        ]
        route = dijkstra(graph, corners[0], corners[1])
        assert route.cost > 0

    def test_buildings_have_addresses(self, city):
        assert len(city.building_addresses) > 0
        for address, location in city.building_addresses.items():
            assert address.split()[0].isdigit()
            assert city.bounds.contains(location)

    def test_pois_exist(self, city):
        assert len(city.poi_locations) > 0

    def test_coverage_contains_all_nodes(self, city):
        coverage = city.map_data.coverage
        assert all(coverage.contains(node.location) for node in city.map_data.nodes())

    def test_determinism(self):
        a = generate_city(rows=3, cols=3, seed=7)
        b = generate_city(rows=3, cols=3, seed=7)
        assert a.map_data.node_count == b.map_data.node_count
        assert a.building_addresses.keys() == b.building_addresses.keys()

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            generate_city(rows=1, cols=5)

    def test_random_street_point_is_on_grid(self, city):
        rng = random.Random(0)
        point = city.random_street_point(rng)
        assert city.bounds.contains(point)

    def test_address_near(self, city):
        some_address, location = next(iter(city.building_addresses.items()))
        assert city.address_near(location) == some_address


class TestStoreGeneration:
    def test_store_is_structurally_valid(self, store):
        issues = validate_map(store.map_data, check_coverage=False)
        assert not has_errors(issues)

    def test_local_frame_round_trip(self, store):
        from repro.geometry.point import LocalPoint

        point = LocalPoint(12.0, 9.0, store.projection.frame)
        geo = store.local_to_geographic(point)
        back = store.geographic_to_local(geo)
        assert abs(back.x - point.x) < 0.05
        assert abs(back.y - point.y) < 0.05

    @pytest.mark.parametrize(
        "x_frac, y_frac, inside",
        [(0.0, 0.0, True), (1.0, 1.0, True), (0.5, 0.5, True), (-0.01, 0.5, False), (0.5, 1.01, False)],
    )
    def test_contains_local_is_the_floor_rectangle(self, store, x_frac, y_frac, inside):
        from repro.geometry.point import LocalPoint

        point = LocalPoint(x_frac * store.width_meters, y_frac * store.depth_meters, store.projection.frame)
        assert store.contains_local(point) is inside

    def test_random_interior_points_are_inside(self, store, rng):
        for _ in range(50):
            assert store.contains_local(store.random_interior_point(rng))

    def test_image_descriptor_is_smooth_and_its_noise_seeded(self, store):
        from repro.geometry.point import LocalPoint

        frame = store.projection.frame
        here = store.image_descriptor_at(LocalPoint(10.0, 8.0, frame))
        near = store.image_descriptor_at(LocalPoint(10.2, 8.1, frame))
        far = store.image_descriptor_at(LocalPoint(30.0, 2.0, frame))
        assert here == store.image_descriptor_at(LocalPoint(10.0, 8.0, frame))

        def gap(a, b):
            return sum((u - v) ** 2 for u, v in zip(a, b)) ** 0.5

        assert gap(here, near) < gap(here, far)
        noisy = store.image_descriptor_at(LocalPoint(10.0, 8.0, frame), noise=0.1, rng=random.Random(5))
        again = store.image_descriptor_at(LocalPoint(10.0, 8.0, frame), noise=0.1, rng=random.Random(5))
        assert noisy == again and noisy != here and len(noisy) == len(here)

    def test_products_are_placed_on_shelves(self, store):
        assert store.products
        assert store.product_locations
        assert any("seaweed" in name for name in store.product_locations)
        coverage = store.map_data.coverage
        for location in store.product_locations.values():
            assert coverage.bounding_box.expanded(10.0).contains(location)

    def test_entrance_within_coverage(self, store):
        assert store.map_data.coverage.bounding_box.expanded(5.0).contains(store.entrance)

    def test_indoor_graph_connects_entrance_to_shelves(self, store):
        graph = graph_from_map(store.map_data)
        assert graph.vertex_count > 0
        entrance_vertex = graph.nearest_vertex(store.entrance)
        seaweed = next(loc for name, loc in store.product_locations.items() if "seaweed" in name)
        shelf_vertex = graph.nearest_vertex(seaweed)
        route = dijkstra(graph, entrance_vertex, shelf_vertex)
        assert route.cost > 0

    def test_survey_databases_populated(self, store):
        assert len(store.beacon_db) > 0
        assert len(store.image_db) > 0
        assert len(store.fiducials) == 2
        assert len(store.beacons) > 0

    def test_sense_cues_contains_all_modalities(self, store, rng):
        true_position = store.random_interior_point(rng)
        cues = store.sense_cues(true_position, rng, include_fiducial=True)
        assert cues.gnss is not None
        assert cues.beacons is not None and cues.beacons.readings
        assert cues.image is not None
        assert cues.fiducials

    def test_private_back_room_tagged(self, store):
        private_nodes = store.map_data.find_nodes_by_tag("privacy", "private")
        assert private_nodes

    def test_rotation_recorded_in_projection(self):
        from repro.geometry.point import LatLng

        store = generate_store("rot-store", LatLng(40.44, -79.95), rotation_degrees=25.0, seed=1)
        assert store.projection.rotation_degrees == 25.0

    def test_invalid_configuration(self):
        from repro.geometry.point import LatLng

        with pytest.raises(ValueError):
            generate_store("bad", LatLng(0.0, 0.0), aisle_count=0)

    def test_determinism(self):
        from repro.geometry.point import LatLng

        a = generate_store("dup", LatLng(40.44, -79.95), seed=5)
        b = generate_store("dup", LatLng(40.44, -79.95), seed=5)
        assert a.map_data.node_count == b.map_data.node_count
        assert list(a.beacons) == list(b.beacons)


class TestCampusGeneration:
    def test_campus_structure(self):
        campus = generate_campus(building_count=3, rooms_per_building=4, seed=2)
        assert len(campus.building_locations) == 3
        assert len(campus.room_locations) == 12
        assert campus.private_room_count == 12
        issues = validate_map(campus.map_data, check_coverage=False)
        assert not has_errors(issues)

    def test_recommended_policy_restricts_services(self):
        from repro.mapserver.auth import Credential
        from repro.mapserver.policy import ServiceName

        campus = generate_campus(seed=3)
        policy = campus.recommended_policy()
        insider = Credential(email=f"a@{campus.email_domain}")
        outsider = Credential(email="a@elsewhere.com")
        assert policy.allows(ServiceName.SEARCH, insider)
        assert not policy.allows(ServiceName.SEARCH, outsider)
        assert policy.allows(ServiceName.TILES, outsider)
        assert policy.allows(
            ServiceName.LOCALIZATION, Credential(application_id=campus.navigation_app_id)
        )
        assert not policy.allows(ServiceName.LOCALIZATION, Credential(application_id="other"))

    def test_invalid_building_count(self):
        with pytest.raises(ValueError):
            generate_campus(building_count=0)


class TestScenario:
    def test_scenario_wiring(self, scenario):
        assert scenario.federation.server_count == 2 + 1 + 1  # city + 2 stores + campus
        assert scenario.federation.world_provider is not None
        assert scenario.centralized.world_map.node_count > 0
        assert scenario.campus is not None
        assert scenario.campus_server is not None

    def test_store_servers_have_localization_data(self, scenario):
        for index, store in enumerate(scenario.stores):
            server = scenario.store_server(index)
            assert server.advertised_localization_technologies()

    def test_centralized_does_not_ingest_indoor_by_default(self, scenario):
        store = scenario.stores[0]
        product_name = next(iter(store.product_locations))
        central_hits = scenario.centralized.search(product_name.split()[0], near=store.entrance, radius_meters=500.0)
        assert central_hits == []

    def test_centralized_ingest_indoor_ablation(self):
        ablation = build_scenario(store_count=1, centralized_ingests_indoor=True, seed=3)
        store = ablation.stores[0]
        hits = ablation.centralized.search("seaweed", near=store.entrance, radius_meters=500.0)
        assert hits

    def test_every_store_registered_in_dns(self, scenario):
        for store in scenario.stores:
            assert scenario.federation.registration_for(store.name) is not None
