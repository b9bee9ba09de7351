"""Unit tests for routing graphs and graph extraction from maps."""

from __future__ import annotations

import pytest

from repro.geometry.point import LatLng
from repro.osm.builder import MapBuilder
from repro.routing.graph import Edge, GraphError, RoutingGraph, graph_from_map


def _line_graph(count: int = 5, spacing_meters: float = 100.0) -> RoutingGraph:
    graph = RoutingGraph()
    start = LatLng(40.0, -80.0)
    previous = None
    for index in range(count):
        location = start.destination(90.0, index * spacing_meters)
        graph.add_vertex(index, location)
        if previous is not None:
            graph.connect(previous, index)
        previous = index
    return graph


class TestRoutingGraph:
    def test_add_vertex_and_edge(self):
        graph = _line_graph(3)
        assert graph.vertex_count == 3
        assert graph.edge_count == 4  # two bidirectional edges

    def test_edge_requires_existing_vertices(self):
        graph = RoutingGraph()
        graph.add_vertex(1, LatLng(40.0, -80.0))
        with pytest.raises(GraphError):
            graph.add_edge(Edge(1, 2, 10.0))

    def test_unknown_vertex_lookup(self):
        graph = _line_graph(2)
        with pytest.raises(GraphError):
            graph.location(99)
        with pytest.raises(GraphError):
            graph.out_edges(99)

    def test_connect_uses_geographic_length(self):
        graph = _line_graph(2, spacing_meters=250.0)
        edge = graph.out_edges(0)[0]
        assert edge.length_meters == pytest.approx(250.0, rel=1e-2)

    def test_one_way_edges(self):
        graph = RoutingGraph()
        graph.add_vertex(1, LatLng(40.0, -80.0))
        graph.add_vertex(2, LatLng(40.001, -80.0))
        graph.add_edge(Edge(1, 2, 100.0), bidirectional=False)
        assert graph.neighbors(1) == [2]
        assert graph.neighbors(2) == []
        assert [e.source for e in graph.in_edges(2)] == [1]

    def test_edge_cost_metrics(self):
        edge = Edge(1, 2, 140.0)
        assert edge.cost("distance") == 140.0
        assert edge.cost("time") == pytest.approx(100.0)  # walking at 1.4 m/s
        with pytest.raises(GraphError):
            edge.cost("bananas")

    def test_edge_cost_with_explicit_travel_time(self):
        edge = Edge(1, 2, 140.0, travel_seconds=60.0)
        assert edge.cost("time") == 60.0

    def test_nearest_vertex(self):
        graph = _line_graph(5)
        probe = graph.location(3).destination(0.0, 10.0)
        assert graph.nearest_vertex(probe) == 3

    def test_nearest_vertex_empty_graph(self):
        with pytest.raises(GraphError):
            RoutingGraph().nearest_vertex(LatLng(0.0, 0.0))

    def test_path_locations(self):
        graph = _line_graph(3)
        locations = graph.path_locations([0, 1, 2])
        assert len(locations) == 3
        assert locations[0] == graph.location(0)


class TestGraphFromMap:
    def test_routable_ways_become_edges(self):
        builder = MapBuilder(name="m")
        a = builder.add_node(LatLng(40.0, -80.0))
        b = builder.add_node(LatLng(40.001, -80.0))
        c = builder.add_node(LatLng(40.002, -80.0))
        builder.add_way([a, b, c], {"highway": "residential"})
        graph = graph_from_map(builder.build())
        assert graph.vertex_count == 3
        assert graph.edge_count == 4

    def test_non_routable_ways_ignored(self):
        builder = MapBuilder(name="m")
        a = builder.add_node(LatLng(40.0, -80.0))
        b = builder.add_node(LatLng(40.001, -80.0))
        builder.add_way([a, b], {"building": "yes"})
        graph = graph_from_map(builder.build())
        assert graph.vertex_count == 0

    def test_indoor_paths_are_routable(self):
        builder = MapBuilder(name="m")
        a = builder.add_node(LatLng(40.0, -80.0))
        b = builder.add_node(LatLng(40.0001, -80.0))
        builder.add_way([a, b], {"indoor_path": "yes"})
        graph = graph_from_map(builder.build())
        assert graph.edge_count == 2

    def test_oneway_tag_respected(self):
        builder = MapBuilder(name="m")
        a = builder.add_node(LatLng(40.0, -80.0))
        b = builder.add_node(LatLng(40.001, -80.0))
        builder.add_way([a, b], {"highway": "residential", "oneway": "yes"})
        graph = graph_from_map(builder.build())
        assert graph.neighbors(a.node_id) == [b.node_id]
        assert graph.neighbors(b.node_id) == []

    def test_shared_nodes_join_ways(self, city):
        graph = graph_from_map(city.map_data)
        # Every intersection node should have degree >= 2 (street + avenue).
        centre_node = city.intersections[2][2]
        assert len(graph.neighbors(centre_node.node_id)) >= 3
