"""Unit tests for shortest-path algorithms and contraction hierarchies."""

from __future__ import annotations

import random

import pytest

from repro.geometry.point import LatLng
from repro.routing.contraction import build_contraction_hierarchy
from repro.routing.graph import GraphError, RoutingGraph, graph_from_map
from repro.routing.shortest_path import (
    NoRouteError,
    Route,
    astar,
    bidirectional_dijkstra,
    dijkstra,
)


def _grid_graph(rows: int, cols: int, spacing: float = 100.0) -> RoutingGraph:
    graph = RoutingGraph()
    origin = LatLng(40.0, -80.0)
    for i in range(rows):
        for j in range(cols):
            node_id = i * cols + j
            graph.add_vertex(node_id, origin.destination(0.0, i * spacing).destination(90.0, j * spacing))
    for i in range(rows):
        for j in range(cols):
            node_id = i * cols + j
            if j + 1 < cols:
                graph.connect(node_id, node_id + 1)
            if i + 1 < rows:
                graph.connect(node_id, node_id + cols)
    return graph


@pytest.fixture(scope="module")
def grid() -> RoutingGraph:
    return _grid_graph(6, 6)


class TestDijkstra:
    def test_same_source_and_target(self, grid: RoutingGraph):
        route = dijkstra(grid, 0, 0)
        assert route.vertices == (0,)
        assert route.cost == 0.0

    def test_straight_line_route(self, grid: RoutingGraph):
        route = dijkstra(grid, 0, 5)
        assert route.cost == pytest.approx(500.0, rel=1e-2)
        assert len(route.vertices) == 6

    def test_manhattan_route_cost(self, grid: RoutingGraph):
        route = dijkstra(grid, 0, 35)  # opposite corner of the 6x6 grid
        assert route.cost == pytest.approx(1000.0, rel=1e-2)

    def test_route_is_connected_path(self, grid: RoutingGraph):
        route = dijkstra(grid, 3, 32)
        for a, b in zip(route.vertices, route.vertices[1:]):
            assert b in grid.neighbors(a)

    def test_no_route_raises(self):
        graph = RoutingGraph()
        graph.add_vertex(1, LatLng(40.0, -80.0))
        graph.add_vertex(2, LatLng(41.0, -80.0))
        with pytest.raises(NoRouteError):
            dijkstra(graph, 1, 2)

    def test_unknown_endpoints_raise(self, grid: RoutingGraph):
        from repro.routing.graph import GraphError

        with pytest.raises(GraphError):
            dijkstra(grid, 0, 999)

    def test_time_metric(self, grid: RoutingGraph):
        route = dijkstra(grid, 0, 5, metric="time")
        assert route.metric == "time"
        assert route.cost == pytest.approx(500.0 / 1.4, rel=1e-2)


class TestAStarAndBidirectional:
    def test_astar_matches_dijkstra(self, grid: RoutingGraph):
        rng = random.Random(0)
        for _ in range(10):
            source = rng.randrange(grid.vertex_count)
            target = rng.randrange(grid.vertex_count)
            d = dijkstra(grid, source, target)
            a = astar(grid, source, target)
            assert a.cost == pytest.approx(d.cost, rel=1e-9)

    def test_astar_settles_no_more_than_dijkstra(self, grid: RoutingGraph):
        d = dijkstra(grid, 0, 35)
        a = astar(grid, 0, 35)
        assert a.settled_vertices <= d.settled_vertices

    def test_bidirectional_matches_dijkstra(self, grid: RoutingGraph):
        rng = random.Random(1)
        for _ in range(10):
            source = rng.randrange(grid.vertex_count)
            target = rng.randrange(grid.vertex_count)
            d = dijkstra(grid, source, target)
            b = bidirectional_dijkstra(grid, source, target)
            assert b.cost == pytest.approx(d.cost, rel=1e-9)
            assert b.vertices[0] == source
            assert b.vertices[-1] == target

    def test_bidirectional_same_endpoints(self, grid: RoutingGraph):
        route = bidirectional_dijkstra(grid, 7, 7)
        assert route.vertices == (7,)

    def test_bidirectional_no_route(self):
        graph = RoutingGraph()
        graph.add_vertex(1, LatLng(40.0, -80.0))
        graph.add_vertex(2, LatLng(41.0, -80.0))
        with pytest.raises(NoRouteError):
            bidirectional_dijkstra(graph, 1, 2)


class TestContractionHierarchy:
    @pytest.fixture(scope="class")
    def hierarchy(self, grid: RoutingGraph):
        return build_contraction_hierarchy(grid)

    def test_query_matches_dijkstra_on_grid(self, grid: RoutingGraph, hierarchy):
        rng = random.Random(2)
        for _ in range(20):
            source = rng.randrange(grid.vertex_count)
            target = rng.randrange(grid.vertex_count)
            expected = dijkstra(grid, source, target).cost
            got = hierarchy.query(source, target).cost
            assert got == pytest.approx(expected, rel=1e-9)

    def test_query_matches_dijkstra_on_city(self, city):
        graph = graph_from_map(city.map_data)
        hierarchy = build_contraction_hierarchy(graph)
        vertices = list(graph.vertices())
        rng = random.Random(3)
        for _ in range(15):
            source = rng.choice(vertices)
            target = rng.choice(vertices)
            expected = dijkstra(graph, source, target).cost
            got = hierarchy.query(source, target).cost
            assert got == pytest.approx(expected, rel=1e-9)

    def test_expanded_path_is_connected(self, grid: RoutingGraph, hierarchy):
        route = hierarchy.query(0, 35)
        for a, b in zip(route.vertices, route.vertices[1:]):
            assert b in grid.neighbors(a)
        assert route.vertices[0] == 0
        assert route.vertices[-1] == 35

    def test_query_settles_fewer_vertices_than_dijkstra(self, grid: RoutingGraph, hierarchy):
        plain = dijkstra(grid, 0, 35)
        fast = hierarchy.query(0, 35)
        assert fast.settled_vertices <= plain.settled_vertices

    def test_same_source_target(self, hierarchy):
        route = hierarchy.query(4, 4)
        assert route.vertices == (4,)
        assert route.cost == 0.0

    def test_every_vertex_is_ordered(self, grid: RoutingGraph, hierarchy):
        assert set(hierarchy.order) == set(grid.vertices())
        assert sorted(hierarchy.order.values()) == list(range(grid.vertex_count))

    def test_unknown_endpoint_rejected(self, hierarchy):
        from repro.routing.graph import GraphError

        with pytest.raises(GraphError):
            hierarchy.query(0, 10_000)


def _random_street_graph(seed: int, vertices: int = 40, edges: int = 70) -> RoutingGraph:
    """A sparse random graph of short streets, a quarter of them one-way, so
    some ordered pairs have no route and some have one only one way round."""
    rng = random.Random(seed)
    origin = LatLng(40.0, -80.0)
    graph = RoutingGraph()
    for node_id in range(vertices):
        graph.add_vertex(
            node_id,
            origin.destination(0.0, rng.uniform(0.0, 2_000.0)).destination(90.0, rng.uniform(0.0, 2_000.0)),
        )
    for _ in range(edges):
        a, b = rng.sample(range(vertices), 2)
        graph.connect(a, b, bidirectional=rng.random() >= 0.25)
    return graph


class TestAlgorithmsAgreeOnRandomGraphs:
    """Every search the services use answers the same question: on graphs
    with one-way streets and disconnected pieces they must agree on the
    optimal cost and on which pairs have no route at all.  The plain
    searches must also return a walkable path of that cost; the
    contraction hierarchy is held to its cost in the first test and to the
    walkable path only in the strict ``xfail`` below, since its shortcut
    expansion can still emit a hop that is not an edge of the graph."""

    SEEDS = (1, 2, 3, 4, 5, 6)

    @staticmethod
    def _queries(graph: RoutingGraph, seed: int, count: int = 40):
        rng = random.Random(seed + 100)
        for _ in range(count):
            yield rng.randrange(graph.vertex_count), rng.randrange(graph.vertex_count)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_costs_and_unreachable_pairs_agree(self, seed: int):
        graph = _random_street_graph(seed)
        hierarchy = build_contraction_hierarchy(graph)
        searches = {
            "astar": lambda s, t: astar(graph, s, t),
            "bidirectional": lambda s, t: bidirectional_dijkstra(graph, s, t),
        }
        unreachable = 0
        for source, target in self._queries(graph, seed):
            try:
                expected = dijkstra(graph, source, target)
            except NoRouteError:
                unreachable += 1
                for search in (*searches.values(), hierarchy.query):
                    with pytest.raises(NoRouteError):
                        search(source, target)
                continue
            assert hierarchy.query(source, target).cost == pytest.approx(expected.cost, rel=1e-9)
            for name, search in searches.items():
                route = search(source, target)
                assert route.cost == pytest.approx(expected.cost, rel=1e-9), name
                assert route.vertices[0] == source and route.vertices[-1] == target, name
                walked = sum(
                    min(e.length_meters for e in graph.out_edges(a) if e.target == b)
                    for a, b in zip(route.vertices, route.vertices[1:])
                )
                assert walked == pytest.approx(expected.cost, rel=1e-9), name
        assert unreachable < 40

    def test_hierarchy_paths_are_walkable(self):
        jumps = dict.fromkeys(self.SEEDS, 0)
        for seed in self.SEEDS:
            graph = _random_street_graph(seed)
            hierarchy = build_contraction_hierarchy(graph)
            for source, target in self._queries(graph, seed):
                try:
                    expected = dijkstra(graph, source, target)
                except NoRouteError:
                    continue
                route = hierarchy.query(source, target)
                hops = [
                    [e.length_meters for e in graph.out_edges(a) if e.target == b]
                    for a, b in zip(route.vertices, route.vertices[1:])
                ]
                if not all(hops):
                    jumps[seed] += 1
                    continue
                assert route.vertices[0] == source and route.vertices[-1] == target
                assert sum(min(hop) for hop in hops) == pytest.approx(expected.cost, rel=1e-9)
        assert jumps == dict.fromkeys(self.SEEDS, 0)

    def test_route_endpoints_and_emptiness(self, grid: RoutingGraph):
        route = dijkstra(grid, 2, 20)
        assert not route.is_empty
        assert (route.source, route.target) == (2, 20)
        assert route.locations(grid)[0] == grid.location(2)
        empty = Route((), 0.0)
        assert empty.is_empty
        with pytest.raises(GraphError):
            empty.source
        with pytest.raises(GraphError):
            empty.target
