"""The routing service exposed by one map server.

A map server computes "the route that is relevant for the region that they
cover" (Section 5.2).  Requests arrive as geographic origin/destination
points; when a point lies outside the map's coverage the server clamps it to
the closest point it can serve (its entry/exit vertex), which is what makes
client-side stitching of partial legs possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng
from repro.osm.mapdata import MapData
from repro.routing.contraction import build_contraction_hierarchy
from repro.routing.graph import RoutingGraph, graph_from_map
from repro.routing.shortest_path import NoRouteError, Route, bidirectional_dijkstra, dijkstra
from repro.routing.stitching import RouteLeg
from repro.simulation.lru import answer_memo

_NO_ROUTE: tuple = ()
"""What a path memo holds for a pair of vertices with no path between them
(a miss reads ``None``, so ``None`` cannot mean "no route")."""


@dataclass(frozen=True, slots=True)
class RouteResponse:
    """A route computed by one map server, expressed geographically."""

    points: tuple[LatLng, ...]
    cost: float
    metric: str
    entry_snap_meters: float
    exit_snap_meters: float
    settled_vertices: int
    map_name: str

    def as_leg(self, server_id: str) -> RouteLeg:
        """Convert to a :class:`RouteLeg` for client-side stitching."""
        return RouteLeg(server_id=server_id, points=self.points, cost=self.cost, metric=self.metric)


@dataclass
class RoutingService:
    """Shortest-path routing over one map's navigable ways.

    With ``algorithm="contraction"`` (the federation default) the service
    preprocesses its graph into a :class:`ContractionHierarchy` once and
    answers every subsequent query with the fast bidirectional upward search;
    queries for a different metric, or graphs too small to route, fall back
    to plain Dijkstra.  The hierarchy is built lazily on the first routing
    query so that servers that never route (tile-only providers, short-lived
    scenario builds) never pay the preprocessing cost.

    Nothing is held on the service: the graph is held on the map
    (:func:`graph_from_map`), and the hierarchy and the two pure steps of a
    request — the snap of a point to its vertex
    (:meth:`RoutingGraph.nearest_vertex`) and the path between two vertices
    — on the graph, so every service over an unchanged map shares them and
    a changed map starts afresh.  ``queries_served`` counts every request.
    """

    map_data: MapData
    algorithm: str = "dijkstra"
    queries_served: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoutingGraph:
        """The routing graph of the map as it is now."""
        return graph_from_map(self.map_data)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def route(
        self,
        origin: LatLng,
        destination: LatLng,
        metric: str = "distance",
    ) -> RouteResponse | None:
        """Route between two geographic points within this map.

        Points are snapped to the nearest graph vertex; ``None`` is returned
        when the map has no navigable graph or no path exists.
        """
        self.queries_served += 1
        graph = self.graph
        if graph.vertex_count < 2:
            return None
        source = graph.nearest_vertex(origin)
        target = graph.nearest_vertex(destination)
        key = (self.algorithm, source, target, metric)
        paths = graph.derive("paths", answer_memo)
        path = paths.lookup(key)
        if path is None:
            try:
                route = self._compute(graph, source, target, metric)
            except NoRouteError:
                path = _NO_ROUTE
            else:
                path = (tuple(route.locations(graph)), route.cost, route.settled_vertices)
            paths.store(key, path)
        if not path:
            return None
        points, cost, settled_vertices = path
        return RouteResponse(
            points=points,
            cost=cost,
            metric=metric,
            entry_snap_meters=origin.distance_to(graph.location(source)),
            exit_snap_meters=destination.distance_to(graph.location(target)),
            settled_vertices=settled_vertices,
            map_name=self.map_data.metadata.name,
        )

    def _compute(self, graph: RoutingGraph, source: int, target: int, metric: str) -> Route:
        if self.algorithm == "contraction" and graph.vertex_count > 0:
            hierarchy = graph.derive("contraction hierarchy", build_contraction_hierarchy)
            if metric == hierarchy.metric:
                return hierarchy.query(source, target)
        if self.algorithm == "bidirectional":
            return bidirectional_dijkstra(graph, source, target, metric)
        return dijkstra(graph, source, target, metric)
