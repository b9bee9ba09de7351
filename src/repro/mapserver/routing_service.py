"""The routing service exposed by one map server.

A map server computes "the route that is relevant for the region that they
cover" (Section 5.2).  Requests arrive as geographic origin/destination
points; when a point lies outside the map's coverage the server clamps it to
the closest point it can serve (its entry/exit vertex), which is what makes
client-side stitching of partial legs possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.geometry.point import LatLng
from repro.osm.mapdata import MapData
from repro.routing.contraction import ContractionHierarchy, build_contraction_hierarchy
from repro.routing.graph import RoutingGraph, graph_from_map
from repro.routing.shortest_path import NoRouteError, Route, bidirectional_dijkstra, dijkstra
from repro.routing.stitching import RouteLeg
from repro.simulation.lru import ANSWER_MEMO_ENTRIES, LruCache


_hierarchy_memo: "WeakKeyDictionary[RoutingGraph, ContractionHierarchy]" = WeakKeyDictionary()
"""Contraction hierarchies memoized per routing graph (identity-keyed).

:func:`repro.routing.graph.graph_from_map` hands the same graph object to
every service over an unchanged map, so the expensive preprocessing happens
once per distinct graph rather than once per map-server instance.
"""


_path_memo: "WeakKeyDictionary[RoutingGraph, LruCache]" = WeakKeyDictionary()
"""Computed paths memoized per routing graph (identity-keyed, each bounded).

``(algorithm, source, target, metric)`` → ``(points, cost, settled vertices)``:
a pure function of the graph, so — like the hierarchy — every service over
the same graph (the replicas of one map) shares it, and a changed map, which
is a new graph, starts empty.
"""

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

    The graph and the hierarchy are derived from the map, so they follow
    :attr:`MapData.version`: a request after the map has changed re-takes the
    graph and preprocesses again on demand.  The two pure steps of a request
    are computed once per graph and reused: the snap of a point to its
    vertex (:meth:`RoutingGraph.nearest_vertex`) and the path between two
    vertices (``_path_memo``); ``queries_served`` counts every request.
    """

    map_data: MapData
    algorithm: str = "dijkstra"
    _graph: RoutingGraph = field(init=False)
    _graph_version: int = field(init=False)
    _hierarchy: ContractionHierarchy | None = field(init=False, default=None)
    _paths: LruCache = field(init=False, repr=False)
    queries_served: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._take_graph()

    def _take_graph(self) -> None:
        self._graph = graph_from_map(self.map_data)
        self._graph_version = self.map_data.version
        self._hierarchy = None
        self._paths = _path_memo.get(self._graph)
        if self._paths is None:
            self._paths = _path_memo[self._graph] = LruCache(max_entries=ANSWER_MEMO_ENTRIES)

    def _ensure_hierarchy(self) -> ContractionHierarchy | None:
        graph = self.graph
        if self._hierarchy is None and graph.vertex_count > 0:
            # Graphs are shared across services of the same (unmutated)
            # map, so the one-off preprocessing is shared too.
            hierarchy = _hierarchy_memo.get(graph)
            if hierarchy is None:
                hierarchy = build_contraction_hierarchy(graph)
                _hierarchy_memo[graph] = hierarchy
            self._hierarchy = hierarchy
        return self._hierarchy

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> RoutingGraph:
        """The routing graph of the map as it is now."""
        if self._graph_version != self.map_data.version:
            self._take_graph()
        return self._graph

    @property
    def is_routable(self) -> bool:
        return self.graph.vertex_count >= 2

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
        path = self._paths.lookup(key)
        if path is None:
            try:
                route = self._compute(source, target, metric)
            except NoRouteError:
                path = _NO_ROUTE
            else:
                path = (tuple(route.locations(graph)), route.cost, route.settled_vertices)
            self._paths.store(key, path)
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

    def route_between_nodes(self, source: int, target: int, metric: str = "distance") -> Route:
        """Route between two existing graph vertices (used by tests and benches)."""
        self.queries_served += 1
        return self._compute(source, target, metric)

    def _compute(self, source: int, target: int, metric: str) -> Route:
        if self.algorithm == "contraction":
            hierarchy = self._ensure_hierarchy()
            if hierarchy is not None and metric == hierarchy.metric:
                return hierarchy.query(source, target)
        if self.algorithm == "bidirectional":
            return bidirectional_dijkstra(self.graph, source, target, metric)
        return dijkstra(self.graph, source, target, metric)
