"""Road/path graphs extracted from map data.

Routing services (Section 4, "Routing") operate on a graph derived from a
map's navigable ways.  The same extraction is used by both the centralized
baseline (one graph over the merged world map) and by each federated map
server (one graph per map), so route-quality comparisons are apples to
apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.osm.elements import TAG_HIGHWAY, Node, Way
from repro.osm.mapdata import MapData
from repro.simulation.lru import MutableSource, answer_memo
from repro.spatialindex.quadtree import QuadTree

ROUTABLE_TAGS = (TAG_HIGHWAY, "indoor_path", "corridor", "aisle_path")
"""A way is routable if it carries any of these tags."""


class GraphError(Exception):
    """Raised for malformed graph operations (unknown vertices, no path)."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge of the routing graph."""

    source: int
    target: int
    length_meters: float
    way_id: int | None = None
    travel_seconds: float | None = None

    def cost(self, metric: str = "distance") -> float:
        """Edge cost under a named metric ("distance" or "time")."""
        if metric == "distance":
            return self.length_meters
        if metric == "time":
            if self.travel_seconds is not None:
                return self.travel_seconds
            walking_speed_mps = 1.4
            return self.length_meters / walking_speed_mps
        raise GraphError(f"unknown routing metric {metric!r}")


@dataclass(eq=False)
class RoutingGraph(MutableSource):
    """A directed graph whose vertices are map node ids.

    What is derived from a graph — its vertex index, the point → nearest
    vertex memo, and the contraction hierarchy and path memo a routing
    service keeps — is held through :meth:`derive` and dropped by
    :meth:`add_vertex` / :meth:`add_edge`.  ``eq=False`` keeps identity
    semantics; structural comparison of whole graphs was never meaningful.
    """

    _locations: dict[int, LatLng] = field(default_factory=dict)
    _adjacency: dict[int, list[Edge]] = field(default_factory=dict)
    _reverse: dict[int, list[Edge]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, node_id: int, location: LatLng) -> None:
        if node_id not in self._locations:
            self._locations[node_id] = location
            self._adjacency[node_id] = []
            self._reverse[node_id] = []
            self._changed()

    def add_edge(self, edge: Edge, bidirectional: bool = True) -> None:
        if edge.source not in self._locations or edge.target not in self._locations:
            raise GraphError("both endpoints must be added before the edge")
        self._adjacency[edge.source].append(edge)
        self._reverse[edge.target].append(edge)
        if bidirectional:
            mirrored = Edge(edge.target, edge.source, edge.length_meters, edge.way_id, edge.travel_seconds)
            self._adjacency[edge.target].append(mirrored)
            self._reverse[edge.source].append(mirrored)
        self._changed()

    def connect(self, source: int, target: int, bidirectional: bool = True, way_id: int | None = None) -> Edge:
        """Add an edge whose length is the great-circle distance between endpoints."""
        length = self.location(source).distance_to(self.location(target))
        edge = Edge(source, target, length, way_id)
        self.add_edge(edge, bidirectional)
        return edge

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def vertex_count(self) -> int:
        return len(self._locations)

    @property
    def edge_count(self) -> int:
        return sum(len(edges) for edges in self._adjacency.values())

    def vertices(self) -> Iterator[int]:
        return iter(self._locations)

    def has_vertex(self, node_id: int) -> bool:
        return node_id in self._locations

    def location(self, node_id: int) -> LatLng:
        try:
            return self._locations[node_id]
        except KeyError:
            raise GraphError(f"unknown vertex {node_id}") from None

    def out_edges(self, node_id: int) -> list[Edge]:
        if node_id not in self._adjacency:
            raise GraphError(f"unknown vertex {node_id}")
        return self._adjacency[node_id]

    def in_edges(self, node_id: int) -> list[Edge]:
        if node_id not in self._reverse:
            raise GraphError(f"unknown vertex {node_id}")
        return self._reverse[node_id]

    def neighbors(self, node_id: int) -> list[int]:
        return [edge.target for edge in self.out_edges(node_id)]

    # ------------------------------------------------------------------
    # Spatial helpers
    # ------------------------------------------------------------------
    def nearest_vertex(self, point: LatLng) -> int:
        """The graph vertex closest to ``point`` (snapping for route endpoints)."""
        if not self._locations:
            raise GraphError("graph has no vertices")
        snaps = self.derive("snaps", answer_memo)
        vertex = snaps.lookup(point)
        if vertex is None:
            vertex = self.derive("vertex index", _vertex_index).nearest(point, count=1)[0][1]
            snaps.store(point, vertex)
        return vertex

    def path_locations(self, path: list[int]) -> list[LatLng]:
        return [self.location(node_id) for node_id in path]


def extract_graph(map_data: MapData, routable_tags: Iterable[str] = ROUTABLE_TAGS) -> RoutingGraph:
    """A new routing graph of a map's routable ways.

    Every way tagged with one of ``routable_tags`` contributes a chain of
    bidirectional edges between consecutive nodes.
    """
    tag_set = tuple(routable_tags)
    graph = RoutingGraph()
    for way in map_data.ways():
        if not _is_routable(way, tag_set):
            continue
        nodes = map_data.way_nodes(way.way_id)
        _add_way_edges(graph, way, nodes)
    return graph


def graph_from_map(map_data: MapData, routable_tags: Iterable[str] = ROUTABLE_TAGS) -> RoutingGraph:
    """:func:`extract_graph`, held on the map until it changes: every service
    over an unchanged map (the replicas of one map, the federations a sweep
    stands up over one world) shares one graph and what is derived from it."""
    tag_set = tuple(routable_tags)
    return map_data.derive(("routing graph", tag_set), lambda source: extract_graph(source, tag_set))


def _is_routable(way: Way, routable_tags: tuple[str, ...]) -> bool:
    return any(key in way.tags for key in routable_tags)


def _vertex_index(graph: RoutingGraph) -> QuadTree[int]:
    bounds = BoundingBox.from_points(graph._locations.values()).expanded(200.0)
    index: QuadTree[int] = QuadTree(bounds)
    for node_id, location in graph._locations.items():
        index.insert(location, node_id)
    return index


def _add_way_edges(graph: RoutingGraph, way: Way, nodes: list[Node]) -> None:
    for node in nodes:
        graph.add_vertex(node.node_id, node.location)
    one_way = way.tags.get("oneway") == "yes"
    for a, b in zip(nodes, nodes[1:]):
        length = a.location.distance_to(b.location)
        graph.add_edge(Edge(a.node_id, b.node_id, length, way.way_id), bidirectional=not one_way)
