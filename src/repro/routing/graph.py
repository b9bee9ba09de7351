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
from weakref import WeakKeyDictionary

from repro.geometry.point import LatLng
from repro.osm.elements import TAG_HIGHWAY, Node, Way
from repro.osm.mapdata import MapData
from repro.simulation.lru import ANSWER_MEMO_ENTRIES, LruCache
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
class RoutingGraph:
    """A directed graph whose vertices are map node ids.

    ``eq=False`` keeps identity semantics (and hashability), which the
    preprocessing memos key on; structural comparison of whole graphs was
    never meaningful.
    """

    _locations: dict[int, LatLng] = field(default_factory=dict)
    _adjacency: dict[int, list[Edge]] = field(default_factory=dict)
    _reverse: dict[int, list[Edge]] = field(default_factory=dict)
    _index: QuadTree[int] | None = field(default=None, repr=False)
    _snaps: LruCache = field(
        default_factory=lambda: LruCache(max_entries=ANSWER_MEMO_ENTRIES), repr=False
    )
    """Point → nearest vertex, valid for as long as ``_index`` is."""

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, node_id: int, location: LatLng) -> None:
        if node_id not in self._locations:
            self._locations[node_id] = location
            self._adjacency[node_id] = []
            self._reverse[node_id] = []
            self._index = None
            self._snaps.flush()

    def add_edge(self, edge: Edge, bidirectional: bool = True) -> None:
        if edge.source not in self._locations or edge.target not in self._locations:
            raise GraphError("both endpoints must be added before the edge")
        self._adjacency[edge.source].append(edge)
        self._reverse[edge.target].append(edge)
        if bidirectional:
            mirrored = Edge(edge.target, edge.source, edge.length_meters, edge.way_id, edge.travel_seconds)
            self._adjacency[edge.target].append(mirrored)
            self._reverse[edge.source].append(mirrored)

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
    def _ensure_index(self) -> QuadTree[int]:
        if self._index is None:
            from repro.geometry.bbox import BoundingBox

            bounds = BoundingBox.from_points(self._locations.values()).expanded(200.0)
            index: QuadTree[int] = QuadTree(bounds)
            for node_id, location in self._locations.items():
                index.insert(location, node_id)
            self._index = index
        return self._index

    def nearest_vertex(self, point: LatLng) -> int:
        """The graph vertex closest to ``point`` (snapping for route endpoints)."""
        if not self._locations:
            raise GraphError("graph has no vertices")
        vertex = self._snaps.lookup(point)
        if vertex is None:
            vertex = self._ensure_index().nearest(point, count=1)[0][1]
            self._snaps.store(point, vertex)
        return vertex

    def path_length_meters(self, path: list[int]) -> float:
        """Total length of a vertex path using stored edge lengths when available."""
        total = 0.0
        for a, b in zip(path, path[1:]):
            edge = next((e for e in self.out_edges(a) if e.target == b), None)
            if edge is not None:
                total += edge.length_meters
            else:
                total += self.location(a).distance_to(self.location(b))
        return total

    def path_locations(self, path: list[int]) -> list[LatLng]:
        return [self.location(node_id) for node_id in path]


_graph_memo: "WeakKeyDictionary[MapData, tuple[int, tuple[str, ...], RoutingGraph]]" = (
    WeakKeyDictionary()
)
"""Extracted graphs memoized per map (weakly) and per map *version*.

Benchmarks and fleet sweeps build many federations over the same generated
worlds; re-extracting an identical graph per federation is pure waste.  The
entry is keyed on :attr:`MapData.version`, so any mutation of the map
invalidates it, and the weak reference lets worlds be garbage collected.
"""


def graph_from_map(
    map_data: MapData,
    routable_tags: Iterable[str] = ROUTABLE_TAGS,
    use_cache: bool = True,
) -> RoutingGraph:
    """Build a routing graph from a map's routable ways (memoized per map).

    Every way tagged with one of ``routable_tags`` contributes a chain of
    bidirectional edges between consecutive nodes.  ``use_cache=False``
    forces a fresh extraction — callers that *measure* extraction cost (the
    centralized preprocessing benchmarks) must not time a memo lookup.
    """
    tag_set = tuple(routable_tags)
    if use_cache:
        cached = _graph_memo.get(map_data)
        if cached is not None:
            version, cached_tags, cached_graph = cached
            if version == map_data.version and cached_tags == tag_set:
                return cached_graph
    graph = RoutingGraph()
    for way in map_data.ways():
        if not _is_routable(way, tag_set):
            continue
        nodes = map_data.way_nodes(way.way_id)
        _add_way_edges(graph, way, nodes)
    if use_cache:
        _graph_memo[map_data] = (map_data.version, tag_set, graph)
    return graph


def _is_routable(way: Way, routable_tags: tuple[str, ...]) -> bool:
    return any(key in way.tags for key in routable_tags)


def _add_way_edges(graph: RoutingGraph, way: Way, nodes: list[Node]) -> None:
    for node in nodes:
        graph.add_vertex(node.node_id, node.location)
    one_way = way.tags.get("oneway") == "yes"
    for a, b in zip(nodes, nodes[1:]):
        length = a.location.distance_to(b.location)
        graph.add_edge(Edge(a.node_id, b.node_id, length, way.way_id), bidirectional=not one_way)
