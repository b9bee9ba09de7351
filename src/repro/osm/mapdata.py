"""The MapData container: one organization's map.

A :class:`MapData` instance is the unit of federation — it is "a portion of
the spatial namespace that is independently managed by an organization"
(Section 3).  It owns nodes, ways and relations, keeps a spatial index of its
nodes, records its coverage region and (optionally) the local coordinate frame
it is surveyed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.geometry.projection import LocalProjection
from repro.osm.elements import (
    ElementRef,
    ElementType,
    Node,
    Relation,
    Way,
)
from repro.simulation.lru import MutableSource
from repro.spatialindex.quadtree import QuadTree


class MapDataError(Exception):
    """Raised for structural errors in a map (missing references, duplicates)."""


@dataclass
class MapMetadata:
    """Descriptive metadata for a map: who owns it and what it covers."""

    name: str
    operator: str = "unknown"
    fidelity: str = "2d"
    coordinate_frame: str = "geographic"
    description: str = ""


class MapData(MutableSource):
    """A mutable collection of OSM-style elements with spatial indexing.

    Everything derived from a map — its extent and node index here, and the
    routing graph, search and geocode indexes, answer memos, tile renderer
    and client-side constants elsewhere — is held through :meth:`derive`,
    and every element addition or removal drops all of it.  A map changes
    through these methods (a tag edit is ``remove_node`` + ``add_node``); a
    ``Node`` edited in place is seen by nothing derived.  The coverage
    polygon is read live, so :meth:`set_coverage` drops nothing.
    """

    def __init__(
        self,
        metadata: MapMetadata | None = None,
        coverage: Polygon | None = None,
        projection: LocalProjection | None = None,
    ) -> None:
        super().__init__()
        self.metadata = metadata or MapMetadata(name="unnamed")
        self._nodes: dict[int, Node] = {}
        self._ways: dict[int, Way] = {}
        self._relations: dict[int, Relation] = {}
        self._coverage = coverage
        self.projection = projection

    # ------------------------------------------------------------------
    # Element management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise MapDataError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._changed()
        return node

    def add_way(self, way: Way) -> Way:
        if way.way_id in self._ways:
            raise MapDataError(f"duplicate way id {way.way_id}")
        missing = [nid for nid in way.node_ids if nid not in self._nodes]
        if missing:
            raise MapDataError(f"way {way.way_id} references missing nodes {missing}")
        self._ways[way.way_id] = way
        self._changed()
        return way

    def add_relation(self, relation: Relation) -> Relation:
        if relation.relation_id in self._relations:
            raise MapDataError(f"duplicate relation id {relation.relation_id}")
        for member in relation.members:
            if not self.has_element(member.element_type, member.element_id):
                raise MapDataError(
                    f"relation {relation.relation_id} references missing "
                    f"{member.element_type.value} {member.element_id}"
                )
        self._relations[relation.relation_id] = relation
        self._changed()
        return relation

    def remove_node(self, node_id: int) -> None:
        """Remove a node; fails if any way still references it."""
        if node_id not in self._nodes:
            raise MapDataError(f"unknown node id {node_id}")
        referencing = [w.way_id for w in self._ways.values() if node_id in w.node_ids]
        if referencing:
            raise MapDataError(f"node {node_id} still referenced by ways {referencing}")
        del self._nodes[node_id]
        self._changed()

    def has_element(self, element_type: ElementType, element_id: int) -> bool:
        if element_type == ElementType.NODE:
            return element_id in self._nodes
        if element_type == ElementType.WAY:
            return element_id in self._ways
        return element_id in self._relations

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MapDataError(f"unknown node id {node_id}") from None

    def way(self, way_id: int) -> Way:
        try:
            return self._ways[way_id]
        except KeyError:
            raise MapDataError(f"unknown way id {way_id}") from None

    def relation(self, relation_id: int) -> Relation:
        try:
            return self._relations[relation_id]
        except KeyError:
            raise MapDataError(f"unknown relation id {relation_id}") from None

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def ways(self) -> Iterator[Way]:
        return iter(self._ways.values())

    def relations(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def way_count(self) -> int:
        return len(self._ways)

    @property
    def relation_count(self) -> int:
        return len(self._relations)

    def way_nodes(self, way_id: int) -> list[Node]:
        """Resolve a way's node references to Node objects, in order."""
        return [self.node(nid) for nid in self.way(way_id).node_ids]

    # ------------------------------------------------------------------
    # Coverage and spatial queries
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> Polygon:
        """The region this map claims to cover.

        If no polygon was supplied, the coverage defaults to the bounding box
        of the map's nodes — an intentionally fuzzy boundary (Section 3).
        """
        if self._coverage is not None:
            return self._coverage
        if not self._nodes:
            raise MapDataError("map has no nodes and no explicit coverage polygon")
        box = self.bounding_box()
        return Polygon.from_bbox(box)

    def set_coverage(self, polygon: Polygon) -> None:
        self._coverage = polygon

    def bounding_box(self) -> BoundingBox:
        if not self._nodes:
            raise MapDataError("map has no nodes")
        return self.derive("extent", _extent)

    def covers_point(self, point: LatLng) -> bool:
        return self.coverage.contains(point)

    def _ensure_index(self) -> QuadTree[int]:
        return self.derive("node index", _node_index)

    def nodes_in_box(self, box: BoundingBox) -> list[Node]:
        index = self._ensure_index()
        return [self.node(node_id) for _, node_id in index.query_box(box)]

    def nodes_near(self, center: LatLng, radius_meters: float) -> list[Node]:
        index = self._ensure_index()
        return [self.node(node_id) for _, node_id in index.query_radius(center, radius_meters)]

    def nearest_nodes(self, center: LatLng, count: int = 1) -> list[Node]:
        index = self._ensure_index()
        return [self.node(node_id) for _, node_id in index.nearest(center, count)]

    # ------------------------------------------------------------------
    # Tag queries
    # ------------------------------------------------------------------
    def find_nodes_by_tag(self, key: str, value: str | None = None) -> list[Node]:
        return [n for n in self._nodes.values() if n.has_tag(key, value)]

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def merge(self, other: "MapData", id_offset: int = 0) -> None:
        """Merge ``other`` into this map, offsetting ids to avoid collisions.

        Used by the centralized baseline, which ingests every organization's
        map into one database (Figure 1).
        """
        node_id_map: dict[int, int] = {}
        for node in other.nodes():
            new_id = node.node_id + id_offset
            if new_id in self._nodes:
                raise MapDataError(f"node id collision while merging: {new_id}")
            node_id_map[node.node_id] = new_id
            self.add_node(Node(new_id, node.location, dict(node.tags), node.local_position))
        for way in other.ways():
            new_id = way.way_id + id_offset
            if new_id in self._ways:
                raise MapDataError(f"way id collision while merging: {new_id}")
            self.add_way(Way(new_id, [node_id_map[nid] for nid in way.node_ids], dict(way.tags)))
        for relation in other.relations():
            new_id = relation.relation_id + id_offset
            if new_id in self._relations:
                raise MapDataError(f"relation id collision while merging: {new_id}")
            members = [
                ElementRef(
                    member.element_type,
                    member.element_id + id_offset,
                    member.role,
                )
                for member in relation.members
            ]
            self.add_relation(Relation(new_id, members, dict(relation.tags)))

    def max_element_id(self) -> int:
        """Largest element id in use, handy for choosing merge offsets."""
        candidates: Iterable[int] = list(self._nodes) + list(self._ways) + list(self._relations)
        return max(candidates, default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MapData(name={self.metadata.name!r}, nodes={self.node_count}, "
            f"ways={self.way_count}, relations={self.relation_count})"
        )


def _extent(map_data: MapData) -> BoundingBox:
    """The box around a map's nodes (its default coverage, its tile extent)."""
    return BoundingBox.from_points(node.location for node in map_data.nodes())


def _node_index(map_data: MapData) -> QuadTree[int]:
    index: QuadTree[int] = QuadTree(map_data.bounding_box().expanded(100.0))
    for node in map_data.nodes():
        index.insert(node.location, node.node_id)
    return index
