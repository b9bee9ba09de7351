"""Fluent construction of MapData instances.

World generators and tests build maps through :class:`MapBuilder`, which
hands out fresh element ids and keeps the underlying :class:`MapData`
structurally valid at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.polygon import Polygon
from repro.geometry.projection import LocalProjection
from repro.osm.elements import ElementRef, ElementType, Node, Relation, Way
from repro.osm.mapdata import MapData, MapMetadata


@dataclass
class MapBuilder:
    """Incrementally builds a :class:`MapData`."""

    name: str = "unnamed"
    operator: str = "unknown"
    fidelity: str = "2d"
    coordinate_frame: str = "geographic"
    projection: LocalProjection | None = None
    _map: MapData = field(init=False)
    _next_node_id: int = field(init=False, default=1)
    _next_way_id: int = field(init=False, default=1)
    _next_relation_id: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        metadata = MapMetadata(
            name=self.name,
            operator=self.operator,
            fidelity=self.fidelity,
            coordinate_frame=self.coordinate_frame,
        )
        self._map = MapData(metadata=metadata, projection=self.projection)

    # ------------------------------------------------------------------
    # Node/way/relation creation
    # ------------------------------------------------------------------
    def add_node(
        self,
        location: LatLng,
        tags: dict[str, str] | None = None,
        local_position: LocalPoint | None = None,
    ) -> Node:
        """Add a node, deriving the local position from the projection if set."""
        if local_position is None and self.projection is not None:
            local_position = self.projection.to_local(location)
        node = Node(self._next_node_id, location, dict(tags or {}), local_position)
        self._next_node_id += 1
        return self._map.add_node(node)

    def add_local_node(
        self,
        local_position: LocalPoint,
        tags: dict[str, str] | None = None,
    ) -> Node:
        """Add a node surveyed in the map's local frame.

        Requires the builder to have a projection so an (approximate)
        geographic location can be derived — this mirrors real indoor maps,
        whose geographic alignment is only approximate.
        """
        if self.projection is None:
            raise ValueError("add_local_node requires the builder to have a projection")
        location = self.projection.to_geographic(local_position)
        node = Node(self._next_node_id, location, dict(tags or {}), local_position)
        self._next_node_id += 1
        return self._map.add_node(node)

    def add_way(self, nodes: list[Node], tags: dict[str, str] | None = None) -> Way:
        way = Way(self._next_way_id, [n.node_id for n in nodes], dict(tags or {}))
        self._next_way_id += 1
        return self._map.add_way(way)

    def add_relation(
        self,
        members: list[tuple[ElementType, int, str]],
        tags: dict[str, str] | None = None,
    ) -> Relation:
        refs = [ElementRef(etype, eid, role) for etype, eid, role in members]
        relation = Relation(self._next_relation_id, refs, dict(tags or {}))
        self._next_relation_id += 1
        return self._map.add_relation(relation)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    def set_coverage(self, polygon: Polygon) -> None:
        self._map.set_coverage(polygon)

    def build(self) -> MapData:
        """Return the constructed map (the builder can keep extending it)."""
        return self._map
