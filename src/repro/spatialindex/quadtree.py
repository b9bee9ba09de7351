"""A point quadtree for in-memory spatial lookups.

Map servers index their nodes (shelves, rooms, POIs, road vertices) in a
quadtree so that reverse geocode and location-based search queries are not
linear scans.  The tree stores (point, value) pairs and supports box queries
and nearest-neighbour queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Generic, Iterator, TypeVar

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng

T = TypeVar("T")

_DEFAULT_CAPACITY = 16
_MAX_DEPTH = 24


@dataclass
class _Entry(Generic[T]):
    point: LatLng
    value: T


class QuadTree(Generic[T]):
    """A bucketed point quadtree over a fixed bounding box."""

    def __init__(
        self,
        bounds: BoundingBox | None = None,
        capacity: int = _DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._bounds = bounds or BoundingBox(-90.0, -180.0, 90.0, 180.0)
        self._capacity = capacity
        self._root = _Node(self._bounds, capacity, depth=0)
        self._size = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, point: LatLng, value: T) -> None:
        """Insert a (point, value) pair; points outside the bounds are rejected."""
        if not self._bounds.contains(point):
            raise ValueError(f"point {point} outside quadtree bounds")
        self._root.insert(_Entry(point, value))
        self._size += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> BoundingBox:
        return self._bounds

    def query_box(self, box: BoundingBox) -> list[tuple[LatLng, T]]:
        """All (point, value) pairs whose point lies inside ``box``."""
        out: list[tuple[LatLng, T]] = []
        self._root.query_box(box, out)
        return out

    def query_radius(self, center: LatLng, radius_meters: float) -> list[tuple[LatLng, T]]:
        """All pairs within ``radius_meters`` of ``center``."""
        return [(point, value) for _, point, value in self._within(center, radius_meters)]

    def _within(self, center: LatLng, radius_meters: float) -> list[tuple[float, LatLng, T]]:
        """``(distance, point, value)`` for every pair within ``radius_meters``."""
        hits = []
        for point, value in self.query_box(BoundingBox.around(center, radius_meters)):
            distance = center.distance_to(point)
            if distance <= radius_meters:
                hits.append((distance, point, value))
        return hits

    def nearest(self, center: LatLng, count: int = 1) -> list[tuple[LatLng, T]]:
        """The ``count`` entries nearest to ``center`` (brute-force fallback on
        expanding ring search)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self._size == 0:
            return []
        radius = 50.0
        # The ring search must be able to reach every stored point even when
        # the query point lies far outside the tree's bounds; that limit costs
        # two great-circle distances, so it is measured only once the first
        # ring has come up short.
        max_radius: float | None = None
        while max_radius is None or radius <= max_radius:
            hits = self._within(center, radius)
            if len(hits) >= count:
                # The radius filter already measured every candidate.
                hits.sort(key=itemgetter(0))
                return [(point, value) for _, point, value in hits[:count]]
            if max_radius is None:
                max_radius = self._bounds.diagonal_meters() + center.distance_to(self._bounds.center) + 1.0
            radius *= 2.0
        hits = sorted(self, key=lambda item: center.distance_to(item[0]))
        return hits[:count]

    def __iter__(self) -> Iterator[tuple[LatLng, T]]:
        yield from self._root.iter_entries()


@dataclass
class _Node(Generic[T]):
    bounds: BoundingBox
    capacity: int
    depth: int
    entries: list[_Entry[T]] = field(default_factory=list)
    children: list["_Node[T]"] | None = None

    def insert(self, entry: _Entry[T]) -> None:
        if self.children is not None:
            self._child_for(entry.point).insert(entry)
            return
        self.entries.append(entry)
        if len(self.entries) > self.capacity and self.depth < _MAX_DEPTH:
            self._split()

    def _split(self) -> None:
        box = self.bounds
        mid_lat = (box.south + box.north) / 2.0
        mid_lng = (box.west + box.east) / 2.0
        self.children = [
            _Node(BoundingBox(box.south, box.west, mid_lat, mid_lng), self.capacity, self.depth + 1),
            _Node(BoundingBox(box.south, mid_lng, mid_lat, box.east), self.capacity, self.depth + 1),
            _Node(BoundingBox(mid_lat, box.west, box.north, mid_lng), self.capacity, self.depth + 1),
            _Node(BoundingBox(mid_lat, mid_lng, box.north, box.east), self.capacity, self.depth + 1),
        ]
        entries, self.entries = self.entries, []
        for entry in entries:
            self._child_for(entry.point).insert(entry)

    def _child_for(self, point: LatLng) -> "_Node[T]":
        assert self.children is not None
        box = self.bounds
        mid_lat = (box.south + box.north) / 2.0
        mid_lng = (box.west + box.east) / 2.0
        index = (2 if point.latitude >= mid_lat else 0) + (1 if point.longitude >= mid_lng else 0)
        return self.children[index]

    def query_box(self, box: BoundingBox, out: list[tuple[LatLng, T]]) -> None:
        if not self.bounds.intersects(box):
            return
        if self.children is not None:
            for child in self.children:
                child.query_box(box, out)
            return
        for entry in self.entries:
            if box.contains(entry.point):
                out.append((entry.point, entry.value))

    def iter_entries(self) -> Iterator[tuple[LatLng, T]]:
        if self.children is not None:
            for child in self.children:
                yield from child.iter_entries()
        else:
            for entry in self.entries:
                yield (entry.point, entry.value)
