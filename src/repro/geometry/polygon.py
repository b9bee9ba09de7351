"""Simple geographic polygons.

A map's coverage region (its "zone" in the spatial namespace) is modelled as a
simple polygon.  The discovery layer approximates polygons with cell
coverings; the polygon itself is retained so that map servers can make exact
containment decisions when answering queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import (
    LatLng,
    meters_per_degree_latitude,
    meters_per_degree_longitude,
)
from repro.simulation.metrics import float_sum


@dataclass(frozen=True)
class Polygon:
    """A simple (non self-intersecting) polygon of geographic vertices.

    Vertices are stored in order; the polygon is implicitly closed.  The
    polygon must have at least three vertices.
    """

    vertices: tuple[LatLng, ...]
    _bbox: BoundingBox = field(init=False, repr=False, compare=False)

    def __init__(self, vertices: Sequence[LatLng]):
        points = tuple(vertices)
        if len(points) < 3:
            raise ValueError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", points)
        object.__setattr__(self, "_bbox", BoundingBox.from_points(points))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bbox(cls, box: BoundingBox) -> "Polygon":
        return cls(box.corners())

    @classmethod
    def regular(cls, center: LatLng, radius_meters: float, sides: int = 8) -> "Polygon":
        """A regular polygon approximating a disc around ``center``."""
        if sides < 3:
            raise ValueError("a regular polygon needs at least three sides")
        vertices = [
            center.destination(360.0 * i / sides, radius_meters) for i in range(sides)
        ]
        return cls(vertices)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def bounding_box(self) -> BoundingBox:
        return self._bbox

    @property
    def centroid(self) -> LatLng:
        """Planar centroid of the vertices (adequate for small regions)."""
        lat = float_sum(v.latitude for v in self.vertices) / len(self.vertices)
        lng = float_sum(v.longitude for v in self.vertices) / len(self.vertices)
        return LatLng(lat, lng)

    def area_square_meters(self) -> float:
        """Approximate area via the shoelace formula on a local projection.

        The vertices never change, so the pass over them runs once per
        polygon (tile compositing orders servers by it on every viewport).
        """
        return self._area

    @cached_property
    def _area(self) -> float:
        origin = self.centroid
        lat_scale = meters_per_degree_latitude()
        lng_scale = meters_per_degree_longitude(origin.latitude)
        xy = [
            ((v.longitude - origin.longitude) * lng_scale, (v.latitude - origin.latitude) * lat_scale)
            for v in self.vertices
        ]
        total = 0.0
        n = len(xy)
        for i in range(n):
            x1, y1 = xy[i]
            x2, y2 = xy[(i + 1) % n]
            total += x1 * y2 - x2 * y1
        return abs(total) / 2.0

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, point: LatLng) -> bool:
        """Ray-casting point-in-polygon test (boundary points count as inside)."""
        if not self._bbox.contains(point):
            return False
        x, y = point.longitude, point.latitude
        inside = False
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i].longitude, self.vertices[i].latitude
            x2, y2 = self.vertices[(i + 1) % n].longitude, self.vertices[(i + 1) % n].latitude
            if _on_segment(x, y, x1, y1, x2, y2):
                return True
            if (y1 > y) != (y2 > y):
                x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
                if x < x_cross:
                    inside = not inside
        return inside

    def intersects_box(self, box: BoundingBox) -> bool:
        """Conservative polygon/box intersection test.

        True if any polygon vertex is inside the box, any box corner is inside
        the polygon, or any polygon edge crosses a box edge.
        """
        if not self._bbox.intersects(box):
            return False
        if any(box.contains(v) for v in self.vertices):
            return True
        if any(self.contains(c) for c in box.corners()):
            return True
        box_corners = box.corners()
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            for j in range(4):
                c, d = box_corners[j], box_corners[(j + 1) % 4]
                if _segments_intersect(
                    a.longitude, a.latitude, b.longitude, b.latitude,
                    c.longitude, c.latitude, d.longitude, d.latitude,
                ):
                    return True
        return False


def _on_segment(px: float, py: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """True if point (px, py) lies on the segment (x1, y1)-(x2, y2)."""
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > 1e-12:
        return False
    return min(x1, x2) - 1e-12 <= px <= max(x1, x2) + 1e-12 and min(y1, y2) - 1e-12 <= py <= max(y1, y2) + 1e-12


def _orientation(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    value = (by - ay) * (cx - bx) - (bx - ax) * (cy - by)
    if abs(value) < 1e-15:
        return 0
    return 1 if value > 0 else -1


def _segments_intersect(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, dx: float, dy: float,
) -> bool:
    """True if segments AB and CD intersect (including touching)."""
    o1 = _orientation(ax, ay, bx, by, cx, cy)
    o2 = _orientation(ax, ay, bx, by, dx, dy)
    o3 = _orientation(cx, cy, dx, dy, ax, ay)
    o4 = _orientation(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(cx, cy, ax, ay, bx, by):
        return True
    if o2 == 0 and _on_segment(dx, dy, ax, ay, bx, by):
        return True
    if o3 == 0 and _on_segment(ax, ay, cx, cy, dx, dy):
        return True
    if o4 == 0 and _on_segment(bx, by, cx, cy, dx, dy):
        return True
    return False
