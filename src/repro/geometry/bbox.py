"""Axis-aligned geographic bounding boxes.

Bounding boxes are the workhorse region primitive: map servers advertise the
region they cover as a bounding box (optionally refined by a polygon), the
spatial index computes coverings of bounding boxes, and search services use
them to bound candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.geometry.point import (
    LatLng,
    meters_per_degree_latitude,
    meters_per_degree_longitude,
)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A latitude/longitude aligned rectangle.

    The box is closed on all sides.  Boxes never wrap the antimeridian; the
    world generators only produce longitudes well inside (-180, 180), and the
    constructor rejects inverted boxes to catch bugs early.
    """

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south > self.north:
            raise ValueError(f"south {self.south} > north {self.north}")
        if self.west > self.east:
            raise ValueError(f"west {self.west} > east {self.east}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[LatLng]) -> "BoundingBox":
        """Smallest box containing every point in ``points``."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a bounding box from zero points")
        lats = [p.latitude for p in pts]
        lngs = [p.longitude for p in pts]
        return cls(min(lats), min(lngs), max(lats), max(lngs))

    @classmethod
    def around(cls, center: LatLng, radius_meters: float) -> "BoundingBox":
        """Box that conservatively contains a disc of ``radius_meters``."""
        if radius_meters < 0:
            raise ValueError("radius must be non-negative")
        dlat = radius_meters / meters_per_degree_latitude()
        lon_scale = meters_per_degree_longitude(center.latitude)
        dlng = radius_meters / lon_scale if lon_scale > 1e-9 else 180.0
        return cls(
            max(-90.0, center.latitude - dlat),
            max(-180.0, center.longitude - dlng),
            min(90.0, center.latitude + dlat),
            min(180.0, center.longitude + dlng),
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def center(self) -> LatLng:
        return LatLng((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)

    @property
    def south_west(self) -> LatLng:
        return LatLng(self.south, self.west)

    @property
    def north_east(self) -> LatLng:
        return LatLng(self.north, self.east)

    @property
    def width_degrees(self) -> float:
        return self.east - self.west

    @property
    def height_degrees(self) -> float:
        return self.north - self.south

    def diagonal_meters(self) -> float:
        """Length of the box diagonal in meters."""
        return self.south_west.distance_to(self.north_east)

    def area_square_meters(self) -> float:
        """Approximate planar area of the box in square meters."""
        height = self.height_degrees * meters_per_degree_latitude()
        width = self.width_degrees * meters_per_degree_longitude(self.center.latitude)
        return abs(height * width)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, point: LatLng) -> bool:
        return (
            self.south <= point.latitude <= self.north
            and self.west <= point.longitude <= self.east
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        return (
            self.south <= other.south
            and self.north >= other.north
            and self.west <= other.west
            and self.east >= other.east
        )

    def intersects(self, other: "BoundingBox") -> bool:
        return not (
            other.west > self.east
            or other.east < self.west
            or other.south > self.north
            or other.north < self.south
        )

    def intersection(self, other: "BoundingBox") -> "BoundingBox | None":
        if not self.intersects(other):
            return None
        return BoundingBox(
            max(self.south, other.south),
            max(self.west, other.west),
            min(self.north, other.north),
            min(self.east, other.east),
        )

    def expanded(self, margin_meters: float) -> "BoundingBox":
        """Box grown by ``margin_meters`` on every side.

        Used to model the "fuzzy boundary" of a map (Section 3): a map server's
        advertised region is expanded so that points slightly outside the
        surveyed polygon still discover the server.
        """
        dlat = margin_meters / meters_per_degree_latitude()
        lon_scale = meters_per_degree_longitude(self.center.latitude)
        dlng = margin_meters / lon_scale if lon_scale > 1e-9 else 0.0
        return BoundingBox(
            max(-90.0, self.south - dlat),
            max(-180.0, self.west - dlng),
            min(90.0, self.north + dlat),
            min(180.0, self.east + dlng),
        )

    def corners(self) -> list[LatLng]:
        """The four corners, counter-clockwise starting at the south-west."""
        return [
            LatLng(self.south, self.west),
            LatLng(self.south, self.east),
            LatLng(self.north, self.east),
            LatLng(self.north, self.west),
        ]

    def grid_points(self, rows: int, cols: int) -> list[LatLng]:
        """A ``rows``x``cols`` lattice of points covering the box."""
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        points = []
        for i in range(rows):
            for j in range(cols):
                lat = self.south + (self.north - self.south) * (i / max(1, rows - 1) if rows > 1 else 0.5)
                lng = self.west + (self.east - self.west) * (j / max(1, cols - 1) if cols > 1 else 0.5)
                points.append(LatLng(lat, lng))
        return points
