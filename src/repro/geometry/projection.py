"""Projections between geographic and local Cartesian coordinates.

Indoor map servers keep their data in a local frame (Section 3); when a map is
*roughly* georeferenced (an anchor point and a rotation are known), a local
tangent-plane projection converts between the two representations.  The
projection is deliberately simple — an equirectangular approximation around an
anchor — because all maps in this system span at most a few kilometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import (
    LatLng,
    LocalPoint,
    meters_per_degree_latitude,
    meters_per_degree_longitude,
)


@dataclass(frozen=True, slots=True)
class LocalProjection:
    """Maps between :class:`LatLng` and a local east/north meter frame.

    ``anchor`` is the geographic point corresponding to the local origin and
    ``rotation_degrees`` is the counter-clockwise rotation of the local +x axis
    relative to geographic east.  ``frame`` names the local frame so projected
    points carry their provenance.
    """

    anchor: LatLng
    rotation_degrees: float = 0.0
    frame: str = "local"

    def to_local(self, point: LatLng) -> LocalPoint:
        """Project a geographic point into the local frame."""
        east = (point.longitude - self.anchor.longitude) * meters_per_degree_longitude(
            self.anchor.latitude
        )
        north = (point.latitude - self.anchor.latitude) * meters_per_degree_latitude()
        angle = math.radians(-self.rotation_degrees)
        x = east * math.cos(angle) - north * math.sin(angle)
        y = east * math.sin(angle) + north * math.cos(angle)
        return LocalPoint(x, y, self.frame)

    def to_geographic(self, point: LocalPoint) -> LatLng:
        """Unproject a local point back to geographic coordinates."""
        if point.frame != self.frame:
            raise ValueError(
                f"point frame {point.frame!r} does not match projection frame {self.frame!r}"
            )
        angle = math.radians(self.rotation_degrees)
        east = point.x * math.cos(angle) - point.y * math.sin(angle)
        north = point.x * math.sin(angle) + point.y * math.cos(angle)
        lat = self.anchor.latitude + north / meters_per_degree_latitude()
        lng = self.anchor.longitude + east / meters_per_degree_longitude(self.anchor.latitude)
        return LatLng(lat, lng)
