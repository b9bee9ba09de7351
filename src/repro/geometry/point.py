"""Geographic and local-frame point primitives.

The paper's map servers are heterogeneous in their coordinate frames: a global
outdoor map is laid out in geographic (latitude/longitude) coordinates, while
an indoor map is typically aligned only against its own local Cartesian frame
(Section 3, "Heterogeneity of maps").  This module provides both kinds of
points plus the small amount of arithmetic the rest of the library needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EARTH_RADIUS_METERS = 6_371_008.8
"""Mean earth radius used for all spherical computations."""

MIN_LATITUDE = -90.0
MAX_LATITUDE = 90.0
MIN_LONGITUDE = -180.0
MAX_LONGITUDE = 180.0


def _wrap_longitude(longitude: float) -> float:
    """Wrap a longitude into the canonical [-180, 180) range."""
    wrapped = math.fmod(longitude + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


def _clamp_latitude(latitude: float) -> float:
    """Clamp a latitude into the valid [-90, 90] range."""
    return max(MIN_LATITUDE, min(MAX_LATITUDE, latitude))


@dataclass(frozen=True, slots=True)
class LatLng:
    """A point on the earth's surface in degrees.

    Instances are immutable and hashable so they can be used as dictionary
    keys (e.g. geocode indexes) and set members.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not (MIN_LATITUDE <= self.latitude <= MAX_LATITUDE):
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        if not (MIN_LONGITUDE <= self.longitude <= MAX_LONGITUDE):
            raise ValueError(f"longitude {self.longitude} outside [-180, 180]")

    @classmethod
    def normalized(cls, latitude: float, longitude: float) -> "LatLng":
        """Build a LatLng, clamping latitude and wrapping longitude."""
        return cls(_clamp_latitude(latitude), _wrap_longitude(longitude))

    @property
    def latitude_radians(self) -> float:
        return math.radians(self.latitude)

    @property
    def longitude_radians(self) -> float:
        return math.radians(self.longitude)

    def distance_to(self, other: "LatLng") -> float:
        """Great-circle distance to ``other`` in meters (haversine)."""
        return haversine_distance(self, other)

    def initial_bearing_to(self, other: "LatLng") -> float:
        """Initial bearing (degrees clockwise from north) toward ``other``."""
        lat1 = self.latitude_radians
        lat2 = other.latitude_radians
        dlon = other.longitude_radians - self.longitude_radians
        x = math.sin(dlon) * math.cos(lat2)
        y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
        bearing = math.degrees(math.atan2(x, y))
        return bearing % 360.0

    def destination(self, bearing_degrees: float, distance_meters: float) -> "LatLng":
        """Point reached by travelling ``distance_meters`` along ``bearing_degrees``."""
        angular = distance_meters / EARTH_RADIUS_METERS
        bearing = math.radians(bearing_degrees)
        lat1 = self.latitude_radians
        lon1 = self.longitude_radians
        lat2 = math.asin(
            math.sin(lat1) * math.cos(angular)
            + math.cos(lat1) * math.sin(angular) * math.cos(bearing)
        )
        lon2 = lon1 + math.atan2(
            math.sin(bearing) * math.sin(angular) * math.cos(lat1),
            math.cos(angular) - math.sin(lat1) * math.sin(lat2),
        )
        return LatLng.normalized(math.degrees(lat2), math.degrees(lon2))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.latitude:.6f}, {self.longitude:.6f})"


@dataclass(frozen=True, slots=True)
class LocalPoint:
    """A point in a map server's private Cartesian frame, in meters.

    Indoor maps are usually surveyed in a local frame whose origin and
    orientation are not precisely aligned to latitude/longitude (Section 3).
    A :class:`LocalPoint` carries the ``frame`` identifier so that mixing
    coordinates from different frames is an explicit, checkable error.
    """

    x: float
    y: float
    frame: str = "local"

    def distance_to(self, other: "LocalPoint") -> float:
        """Euclidean distance in meters; both points must share a frame."""
        if self.frame != other.frame:
            raise ValueError(
                f"cannot measure distance across frames {self.frame!r} and {other.frame!r}"
            )
        return math.hypot(self.x - other.x, self.y - other.y)


def haversine_distance(a: LatLng, b: LatLng) -> float:
    """Great-circle distance between two points in meters."""
    # Hot path (nearest-vertex snapping, stitch scoring): locals instead of
    # repeated property/attribute lookups roughly halve the call cost.
    radians, sin, cos = math.radians, math.sin, math.cos
    lat1 = radians(a.latitude)
    lat2 = radians(b.latitude)
    sin_dlat = sin((lat2 - lat1) / 2.0)
    sin_dlon = sin(radians(b.longitude - a.longitude) / 2.0)
    h = sin_dlat * sin_dlat + cos(lat1) * cos(lat2) * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_METERS * math.asin(min(1.0, math.sqrt(h)))


def meters_per_degree_latitude() -> float:
    """Approximate meters spanned by one degree of latitude."""
    return math.pi * EARTH_RADIUS_METERS / 180.0


def meters_per_degree_longitude(latitude: float) -> float:
    """Approximate meters spanned by one degree of longitude at ``latitude``."""
    return meters_per_degree_latitude() * math.cos(math.radians(latitude))
