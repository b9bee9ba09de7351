"""Geometric primitives shared by every subsystem.

Exports points, distances, bounding boxes, polygons, local projections, and
frame-to-frame similarity transforms.
"""

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import (
    EARTH_RADIUS_METERS,
    LatLng,
    LocalPoint,
    haversine_distance,
    meters_per_degree_latitude,
    meters_per_degree_longitude,
)
from repro.geometry.polygon import Polygon
from repro.geometry.projection import LocalProjection
from repro.geometry.transform import (
    SimilarityTransform,
    alignment_residual_meters,
    estimate_similarity,
)

__all__ = [
    "EARTH_RADIUS_METERS",
    "BoundingBox",
    "LatLng",
    "LocalPoint",
    "LocalProjection",
    "Polygon",
    "SimilarityTransform",
    "alignment_residual_meters",
    "estimate_similarity",
    "haversine_distance",
    "meters_per_degree_latitude",
    "meters_per_degree_longitude",
]
