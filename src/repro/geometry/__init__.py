"""Geometric primitives shared by every subsystem.

Points, distances, bounding boxes, polygons, local projections, and
frame-to-frame similarity transforms.
"""

from repro.geometry.bbox import BoundingBox

__all__ = ["BoundingBox"]
