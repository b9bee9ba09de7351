"""Slippy-map tile arithmetic (Web-Mercator XYZ tiles).

Tile rendering "powers interactive maps by delivering map tiles ... based on
the user's latitude, longitude, and zoom level" (Section 4).  This module
implements the standard XYZ tile addressing used by OpenStreetMap-style tile
servers: conversion between geographic coordinates, tile coordinates and
pixel positions within a tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng

TILE_SIZE_PIXELS = 256
MAX_ZOOM = 24
# Web-Mercator is undefined at the poles; clamp like real map stacks do.
_MAX_MERCATOR_LATITUDE = 85.05112878


@dataclass(frozen=True, slots=True)
class TileCoordinate:
    """A tile address: zoom level and integer (x, y) indices."""

    zoom: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if not (0 <= self.zoom <= MAX_ZOOM):
            raise ValueError(f"zoom {self.zoom} outside [0, {MAX_ZOOM}]")
        side = 1 << self.zoom
        if not (0 <= self.x < side and 0 <= self.y < side):
            raise ValueError(f"tile ({self.x}, {self.y}) outside zoom-{self.zoom} grid")

    def parent(self) -> "TileCoordinate":
        if self.zoom == 0:
            raise ValueError("the zoom-0 tile has no parent")
        return TileCoordinate(self.zoom - 1, self.x // 2, self.y // 2)

    def children(self) -> list["TileCoordinate"]:
        if self.zoom >= MAX_ZOOM:
            raise ValueError("cannot subdivide a tile at MAX_ZOOM")
        zoom = self.zoom + 1
        return [
            TileCoordinate(zoom, self.x * 2, self.y * 2),
            TileCoordinate(zoom, self.x * 2 + 1, self.y * 2),
            TileCoordinate(zoom, self.x * 2, self.y * 2 + 1),
            TileCoordinate(zoom, self.x * 2 + 1, self.y * 2 + 1),
        ]

    def key(self) -> str:
        """A stable string key, e.g. for caches: "z/x/y"."""
        return f"{self.zoom}/{self.x}/{self.y}"


def tile_for_point(point: LatLng, zoom: int) -> TileCoordinate:
    """The tile containing ``point`` at ``zoom``."""
    if not (0 <= zoom <= MAX_ZOOM):
        raise ValueError(f"zoom {zoom} outside [0, {MAX_ZOOM}]")
    latitude = max(-_MAX_MERCATOR_LATITUDE, min(_MAX_MERCATOR_LATITUDE, point.latitude))
    side = 1 << zoom
    x = int((point.longitude + 180.0) / 360.0 * side)
    lat_rad = math.radians(latitude)
    y = int((1.0 - math.asinh(math.tan(lat_rad)) / math.pi) / 2.0 * side)
    x = min(max(x, 0), side - 1)
    y = min(max(y, 0), side - 1)
    return TileCoordinate(zoom, x, y)


@lru_cache(maxsize=4096)
def tile_bounds(tile: TileCoordinate) -> BoundingBox:
    """The geographic bounding box of a tile (pure in a frozen coordinate;
    a viewport asks for the same few tiles once per discovered server)."""
    side = 1 << tile.zoom

    def x_to_lng(x: float) -> float:
        return x / side * 360.0 - 180.0

    def y_to_lat(y: float) -> float:
        n = math.pi - 2.0 * math.pi * y / side
        return math.degrees(math.atan(math.sinh(n)))

    west = x_to_lng(tile.x)
    east = x_to_lng(tile.x + 1)
    north = y_to_lat(tile.y)
    south = y_to_lat(tile.y + 1)
    return BoundingBox(south, west, north, east)


def tiles_for_box(box: BoundingBox, zoom: int) -> list[TileCoordinate]:
    """All tiles at ``zoom`` intersecting ``box``, in row-major order."""
    top_left = tile_for_point(LatLng(box.north, box.west), zoom)
    bottom_right = tile_for_point(LatLng(box.south, box.east), zoom)
    tiles = []
    for y in range(top_left.y, bottom_right.y + 1):
        for x in range(top_left.x, bottom_right.x + 1):
            tiles.append(TileCoordinate(zoom, x, y))
    return tiles


def pixel_in_tile(point: LatLng, tile: TileCoordinate) -> tuple[int, int]:
    """Pixel coordinates (column, row) of ``point`` within ``tile``.

    Points outside the tile are clamped to its border — callers that care
    should check containment first via ``tile_bounds``.
    """
    bounds = tile_bounds(tile)
    if bounds.width_degrees <= 0 or bounds.height_degrees <= 0:
        return (0, 0)
    fx = (point.longitude - bounds.west) / bounds.width_degrees
    fy = (bounds.north - point.latitude) / bounds.height_degrees
    column = int(min(max(fx, 0.0), 0.999999) * TILE_SIZE_PIXELS)
    row = int(min(max(fy, 0.0), 0.999999) * TILE_SIZE_PIXELS)
    return (column, row)
