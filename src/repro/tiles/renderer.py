"""Rasterising map data into tiles.

A tile here is a small numpy uint8 grid of feature-class codes rather than a
styled RGB image: enough to measure pre-rendering cost, cache behaviour,
coverage and stitching quality without dragging in an imaging stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from repro.osm.elements import TAG_BUILDING, TAG_HIGHWAY, TAG_INDOOR
from repro.osm.mapdata import MapData
from repro.tiles.tile_math import TILE_SIZE_PIXELS, TileCoordinate, pixel_in_tile, tile_bounds


class FeatureClass(IntEnum):
    """Feature codes painted into tile rasters (higher paints over lower)."""

    EMPTY = 0
    AREA = 1      # building / room footprints
    PATH = 2      # roads, corridors, aisles
    POI = 3       # named point features


@dataclass(frozen=True)
class Tile:
    """One rendered tile: its address, raster and the map that produced it."""

    coordinate: TileCoordinate
    raster: np.ndarray
    source_map: str

    def __post_init__(self) -> None:
        if self.raster.shape != (TILE_SIZE_PIXELS, TILE_SIZE_PIXELS):
            raise ValueError(
                f"tile raster must be {TILE_SIZE_PIXELS}x{TILE_SIZE_PIXELS}, got {self.raster.shape}"
            )

    @cached_property
    def content_key(self) -> bytes:
        """Digest of the raster, for memoizing work keyed on tile content.

        Two tiles with equal digests composite identically even if they come
        from different scenario builds that happen to reuse a map name.
        """
        return hashlib.blake2b(self.raster.tobytes(), digest_size=16).digest()

    @property
    def coverage_fraction(self) -> float:
        """Fraction of pixels carrying any feature."""
        return float((self.raster != FeatureClass.EMPTY).mean())

    def feature_pixel_count(self, feature: FeatureClass) -> int:
        return int((self.raster == int(feature)).sum())


@dataclass
class TileRenderer:
    """Renders tiles from one map's data.

    ``line_thickness`` widens painted polylines so that coarse zooms still
    show connected paths.
    """

    map_data: MapData
    line_thickness: int = 1
    _cache: dict[str, Tile] = field(default_factory=dict)
    render_count: int = 0

    def render(self, coordinate: TileCoordinate) -> Tile:
        """Render (or fetch from cache) one tile."""
        key = coordinate.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        raster = np.zeros((TILE_SIZE_PIXELS, TILE_SIZE_PIXELS), dtype=np.uint8)
        bounds = tile_bounds(coordinate).expanded(20.0)

        for way in self.map_data.ways():
            nodes = self.map_data.way_nodes(way.way_id)
            if not any(bounds.contains(node.location) for node in nodes):
                continue
            if TAG_BUILDING in way.tags or way.tags.get(TAG_INDOOR) == "room":
                self._paint_polyline(raster, coordinate, nodes, FeatureClass.AREA)
            elif TAG_HIGHWAY in way.tags or "indoor_path" in way.tags or "aisle_path" in way.tags:
                self._paint_polyline(raster, coordinate, nodes, FeatureClass.PATH)

        for node in self.map_data.nodes_in_box(bounds):
            if node.name:
                column, row = pixel_in_tile(node.location, coordinate)
                raster[row, column] = int(FeatureClass.POI)

        tile = Tile(coordinate, raster, self.map_data.metadata.name)
        self._cache[key] = tile
        self.render_count += 1
        return tile

    def prerender(self, coordinates: list[TileCoordinate]) -> list[Tile]:
        """Render a batch of tiles ahead of any request (Figure 1 pipeline)."""
        return [self.render(coordinate) for coordinate in coordinates]

    # ------------------------------------------------------------------
    # Rasterisation helpers
    # ------------------------------------------------------------------
    def _paint_polyline(self, raster: np.ndarray, coordinate: TileCoordinate, nodes, feature: FeatureClass) -> None:
        """Bresenham-style rasterisation of each segment, widened by ``line_thickness``.

        Every segment's pixels are collected first, then painted with their
        thickness neighbours in one write.  ``pixel_in_tile`` keeps each
        pixel on the tile, so clipping a neighbour to the tile lands on a
        pixel the same square already covers.  A pixel listed twice is
        written the same value twice, so the order of the pixels is moot.
        """
        columns: list[int] = []
        rows: list[int] = []
        pixels = [pixel_in_tile(node.location, coordinate) for node in nodes]
        for (x, y), (x1, y1) in zip(pixels, pixels[1:]):
            dx = abs(x1 - x)
            dy = abs(y1 - y)
            step_x = 1 if x < x1 else -1
            step_y = 1 if y < y1 else -1
            error = dx - dy
            while True:
                columns.append(x)
                rows.append(y)
                if x == x1 and y == y1:
                    break
                doubled = 2 * error
                if doubled > -dy:
                    error -= dy
                    x += step_x
                if doubled < dx:
                    error += dx
                    y += step_y
        if not rows:
            return
        thickness = max(0, self.line_thickness - 1)
        offsets = np.arange(-thickness, thickness + 1)
        row_index = np.clip(np.array(rows)[:, None, None] + offsets[:, None], 0, TILE_SIZE_PIXELS - 1)
        column_index = np.clip(np.array(columns)[:, None, None] + offsets, 0, TILE_SIZE_PIXELS - 1)
        raster[row_index, column_index] = np.maximum(raster[row_index, column_index], int(feature))
