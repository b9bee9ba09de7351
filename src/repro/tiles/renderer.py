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
        for a, b in zip(nodes, nodes[1:]):
            start = pixel_in_tile(a.location, coordinate)
            end = pixel_in_tile(b.location, coordinate)
            self._paint_segment(raster, start, end, feature)

    def _paint_segment(
        self,
        raster: np.ndarray,
        start: tuple[int, int],
        end: tuple[int, int],
        feature: FeatureClass,
    ) -> None:
        """Bresenham-style line rasterisation with optional thickness."""
        x0, y0 = start
        x1, y1 = end
        dx = abs(x1 - x0)
        dy = abs(y1 - y0)
        step_x = 1 if x0 < x1 else -1
        step_y = 1 if y0 < y1 else -1
        error = dx - dy
        x, y = x0, y0
        while True:
            self._paint_pixel(raster, x, y, feature)
            if x == x1 and y == y1:
                break
            doubled = 2 * error
            if doubled > -dy:
                error -= dy
                x += step_x
            if doubled < dx:
                error += dx
                y += step_y

    def _paint_pixel(self, raster: np.ndarray, column: int, row: int, feature: FeatureClass) -> None:
        thickness = max(0, self.line_thickness - 1)
        for drow in range(-thickness, thickness + 1):
            for dcol in range(-thickness, thickness + 1):
                r, c = row + drow, column + dcol
                if 0 <= r < TILE_SIZE_PIXELS and 0 <= c < TILE_SIZE_PIXELS:
                    raster[r, c] = max(raster[r, c], int(feature))
