"""Tile substrate: XYZ tile math, rasterisation, alignment, stitching."""

from repro.tiles.cache import TileCache, TileCacheStats
from repro.tiles.correspondence import Correspondence, CorrespondenceSet, MapAlignment
from repro.tiles.renderer import FeatureClass, Tile, TileRenderer
from repro.tiles.stitcher import CompositeTile, TileStitcher, composite_coverage
from repro.tiles.tile_math import (
    MAX_ZOOM,
    TILE_SIZE_PIXELS,
    TileCoordinate,
    pixel_in_tile,
    tile_bounds,
    tile_for_point,
    tiles_for_box,
)

__all__ = [
    "CompositeTile",
    "Correspondence",
    "CorrespondenceSet",
    "FeatureClass",
    "MAX_ZOOM",
    "MapAlignment",
    "TILE_SIZE_PIXELS",
    "Tile",
    "TileCache",
    "TileCacheStats",
    "TileCoordinate",
    "TileRenderer",
    "TileStitcher",
    "composite_coverage",
    "pixel_in_tile",
    "tile_bounds",
    "tile_for_point",
    "tiles_for_box",
]
