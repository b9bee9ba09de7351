"""Compositing tiles from multiple map servers into one view.

Section 5.2 (Tile rendering): "The client would download these
representations from multiple discovered map servers and stitch them together
before showing them to the user."

The stitcher overlays tiles for the same coordinate coming from different
servers.  Indoor maps are typically higher fidelity, so by default later
(finer) layers win where both have content; coverage statistics quantify how
much each server contributed (experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulation.lru import LruCache
from repro.tiles.renderer import FeatureClass, Tile
from repro.tiles.tile_math import TILE_SIZE_PIXELS, TileCoordinate


@dataclass(frozen=True)
class CompositeTile:
    """A stitched tile plus bookkeeping about which source supplied each pixel."""

    coordinate: TileCoordinate
    raster: np.ndarray
    contributions: dict[str, int]

    @property
    def coverage_fraction(self) -> float:
        return float((self.raster != int(FeatureClass.EMPTY)).mean())

    def contribution_fraction(self, source_map: str) -> float:
        total_pixels = TILE_SIZE_PIXELS * TILE_SIZE_PIXELS
        return self.contributions.get(source_map, 0) / total_pixels


_composite_memo: LruCache = LruCache(max_entries=512)
"""Process-wide bounded memo of stitched composites (LRU, ~64KB/raster, so
the cap bounds retention to ~32MB; a city's viewport working set is far
smaller).

Fleets of clients render the same viewports over and over, and the tiles
they stitch are the immutable rasters the per-server renderers cache — so
the composite of a given layer stack is computed once.  The key includes
each layer's raster digest (:attr:`repro.tiles.renderer.Tile.content_key`),
so scenarios that reuse a map name for different worlds cannot collide.
CompositeTile is frozen, making the shared instances safe.
"""


@dataclass
class TileStitcher:
    """Overlays tiles from several sources for the same tile coordinate."""

    prefer_later_layers: bool = True
    stitched_count: int = field(default=0, init=False)

    def stitch(self, tiles: list[Tile]) -> CompositeTile:
        """Composite ``tiles`` (all for the same coordinate) into one tile."""
        if not tiles:
            raise ValueError("cannot stitch zero tiles")
        coordinate = tiles[0].coordinate
        if any(tile.coordinate != coordinate for tile in tiles):
            raise ValueError("all tiles being stitched must share a coordinate")

        memo_key = (
            self.prefer_later_layers,
            coordinate,
            tuple((tile.source_map, tile.content_key) for tile in tiles),
        )
        memoized = _composite_memo.lookup(memo_key)
        if memoized is not None:
            self.stitched_count += 1
            return memoized

        composite = np.zeros((TILE_SIZE_PIXELS, TILE_SIZE_PIXELS), dtype=np.uint8)
        owner = np.full((TILE_SIZE_PIXELS, TILE_SIZE_PIXELS), -1, dtype=np.int32)

        layers = tiles if self.prefer_later_layers else list(reversed(tiles))
        for layer_index, tile in enumerate(layers):
            has_content = tile.raster != int(FeatureClass.EMPTY)
            composite = np.where(has_content, tile.raster, composite)
            owner = np.where(has_content, layer_index, owner)

        contributions: dict[str, int] = {}
        for layer_index, tile in enumerate(layers):
            contributions[tile.source_map] = contributions.get(tile.source_map, 0) + int(
                (owner == layer_index).sum()
            )

        self.stitched_count += 1
        result = CompositeTile(coordinate, composite, contributions)
        _composite_memo.store(memo_key, result)
        return result


def composite_coverage(composites: dict[TileCoordinate, CompositeTile]) -> float:
    """Mean coverage fraction across a stitched viewport."""
    if not composites:
        return 0.0
    return float(np.mean([tile.coverage_fraction for tile in composites.values()]))
