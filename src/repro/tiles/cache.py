"""A client-side LRU cache for downloaded tiles.

Tile rendering is the chattiest federated service: one viewport at a typical
zoom needs several tiles from every overlapping map server, each charged as a
client↔map-server exchange.  Since rendered tiles are immutable for the life
of a simulation, a small per-device LRU keyed by (server, tile address)
removes the re-download cost for every revisited viewport — the workload
engine's panning and commuting clients hit it constantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.lru import LruCache, LruStats
from repro.tiles.renderer import Tile
from repro.tiles.tile_math import TileCoordinate

@dataclass
class TileCache:
    """LRU cache of tiles keyed by (server id, tile coordinate)."""

    max_entries: int = 256
    _lru: LruCache = field(init=False)

    def __post_init__(self) -> None:
        self._lru = LruCache(max_entries=self.max_entries)

    @property
    def stats(self) -> LruStats:
        return self._lru.stats

    def get(self, server_id: str, coordinate: TileCoordinate) -> Tile | None:
        return self._lru.lookup((server_id, coordinate.key()))

    def put(self, server_id: str, coordinate: TileCoordinate, tile: Tile) -> None:
        self._lru.store((server_id, coordinate.key()), tile)

    def flush(self) -> None:
        self._lru.flush()

    @property
    def size(self) -> int:
        return self._lru.size
