"""The tile service exposed by one map server.

"Each map server would expose a visual representation of its map data as 2D
images, 3D meshes or other forms" (Section 5.2).  The service wraps a
:class:`repro.tiles.renderer.TileRenderer` with request accounting and the
option to pre-render a coverage area (the Figure 1 pipeline stage, reused
per-server in the federated architecture).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.osm.mapdata import MapData
from repro.tiles.renderer import Tile, TileRenderer
from repro.tiles.tile_math import TileCoordinate


@dataclass
class TileService:
    """Serves rendered tiles of one map."""

    map_data: MapData
    line_thickness: int = 1
    tiles_served: int = field(default=0, init=False)

    @property
    def renderer(self) -> TileRenderer:
        """The renderer of the map as it is now, held on the map: every
        service over an unchanged map (and every federation a sweep stands up
        over one world) shares its rendered tiles."""
        thickness = self.line_thickness
        return self.map_data.derive(
            ("tile renderer", thickness), lambda source: TileRenderer(source, line_thickness=thickness)
        )

    def get_tile(self, coordinate: TileCoordinate) -> Tile:
        """Return the tile at ``coordinate`` (rendered on demand or cached)."""
        self.tiles_served += 1
        return self.renderer.render(coordinate)
