"""Federated tile rendering.

Section 5.2 (Tile rendering): "The client would download these
representations from multiple discovered map servers and stitch them together
before showing them to the user."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.bbox import BoundingBox
from repro.mapserver.policy import ServiceName
from repro.osm.mapdata import MapData
from repro.services.context import FederationContext, RequestOutcome
from repro.services.failover import RequestTarget
from repro.simulation.metrics import float_sum
from repro.tiles.cache import TileCache
from repro.tiles.renderer import Tile
from repro.tiles.stitcher import CompositeTile, TileStitcher
from repro.tiles.tile_math import TileCoordinate, tile_bounds, tiles_for_box


@dataclass(frozen=True, slots=True)
class FederatedViewport:
    """A stitched viewport: composite tiles plus federation bookkeeping."""

    composites: dict[TileCoordinate, CompositeTile]
    servers_consulted: int
    tiles_downloaded: int
    dns_lookups: int
    outcome: RequestOutcome
    tiles_from_cache: int = 0

    @property
    def coverage_fraction(self) -> float:
        if not self.composites:
            return 0.0
        total = float_sum(tile.coverage_fraction for tile in self.composites.values())
        return total / len(self.composites)


def _padded_box_of(map_data: MapData) -> BoundingBox:
    """A map's extent padded by 20 m: every viewport tests its tiles against
    it, and padding a box is trigonometry."""
    return map_data.bounding_box().expanded(20.0)


def _target_coverage_area(target: RequestTarget) -> float:
    """Coverage area of a target's first live replica (0.0 if none)."""
    live = target.first_live
    return live.coverage.area_square_meters() if live is not None else 0.0


@dataclass
class FederatedTileClient:
    """Downloads tiles for a viewport from every relevant map server and stitches them."""

    context: FederationContext
    stitcher: TileStitcher = field(default_factory=TileStitcher)
    cache: TileCache | None = None
    queries: int = field(default=0, init=False)

    def render_viewport(self, viewport: BoundingBox, zoom: int) -> FederatedViewport:
        """Render ``viewport`` at ``zoom`` by compositing every server's tiles.

        Servers are ordered outdoor-first (larger coverage first) so that
        higher-fidelity indoor maps are composited on top.  Tiles already in
        the client's LRU cache are reused without touching the network.
        """
        self.queries += 1
        discovery = self.context.discoverer.discover_region(viewport)
        targets = self.context.targets(discovery.server_ids)
        # Outdoor-first compositing: order targets by the coverage of any
        # live replica, largest first; targets with no live replica sort
        # last (the client cannot size a map it cannot reach).
        targets.sort(key=_target_coverage_area, reverse=True)

        coordinates = tiles_for_box(viewport, zoom)
        tiles_by_coordinate: dict[TileCoordinate, list[Tile]] = {c: [] for c in coordinates}
        tiles_downloaded = 0
        tiles_from_cache = 0
        relevant_by_server: dict[str, list[TileCoordinate]] = {}

        def relevant_to(server) -> list[TileCoordinate]:
            """The viewport's tiles that touch ``server``'s map (once per server)."""
            relevant = relevant_by_server.get(server.server_id)
            if relevant is None:
                server_box = server.map_data.derive("padded extent", _padded_box_of)
                relevant = [c for c in coordinates if tile_bounds(c).intersects(server_box)]
                relevant_by_server[server.server_id] = relevant
            return relevant

        # A target whose live replica's map touches no tile is not asked; one
        # with no live replica is (the device only learns that by timing out).
        targets = [
            target
            for target in targets
            if (live := target.first_live) is None or relevant_to(live)
        ]
        # A failover retry must not re-download what an earlier replica of
        # the same target already served before it keeled over.  Replicas of
        # a group share its target key.
        done: set[tuple[str, TileCoordinate]] = set()
        group_of = self.context.group_of

        def fetch_viewport(server) -> None:
            # Cached tiles must not outlive the server's access policy: a
            # credential that has since been denied re-fetches (and fails)
            # rather than being served from its own cache.
            use_cache = self.cache is not None and server.policy.allows(
                ServiceName.TILES, self.context.credential
            )
            nonlocal tiles_downloaded, tiles_from_cache
            key = group_of.get(server.server_id, server.server_id)
            for coordinate in relevant_to(server):
                if (key, coordinate) in done:
                    continue
                if use_cache:
                    cached = self.cache.get(server.server_id, coordinate)
                    if cached is not None:
                        tiles_by_coordinate[coordinate].append(cached)
                        tiles_from_cache += 1
                        done.add((key, coordinate))
                        continue
                self.context.charge_map_server_request()
                tile = server.get_tile(coordinate, self.context.credential)
                if self.cache is not None:
                    self.cache.put(server.server_id, coordinate, tile)
                tiles_by_coordinate[coordinate].append(tile)
                tiles_downloaded += 1
                done.add((key, coordinate))

        # Tiles fetched before a chain died are kept (the old behaviour on an
        # overloaded server was the same partial viewport); the stitcher
        # composites what arrived.
        _, served = self.context.fan_out(targets, fetch_viewport, charge_exchange=False)

        composites = {
            coordinate: self.stitcher.stitch(tiles)
            for coordinate, tiles in tiles_by_coordinate.items()
            if tiles
        }
        return FederatedViewport(
            composites=composites,
            servers_consulted=len(targets),
            tiles_downloaded=tiles_downloaded,
            dns_lookups=discovery.dns_lookups,
            outcome=RequestOutcome.of(served, discovery),
            tiles_from_cache=tiles_from_cache,
        )
