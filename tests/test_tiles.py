"""Unit tests for tile math, rendering, alignment and stitching."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.projection import LocalProjection
from repro.tiles.correspondence import CorrespondenceSet
from repro.tiles.renderer import FeatureClass, Tile, TileRenderer
from repro.tiles.stitcher import TileStitcher, composite_coverage
from repro.tiles.tile_math import (
    MAX_ZOOM,
    TILE_SIZE_PIXELS,
    TileCoordinate,
    pixel_in_tile,
    tile_bounds,
    tile_for_point,
    tiles_for_box,
)

CENTER = LatLng(40.44, -79.95)


class TestTileMath:
    def test_zoom_zero_single_tile(self):
        tile = tile_for_point(CENTER, 0)
        assert tile == TileCoordinate(0, 0, 0)

    def test_tile_bounds_contain_point(self):
        for zoom in (5, 10, 15, 18):
            tile = tile_for_point(CENTER, zoom)
            assert tile_bounds(tile).contains(CENTER)

    def test_invalid_tile_rejected(self):
        with pytest.raises(ValueError):
            TileCoordinate(3, 8, 0)  # x outside 2^3 grid
        with pytest.raises(ValueError):
            TileCoordinate(-1, 0, 0)

    def test_parent_child_relationship(self):
        tile = tile_for_point(CENTER, 12)
        parent = tile.parent()
        assert parent.zoom == 11
        assert tile in parent.children()
        assert tile_bounds(parent).contains_box(tile_bounds(tile))

    def test_zoom_zero_has_no_parent(self):
        with pytest.raises(ValueError):
            TileCoordinate(0, 0, 0).parent()

    def test_key_format(self):
        assert TileCoordinate(3, 1, 2).key() == "3/1/2"

    def test_tiles_for_box_cover_box(self):
        box = BoundingBox.around(CENTER, 400.0)
        tiles = tiles_for_box(box, 16)
        assert tiles
        for point in box.grid_points(3, 3):
            assert any(tile_bounds(t).contains(point) for t in tiles)

    def test_more_tiles_at_higher_zoom(self):
        box = BoundingBox.around(CENTER, 400.0)
        assert len(tiles_for_box(box, 17)) >= len(tiles_for_box(box, 15))

    def test_pixel_in_tile_within_range(self):
        tile = tile_for_point(CENTER, 15)
        column, row = pixel_in_tile(CENTER, tile)
        assert 0 <= column < TILE_SIZE_PIXELS
        assert 0 <= row < TILE_SIZE_PIXELS

    def test_poles_are_clamped(self):
        tile = tile_for_point(LatLng(89.9, 0.0), 5)
        assert tile.y == 0


SAMPLE_POINTS = (
    CENTER,
    LatLng(0.0, 0.0),
    LatLng(-33.8688, 151.2093),
    LatLng(64.1466, -21.9426),
    LatLng(-54.8019, -68.3030),
    LatLng(35.6762, 179.9999),
)
ZOOMS = (0, 1, 4, 9, 13, 17, 21, 24)


class TestTileMathAtEveryScale:
    """The XYZ arithmetic is exact powers-of-two scaling; these hold at every
    zoom the tile service accepts, from the one-tile world to MAX_ZOOM."""

    @pytest.mark.parametrize("zoom", ZOOMS)
    def test_every_point_lies_in_its_tile(self, zoom: int):
        for point in SAMPLE_POINTS:
            assert tile_bounds(tile_for_point(point, zoom)).contains(point)

    @pytest.mark.parametrize("zoom", [z for z in ZOOMS if z < MAX_ZOOM])
    def test_children_split_the_parent_exactly(self, zoom: int):
        parent = tile_for_point(CENTER, zoom)
        outer = tile_bounds(parent)
        nw, ne, sw, se = (tile_bounds(child) for child in parent.children())
        assert (nw.north, nw.west, se.south, se.east) == (outer.north, outer.west, outer.south, outer.east)
        assert nw.east == ne.west == sw.east == se.west
        assert nw.south == ne.south == sw.north == se.north
        assert all(child.parent() == parent for child in parent.children())

    @pytest.mark.parametrize("zoom", ZOOMS)
    def test_tile_corners_map_to_the_pixel_grid_corners(self, zoom: int):
        tile = tile_for_point(CENTER, zoom)
        bounds = tile_bounds(tile)
        last = TILE_SIZE_PIXELS - 1
        assert pixel_in_tile(LatLng(bounds.north, bounds.west), tile) == (0, 0)
        assert pixel_in_tile(LatLng(bounds.south, bounds.east), tile) == (last, last)
        # A point outside the tile clamps to the nearest border.
        assert pixel_in_tile(LatLng(min(bounds.north + 1.0, 90.0), bounds.west), tile) == (0, 0)

    @pytest.mark.parametrize("zoom", [12, 15, 18])
    def test_tiles_for_box_is_the_row_major_corner_rectangle(self, zoom: int):
        box = BoundingBox.around(CENTER, 900.0)
        tiles = tiles_for_box(box, zoom)
        top_left = tile_for_point(LatLng(box.north, box.west), zoom)
        bottom_right = tile_for_point(LatLng(box.south, box.east), zoom)
        width = bottom_right.x - top_left.x + 1
        assert len(tiles) == width * (bottom_right.y - top_left.y + 1)
        assert len(set(tiles)) == len(tiles)
        assert tiles[0] == top_left and tiles[-1] == bottom_right
        assert tiles == sorted(tiles, key=lambda t: (t.y, t.x))

    def test_invalid_zoom_rejected(self):
        with pytest.raises(ValueError):
            tile_for_point(CENTER, MAX_ZOOM + 1)
        with pytest.raises(ValueError):
            TileCoordinate(MAX_ZOOM, 0, 0).children()


class TestRenderer:
    def test_render_paths_and_pois(self, city):
        renderer = TileRenderer(city.map_data, line_thickness=1)
        tile = renderer.render(tile_for_point(city.bounds.center, 16))
        assert tile.raster.shape == (TILE_SIZE_PIXELS, TILE_SIZE_PIXELS)
        assert tile.coverage_fraction > 0.0
        assert tile.feature_pixel_count(FeatureClass.PATH) > 0

    def test_cache_avoids_rerendering(self, city):
        renderer = TileRenderer(city.map_data)
        coordinate = tile_for_point(city.bounds.center, 16)
        renderer.render(coordinate)
        renders_before = renderer.render_count
        renderer.render(coordinate)
        assert renderer.render_count == renders_before

    def test_empty_region_tile_is_blank(self, city):
        renderer = TileRenderer(city.map_data)
        far_away = tile_for_point(LatLng(10.0, 10.0), 16)
        tile = renderer.render(far_away)
        assert tile.coverage_fraction == 0.0

    def test_prerender_batch(self, city):
        renderer = TileRenderer(city.map_data)
        coordinates = tiles_for_box(BoundingBox.around(city.bounds.center, 200.0), 17)
        tiles = renderer.prerender(coordinates)
        assert len(tiles) == len(coordinates)

    def test_store_tile_contains_indoor_features(self, store):
        renderer = TileRenderer(store.map_data, line_thickness=2)
        tile = renderer.render(tile_for_point(store.entrance, 19))
        assert tile.feature_pixel_count(FeatureClass.PATH) > 0

    def test_invalid_raster_shape_rejected(self):
        with pytest.raises(ValueError):
            Tile(TileCoordinate(10, 0, 0), np.zeros((10, 10), dtype=np.uint8), "m")


# The per-pixel painter ``TileRenderer._paint_polyline`` replaced, verbatim
# but for its ``self``: one Bresenham walk per segment, each pixel and its
# thickness square painted with scalar reads and writes, skipping off-tile
# neighbours.
def oracle_paint_polyline(raster, coordinate, nodes, feature, line_thickness):
    for a, b in zip(nodes, nodes[1:]):
        start = pixel_in_tile(a.location, coordinate)
        end = pixel_in_tile(b.location, coordinate)
        oracle_paint_segment(raster, start, end, feature, line_thickness)


def oracle_paint_segment(raster, start, end, feature, line_thickness):
    x0, y0 = start
    x1, y1 = end
    dx = abs(x1 - x0)
    dy = abs(y1 - y0)
    step_x = 1 if x0 < x1 else -1
    step_y = 1 if y0 < y1 else -1
    error = dx - dy
    x, y = x0, y0
    while True:
        oracle_paint_pixel(raster, x, y, feature, line_thickness)
        if x == x1 and y == y1:
            break
        doubled = 2 * error
        if doubled > -dy:
            error -= dy
            x += step_x
        if doubled < dx:
            error += dx
            y += step_y


def oracle_paint_pixel(raster, column, row, feature, line_thickness):
    thickness = max(0, line_thickness - 1)
    for drow in range(-thickness, thickness + 1):
        for dcol in range(-thickness, thickness + 1):
            r, c = row + drow, column + dcol
            if 0 <= r < TILE_SIZE_PIXELS and 0 <= c < TILE_SIZE_PIXELS:
                raster[r, c] = max(raster[r, c], int(feature))


PAINT_TILE = tile_for_point(CENTER, 17)

# A node as a fraction of the tile's width and height from its north-west
# corner: outside [0, 1) it is off the tile and its pixel clamps to the border.
fractions = st.one_of(
    st.sampled_from([-0.5, -1e-9, 0.0, 0.5, 0.999, 1.0, 1.5]),
    st.floats(min_value=-0.6, max_value=1.6, allow_nan=False),
)


def tile_nodes(points):
    bounds = tile_bounds(PAINT_TILE)
    return [
        SimpleNamespace(
            location=LatLng(bounds.north - fy * bounds.height_degrees, bounds.west + fx * bounds.width_degrees)
        )
        for fx, fy in points
    ]


class TestPolylinePainter:
    """``_paint_polyline`` paints what the per-pixel painter painted, ``==``."""

    @settings(max_examples=200, deadline=None)
    @given(
        polylines=st.lists(
            st.tuples(
                st.lists(st.tuples(fractions, fractions), max_size=8),
                st.sampled_from(list(FeatureClass)),
            ),
            max_size=4,
        ),
        line_thickness=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # A single-pixel segment (both nodes on one pixel) and its polyline
    # walked back over itself.
    @example(polylines=[([(0.5, 0.5), (0.5, 0.5)], FeatureClass.PATH)], line_thickness=2, seed=0)
    @example(
        polylines=[([(0.1, 0.2), (0.9, 0.6), (0.1, 0.2)], FeatureClass.AREA)],
        line_thickness=1,
        seed=1,
    )
    # Both nodes off the tile on opposite sides: a segment along the border
    # whose thickness square spills off the tile.
    @example(polylines=[([(-0.5, -0.5), (1.5, -0.2)], FeatureClass.PATH)], line_thickness=3, seed=2)
    @example(polylines=[([(1.5, 1.5), (-0.5, 0.5), (0.3, 1.2)], FeatureClass.POI)], line_thickness=3, seed=3)
    def test_rasters_equal_the_per_pixel_painter(self, polylines, line_thickness, seed):
        renderer = TileRenderer(map_data=None, line_thickness=line_thickness)
        start = np.random.default_rng(seed).integers(0, len(FeatureClass), (TILE_SIZE_PIXELS,) * 2, dtype=np.uint8)
        raster, expected = start.copy(), start.copy()
        for points, feature in polylines:
            nodes = tile_nodes(points)
            renderer._paint_polyline(raster, PAINT_TILE, nodes, feature)
            oracle_paint_polyline(expected, PAINT_TILE, nodes, feature, line_thickness)
            assert raster.dtype == expected.dtype and (raster == expected).all()

    @pytest.mark.parametrize("line_thickness", [1, 2, 3])
    def test_rendered_tiles_equal_the_per_pixel_painter(self, city, monkeypatch, line_thickness):
        coordinates = tiles_for_box(BoundingBox.around(city.bounds.center, 150.0), 17)
        fast = TileRenderer(city.map_data, line_thickness=line_thickness).prerender(coordinates)

        def paint(self, raster, coordinate, nodes, feature):
            oracle_paint_polyline(raster, coordinate, nodes, feature, self.line_thickness)

        monkeypatch.setattr(TileRenderer, "_paint_polyline", paint)
        slow = TileRenderer(city.map_data, line_thickness=line_thickness).prerender(coordinates)
        assert any(tile.coverage_fraction for tile in slow)
        assert [tile.raster.tobytes() for tile in fast] == [tile.raster.tobytes() for tile in slow]


class TestStitcher:
    def _tile(self, coordinate: TileCoordinate, value: int, where: str, source: str) -> Tile:
        raster = np.zeros((TILE_SIZE_PIXELS, TILE_SIZE_PIXELS), dtype=np.uint8)
        if where == "left":
            raster[:, : TILE_SIZE_PIXELS // 2] = value
        elif where == "right":
            raster[:, TILE_SIZE_PIXELS // 2 :] = value
        elif where == "all":
            raster[:, :] = value
        return Tile(coordinate, raster, source)

    def test_stitch_combines_disjoint_content(self):
        coordinate = TileCoordinate(15, 100, 200)
        left = self._tile(coordinate, int(FeatureClass.PATH), "left", "city")
        right = self._tile(coordinate, int(FeatureClass.AREA), "right", "store")
        composite = TileStitcher().stitch([left, right])
        assert composite.coverage_fraction == pytest.approx(1.0)
        assert composite.contribution_fraction("city") == pytest.approx(0.5)
        assert composite.contribution_fraction("store") == pytest.approx(0.5)

    def test_later_layer_wins_overlap(self):
        coordinate = TileCoordinate(15, 100, 200)
        base = self._tile(coordinate, int(FeatureClass.PATH), "all", "city")
        overlay = self._tile(coordinate, int(FeatureClass.AREA), "left", "store")
        composite = TileStitcher(prefer_later_layers=True).stitch([base, overlay])
        assert composite.raster[0, 0] == int(FeatureClass.AREA)
        assert composite.raster[0, TILE_SIZE_PIXELS - 1] == int(FeatureClass.PATH)

    def test_mismatched_coordinates_rejected(self):
        a = self._tile(TileCoordinate(15, 1, 1), 1, "all", "x")
        b = self._tile(TileCoordinate(15, 1, 2), 1, "all", "y")
        with pytest.raises(ValueError):
            TileStitcher().stitch([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            TileStitcher().stitch([])

    def test_composite_coverage(self):
        c1 = TileCoordinate(15, 10, 10)
        c2 = TileCoordinate(15, 10, 11)
        grid = {
            c1: [self._tile(c1, int(FeatureClass.PATH), "all", "city")],
            c2: [self._tile(c2, int(FeatureClass.PATH), "left", "city")],
        }
        stitcher = TileStitcher()
        composites = {coordinate: stitcher.stitch(tiles) for coordinate, tiles in grid.items()}
        assert set(composites) == {c1, c2}
        assert 0.5 < composite_coverage(composites) <= 1.0

    def test_composite_coverage_empty(self):
        assert composite_coverage({}) == 0.0


class TestCorrespondences:
    def test_alignment_recovers_rotated_frame(self):
        # Ground truth: a store frame rotated 12 degrees and anchored nearby.
        truth = LocalProjection(CENTER, rotation_degrees=12.0, frame="store")
        correspondences = CorrespondenceSet(local_frame="store")
        for x, y in [(0.0, 0.0), (30.0, 0.0), (0.0, 20.0), (30.0, 20.0), (15.0, 10.0)]:
            local = LocalPoint(x, y, "store")
            correspondences.add(local, truth.to_geographic(local))
        alignment = correspondences.estimate_alignment()
        assert alignment.rms_error_meters < 0.1

        probe = LocalPoint(22.0, 7.0, "store")
        predicted = alignment.local_to_geographic(probe)
        assert predicted.distance_to(truth.to_geographic(probe)) < 0.2

    def test_alignment_round_trip(self):
        truth = LocalProjection(CENTER, rotation_degrees=-8.0, frame="store")
        correspondences = CorrespondenceSet(local_frame="store")
        for x, y in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]:
            local = LocalPoint(x, y, "store")
            correspondences.add(local, truth.to_geographic(local))
        alignment = correspondences.estimate_alignment()
        probe = LocalPoint(5.0, 5.0, "store")
        back = alignment.geographic_to_local(alignment.local_to_geographic(probe))
        assert back.distance_to(LocalPoint(back.x, back.y, back.frame)) == 0.0
        assert abs(back.x - probe.x) < 0.2
        assert abs(back.y - probe.y) < 0.2

    def test_more_correspondences_reduce_noisy_error(self):
        import random

        truth = LocalProjection(CENTER, rotation_degrees=15.0, frame="store")
        rng = random.Random(0)

        def alignment_error(count: int) -> float:
            correspondences = CorrespondenceSet(local_frame="store")
            for index in range(count):
                x = rng.uniform(0.0, 40.0)
                y = rng.uniform(0.0, 30.0)
                local = LocalPoint(x, y, "store")
                noisy_geo = truth.to_geographic(local).destination(rng.uniform(0, 360), abs(rng.gauss(0, 1.0)))
                correspondences.add(local, noisy_geo)
            alignment = correspondences.estimate_alignment()
            probes = [LocalPoint(20.0, 15.0, "store"), LocalPoint(5.0, 25.0, "store")]
            return sum(
                alignment.local_to_geographic(p).distance_to(truth.to_geographic(p)) for p in probes
            ) / len(probes)

        few = sum(alignment_error(3) for _ in range(5)) / 5
        many = sum(alignment_error(20) for _ in range(5)) / 5
        assert many <= few + 0.5

    def test_frame_mismatch_rejected(self):
        correspondences = CorrespondenceSet(local_frame="store")
        with pytest.raises(ValueError):
            correspondences.add(LocalPoint(0.0, 0.0, "other"), CENTER)

    def test_too_few_correspondences_rejected(self):
        correspondences = CorrespondenceSet(local_frame="store")
        correspondences.add(LocalPoint(0.0, 0.0, "store"), CENTER)
        with pytest.raises(ValueError):
            correspondences.estimate_alignment()
