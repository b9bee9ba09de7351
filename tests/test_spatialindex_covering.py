"""Unit tests for region coverings."""

from __future__ import annotations

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.spatialindex.covering import (
    CoveringOptions,
    RegionCoverer,
    covering_area_square_meters,
    covering_contains_point,
    normalize_covering,
)
from repro.spatialindex.cellid import CellId

CENTER = LatLng(40.44, -79.95)


class TestCoveringOptions:
    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            CoveringOptions(min_level=10, max_level=5)
        with pytest.raises(ValueError):
            CoveringOptions(min_level=-1)

    def test_invalid_max_cells_rejected(self):
        with pytest.raises(ValueError):
            CoveringOptions(max_cells=0)


class TestCoveringBudget:

    def test_max_cells_respected(self):
        for budget in (4, 8, 16):
            coverer = RegionCoverer(CoveringOptions(min_level=6, max_level=16, max_cells=budget))
            cells = coverer.cover_box(BoundingBox.around(CENTER, 500.0))
            assert len(cells) <= budget

    def test_finer_max_level_gives_tighter_covering(self):
        coarse = RegionCoverer(CoveringOptions(min_level=4, max_level=8, max_cells=64))
        fine = RegionCoverer(CoveringOptions(min_level=4, max_level=14, max_cells=64))
        coarse_area = covering_area_square_meters(coarse.cover_box(BoundingBox.around(CENTER, 200.0)))
        fine_area = covering_area_square_meters(fine.cover_box(BoundingBox.around(CENTER, 200.0)))
        assert fine_area < coarse_area


class TestBoxAndPolygonCovering:
    def test_box_covering_contains_box(self):
        box = BoundingBox.around(CENTER, 400.0)
        coverer = RegionCoverer(CoveringOptions(min_level=6, max_level=13, max_cells=32))
        cells = coverer.cover_box(box)
        for point in box.grid_points(4, 4):
            assert covering_contains_point(cells, point)

    def test_polygon_covering_contains_polygon(self):
        polygon = Polygon.regular(CENTER, 250.0, sides=8)
        coverer = RegionCoverer(CoveringOptions(min_level=6, max_level=13, max_cells=32))
        cells = coverer.cover_polygon(polygon)
        assert covering_contains_point(cells, CENTER)
        for vertex in polygon.vertices:
            assert covering_contains_point(cells, vertex)

    def test_covering_over_approximates(self):
        polygon = Polygon.regular(CENTER, 100.0, sides=12)
        coverer = RegionCoverer(CoveringOptions(min_level=8, max_level=12, max_cells=16))
        cells = coverer.cover_polygon(polygon)
        assert covering_area_square_meters(cells) >= polygon.area_square_meters()


class TestNormalization:
    def test_normalize_removes_duplicates(self):
        cells = [CellId("01"), CellId("01"), CellId("02")]
        assert len(normalize_covering(cells)) == 2

    def test_normalize_removes_contained_cells(self):
        cells = [CellId("01"), CellId("0123"), CellId("02")]
        normalized = normalize_covering(cells)
        assert CellId("0123") not in normalized
        assert CellId("01") in normalized

    def test_normalize_sorted_output(self):
        cells = [CellId("3"), CellId("1"), CellId("20")]
        normalized = normalize_covering(cells)
        assert normalized == sorted(normalized, key=lambda c: (c.level, c.token))

    def test_empty_covering_contains_nothing(self):
        assert not covering_contains_point([], CENTER)
