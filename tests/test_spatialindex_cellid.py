"""Unit tests for hierarchical spatial cells."""

from __future__ import annotations

import pytest

from repro.geometry.point import LatLng
from repro.spatialindex.cellid import MAX_LEVEL, CellId


class TestConstruction:
    def test_root_cell(self):
        root = CellId.root()
        assert root.is_root
        assert root.level == 0
        assert root.bounds().contains(LatLng(0.0, 0.0))
        assert root.bounds().contains(LatLng(89.0, 179.0))

    def test_invalid_token_digits_rejected(self):
        with pytest.raises(ValueError):
            CellId("0421")

    def test_too_deep_token_rejected(self):
        with pytest.raises(ValueError):
            CellId("0" * (MAX_LEVEL + 1))

    def test_from_point_level(self):
        cell = CellId.from_point(LatLng(40.44, -79.95), 10)
        assert cell.level == 10
        assert len(cell.token) == 10

    def test_from_point_invalid_level(self):
        with pytest.raises(ValueError):
            CellId.from_point(LatLng(0.0, 0.0), MAX_LEVEL + 1)
        with pytest.raises(ValueError):
            CellId.from_point(LatLng(0.0, 0.0), -1)


class TestContainmentHierarchy:
    def test_cell_contains_its_point(self):
        point = LatLng(40.44, -79.95)
        for level in range(0, 20, 4):
            cell = CellId.from_point(point, level)
            assert cell.contains_point(point)

    def test_parent_contains_child(self):
        point = LatLng(40.44, -79.95)
        child = CellId.from_point(point, 12)
        parent = child.parent()
        assert parent.level == 11
        assert parent.contains(child)
        assert not child.contains(parent)

    def test_parent_at_level(self):
        cell = CellId.from_point(LatLng(10.0, 20.0), 10)
        ancestor = cell.parent(4)
        assert ancestor.level == 4
        assert ancestor.contains(cell)

    def test_parent_invalid_level(self):
        cell = CellId.from_point(LatLng(10.0, 20.0), 5)
        with pytest.raises(ValueError):
            cell.parent(6)

    def test_children_partition_parent(self):
        cell = CellId.from_point(LatLng(40.0, -80.0), 6)
        children = cell.children()
        assert len(children) == 4
        assert all(cell.contains(child) for child in children)
        # Children cover the parent's centre points of each quadrant.
        parent_box = cell.bounds()
        for child in children:
            assert parent_box.contains_box(child.bounds())

    def test_from_point_is_prefix_consistent(self):
        point = LatLng(40.44, -79.95)
        coarse = CellId.from_point(point, 6)
        fine = CellId.from_point(point, 14)
        assert fine.token.startswith(coarse.token)

    def test_contains_self(self):
        cell = CellId("0123")
        assert cell.contains(cell)


class TestGeometry:

    def test_bounds_quarter_each_level(self):
        cell = CellId.from_point(LatLng(40.0, -80.0), 5)
        child = CellId.from_point(LatLng(40.0, -80.0), 6)
        assert child.bounds().area_square_meters() == pytest.approx(
            cell.bounds().area_square_meters() / 4.0, rel=0.1
        )

    def test_center_inside_bounds(self):
        cell = CellId.from_point(LatLng(12.3, 45.6), 9)
        assert cell.bounds().contains(cell.center())


class TestOrdering:
    def test_ordering_by_level_then_token(self):
        assert CellId("0") < CellId("00")
        assert CellId("01") < CellId("02")

    def test_cells_usable_in_sets(self):
        cells = {CellId("01"), CellId("01"), CellId("02")}
        assert len(cells) == 2
