"""Unit tests for bounding boxes."""

from __future__ import annotations

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng


class TestConstruction:
    def test_basic_properties(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        assert box.center == LatLng(40.5, -79.5)
        assert box.width_degrees == pytest.approx(1.0)
        assert box.height_degrees == pytest.approx(1.0)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(41.0, -80.0, 40.0, -79.0)
        with pytest.raises(ValueError):
            BoundingBox(40.0, -79.0, 41.0, -80.0)

    def test_from_points(self):
        points = [LatLng(40.0, -80.0), LatLng(40.5, -79.2), LatLng(39.8, -79.9)]
        box = BoundingBox.from_points(points)
        assert box.south == 39.8
        assert box.north == 40.5
        assert box.west == -80.0
        assert box.east == -79.2

    def test_from_points_empty_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_around_contains_disc(self):
        center = LatLng(40.44, -79.95)
        box = BoundingBox.around(center, 500.0)
        for bearing in (0.0, 90.0, 180.0, 270.0):
            assert box.contains(center.destination(bearing, 499.0))

    def test_around_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.around(LatLng(0.0, 0.0), -1.0)


class TestPredicates:
    def test_contains_boundary(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        assert box.contains(LatLng(40.0, -80.0))
        assert box.contains(LatLng(41.0, -79.0))
        assert not box.contains(LatLng(41.1, -79.5))

    def test_intersects_overlapping(self):
        a = BoundingBox(40.0, -80.0, 41.0, -79.0)
        b = BoundingBox(40.5, -79.5, 41.5, -78.5)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_disjoint(self):
        a = BoundingBox(40.0, -80.0, 41.0, -79.0)
        b = BoundingBox(42.0, -78.0, 43.0, -77.0)
        assert not a.intersects(b)

    def test_contains_box(self):
        outer = BoundingBox(40.0, -80.0, 41.0, -79.0)
        inner = BoundingBox(40.2, -79.8, 40.8, -79.2)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)


class TestCombinators:

    def test_intersection_of_overlapping(self):
        a = BoundingBox(40.0, -80.0, 41.0, -79.0)
        b = BoundingBox(40.5, -79.5, 41.5, -78.5)
        overlap = a.intersection(b)
        assert overlap == BoundingBox(40.5, -79.5, 41.0, -79.0)

    def test_intersection_of_disjoint_is_none(self):
        a = BoundingBox(40.0, -80.0, 41.0, -79.0)
        b = BoundingBox(42.0, -78.0, 43.0, -77.0)
        assert a.intersection(b) is None

    def test_expanded_contains_original(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        bigger = box.expanded(1000.0)
        assert bigger.contains_box(box)
        assert bigger.area_square_meters() > box.area_square_meters()

    def test_corners_are_inside(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        assert len(box.corners()) == 4
        assert all(box.contains(corner) for corner in box.corners())


class TestMeasurements:
    def test_area_of_one_km_box(self):
        center = LatLng(40.0, -80.0)
        box = BoundingBox.around(center, 500.0)
        area = box.area_square_meters()
        assert 0.9e6 < area < 1.2e6  # roughly 1 km^2

    def test_diagonal_positive(self):
        box = BoundingBox(40.0, -80.0, 40.01, -79.99)
        assert box.diagonal_meters() > 0

    def test_grid_points_count_and_containment(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        points = box.grid_points(3, 4)
        assert len(points) == 12
        assert all(box.contains(p) for p in points)

    def test_grid_points_invalid(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        with pytest.raises(ValueError):
            box.grid_points(0, 3)
