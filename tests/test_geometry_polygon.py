"""Unit tests for polygons."""

from __future__ import annotations

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon


@pytest.fixture()
def square() -> Polygon:
    return Polygon(
        [
            LatLng(40.0, -80.0),
            LatLng(40.0, -79.0),
            LatLng(41.0, -79.0),
            LatLng(41.0, -80.0),
        ]
    )


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([LatLng(0.0, 0.0), LatLng(1.0, 1.0)])

    def test_from_bbox_corners(self):
        box = BoundingBox(40.0, -80.0, 41.0, -79.0)
        polygon = Polygon.from_bbox(box)
        assert len(polygon.vertices) == 4

    def test_regular_polygon(self):
        center = LatLng(40.44, -79.95)
        polygon = Polygon.regular(center, 100.0, sides=6)
        assert len(polygon.vertices) == 6
        assert polygon.contains(center)

    def test_regular_polygon_needs_three_sides(self):
        with pytest.raises(ValueError):
            Polygon.regular(LatLng(0.0, 0.0), 10.0, sides=2)


class TestContainment:
    def test_contains_center(self, square: Polygon):
        assert square.contains(LatLng(40.5, -79.5))

    def test_excludes_outside_point(self, square: Polygon):
        assert not square.contains(LatLng(42.0, -79.5))
        assert not square.contains(LatLng(40.5, -81.0))

    def test_vertex_counts_as_inside(self, square: Polygon):
        assert square.contains(LatLng(40.0, -80.0))

    def test_edge_point_counts_as_inside(self, square: Polygon):
        assert square.contains(LatLng(40.0, -79.5))

    def test_concave_polygon(self):
        # An L-shaped polygon; the notch must be outside.
        polygon = Polygon(
            [
                LatLng(0.0, 0.0),
                LatLng(0.0, 4.0),
                LatLng(2.0, 4.0),
                LatLng(2.0, 2.0),
                LatLng(4.0, 2.0),
                LatLng(4.0, 0.0),
            ]
        )
        assert polygon.contains(LatLng(1.0, 1.0))
        assert polygon.contains(LatLng(1.0, 3.0))
        assert not polygon.contains(LatLng(3.0, 3.0))


class TestMeasurements:
    def test_square_area(self, square: Polygon):
        # roughly 111 km x 85 km at latitude 40.5
        area = square.area_square_meters()
        assert 8.0e9 < area < 1.1e10

    def test_centroid_inside_convex(self, square: Polygon):
        assert square.contains(square.centroid)

    def test_bounding_box_contains_vertices(self, square: Polygon):
        box = square.bounding_box
        assert all(box.contains(v) for v in square.vertices)


class TestBoxIntersection:
    def test_intersects_overlapping_box(self, square: Polygon):
        box = BoundingBox(40.5, -79.5, 41.5, -78.5)
        assert square.intersects_box(box)

    def test_box_entirely_inside(self, square: Polygon):
        box = BoundingBox(40.4, -79.6, 40.6, -79.4)
        assert square.intersects_box(box)

    def test_polygon_entirely_inside_box(self, square: Polygon):
        box = BoundingBox(39.0, -81.0, 42.0, -78.0)
        assert square.intersects_box(box)

    def test_disjoint_box(self, square: Polygon):
        box = BoundingBox(45.0, -70.0, 46.0, -69.0)
        assert not square.intersects_box(box)

    def test_edge_crossing_box_without_contained_vertices(self):
        # A thin polygon crossing the box like a band: no polygon vertex is in
        # the box and no box corner is in the polygon, but edges cross.
        polygon = Polygon(
            [
                LatLng(40.45, -81.0),
                LatLng(40.55, -81.0),
                LatLng(40.55, -78.0),
                LatLng(40.45, -78.0),
            ]
        )
        box = BoundingBox(40.0, -79.6, 41.0, -79.4)
        assert polygon.intersects_box(box)
