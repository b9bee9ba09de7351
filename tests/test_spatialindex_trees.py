"""Unit tests for the quadtree and R-tree indexes."""

from __future__ import annotations

import random

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.spatialindex.quadtree import QuadTree
from repro.spatialindex.rtree import RTree

AREA = BoundingBox(40.0, -80.0, 41.0, -79.0)


def _random_points(count: int, seed: int = 0) -> list[LatLng]:
    rng = random.Random(seed)
    return [
        LatLng(rng.uniform(AREA.south, AREA.north), rng.uniform(AREA.west, AREA.east))
        for _ in range(count)
    ]


class TestQuadTree:
    def test_insert_and_len(self):
        tree: QuadTree[int] = QuadTree(AREA)
        for index, point in enumerate(_random_points(50)):
            tree.insert(point, index)
        assert len(tree) == 50

    def test_insert_outside_bounds_rejected(self):
        tree: QuadTree[int] = QuadTree(AREA)
        with pytest.raises(ValueError):
            tree.insert(LatLng(50.0, -79.5), 1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QuadTree(AREA, capacity=0)

    def test_box_query_matches_brute_force(self):
        points = _random_points(300, seed=2)
        tree: QuadTree[int] = QuadTree(AREA)
        for index, point in enumerate(points):
            tree.insert(point, index)
        query = BoundingBox(40.2, -79.8, 40.6, -79.3)
        expected = {i for i, p in enumerate(points) if query.contains(p)}
        got = {value for _, value in tree.query_box(query)}
        assert got == expected

    def test_radius_query_matches_brute_force(self):
        points = _random_points(200, seed=3)
        tree: QuadTree[int] = QuadTree(AREA)
        for index, point in enumerate(points):
            tree.insert(point, index)
        center = LatLng(40.5, -79.5)
        radius = 15_000.0
        expected = {i for i, p in enumerate(points) if center.distance_to(p) <= radius}
        got = {value for _, value in tree.query_radius(center, radius)}
        assert got == expected

    def test_nearest_returns_closest(self):
        points = _random_points(100, seed=4)
        tree: QuadTree[int] = QuadTree(AREA)
        for index, point in enumerate(points):
            tree.insert(point, index)
        center = LatLng(40.5, -79.5)
        nearest = tree.nearest(center, count=5)
        assert len(nearest) == 5
        brute = sorted(range(len(points)), key=lambda i: center.distance_to(points[i]))[:5]
        assert {value for _, value in nearest} == set(brute)

    def test_nearest_is_the_ring_query_stably_sorted_by_distance(self):
        """``nearest`` reuses the ring filter's distances as its sort key; the
        result must still be the ring re-measured and stably sorted — exact
        ties (duplicate points) stay in traversal order."""
        points = _random_points(80, seed=6)
        points += points[:25]
        tree: QuadTree[int] = QuadTree(AREA, capacity=4)
        for index, point in enumerate(points):
            tree.insert(point, index)
        for center in _random_points(20, seed=7) + points[:5]:
            radius = 50.0
            while len(tree.query_radius(center, radius)) < 7:
                radius *= 2.0
            ring = tree.query_radius(center, radius)
            expected = sorted(ring, key=lambda item: center.distance_to(item[0]))[:7]
            assert tree.nearest(center, count=7) == expected

    def test_nearest_on_empty_tree(self):
        tree: QuadTree[int] = QuadTree(AREA)
        assert tree.nearest(LatLng(40.5, -79.5)) == []

    def test_nearest_invalid_count(self):
        tree: QuadTree[int] = QuadTree(AREA)
        with pytest.raises(ValueError):
            tree.nearest(LatLng(40.5, -79.5), count=0)

    def test_iteration_yields_all(self):
        points = _random_points(40, seed=5)
        tree: QuadTree[int] = QuadTree(AREA)
        for index, point in enumerate(points):
            tree.insert(point, index)
        assert {value for _, value in tree} == set(range(40))

    def test_duplicate_points_allowed(self):
        tree: QuadTree[str] = QuadTree(AREA)
        point = LatLng(40.5, -79.5)
        for label in "abcdefghijklmnopqrstuvwxyz":
            tree.insert(point, label)
        assert len(tree.query_radius(point, 1.0)) == 26


class TestRTree:
    @staticmethod
    def _random_boxes(count: int, seed: int = 0) -> list[BoundingBox]:
        rng = random.Random(seed)
        boxes = []
        for _ in range(count):
            south = rng.uniform(40.0, 40.9)
            west = rng.uniform(-80.0, -79.1)
            boxes.append(BoundingBox(south, west, south + rng.uniform(0.001, 0.05), west + rng.uniform(0.001, 0.05)))
        return boxes

    def test_insert_and_len(self):
        tree: RTree[int] = RTree()
        for index, box in enumerate(self._random_boxes(60)):
            tree.insert(box, index)
        assert len(tree) == 60
        assert len(tree.all_entries()) == 60

    def test_box_query_matches_brute_force(self):
        boxes = self._random_boxes(150, seed=7)
        tree: RTree[int] = RTree()
        for index, box in enumerate(boxes):
            tree.insert(box, index)
        query = BoundingBox(40.3, -79.7, 40.5, -79.4)
        expected = {i for i, box in enumerate(boxes) if box.intersects(query)}
        got = {value for _, value in tree.query_box(query)}
        assert got == expected

    def test_point_query(self):
        boxes = self._random_boxes(80, seed=8)
        tree: RTree[int] = RTree()
        for index, box in enumerate(boxes):
            tree.insert(box, index)
        point = LatLng(40.45, -79.55)
        expected = {i for i, box in enumerate(boxes) if box.contains(point)}
        got = {value for _, value in tree.query_point(point)}
        assert got == expected

    def test_empty_tree_queries(self):
        tree: RTree[int] = RTree()
        assert tree.query_box(AREA) == []
        assert tree.query_point(LatLng(40.5, -79.5)) == []
