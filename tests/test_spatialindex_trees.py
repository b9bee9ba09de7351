"""Unit tests for the quadtree index."""

from __future__ import annotations

import random

import pytest

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.spatialindex.quadtree import QuadTree

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

    def test_iteration_keeps_each_point_with_its_value_across_splits(self):
        points = _random_points(120, seed=8)
        tree: QuadTree[int] = QuadTree(AREA, capacity=2)
        for index, point in enumerate(points):
            tree.insert(point, index)
        entries = list(tree)
        assert len(entries) == len(points)
        assert sorted(value for _, value in entries) == list(range(len(points)))
        assert all(points[value] == point for point, value in entries)

    def test_whole_area_box_query_returns_every_entry(self):
        points = _random_points(60, seed=9)
        tree: QuadTree[int] = QuadTree(AREA, capacity=3)
        for index, point in enumerate(points):
            tree.insert(point, index)
        assert sorted(tree.query_box(AREA), key=lambda item: item[1]) == sorted(tree, key=lambda item: item[1])
