"""Unit tests for projections and similarity transforms."""

from __future__ import annotations

import math

import pytest

from repro.geometry.point import LatLng, LocalPoint
from repro.geometry.projection import LocalProjection
from repro.geometry.transform import (
    SimilarityTransform,
    alignment_residual_meters,
    estimate_similarity,
)


class TestLocalProjection:
    def test_anchor_maps_to_origin(self):
        anchor = LatLng(40.44, -79.95)
        projection = LocalProjection(anchor, frame="store")
        local = projection.to_local(anchor)
        assert local.x == pytest.approx(0.0, abs=1e-9)
        assert local.y == pytest.approx(0.0, abs=1e-9)
        assert local.frame == "store"

    def test_round_trip(self):
        projection = LocalProjection(LatLng(40.44, -79.95), rotation_degrees=15.0, frame="store")
        point = LatLng(40.4412, -79.9488)
        recovered = projection.to_geographic(projection.to_local(point))
        assert point.distance_to(recovered) < 0.01

    def test_north_displacement(self):
        anchor = LatLng(40.0, -80.0)
        projection = LocalProjection(anchor)
        north_point = anchor.destination(0.0, 100.0)
        local = projection.to_local(north_point)
        assert local.y == pytest.approx(100.0, rel=1e-3)
        assert abs(local.x) < 0.5

    def test_rotation_changes_axes(self):
        anchor = LatLng(40.0, -80.0)
        rotated = LocalProjection(anchor, rotation_degrees=90.0)
        east_point = anchor.destination(90.0, 50.0)
        local = rotated.to_local(east_point)
        # With a 90 degree frame rotation, east becomes -y in the local frame.
        assert abs(local.x) < 1.0
        assert local.y == pytest.approx(-50.0, rel=1e-2)

    def test_frame_mismatch_rejected(self):
        projection = LocalProjection(LatLng(40.0, -80.0), frame="a")
        with pytest.raises(ValueError):
            projection.to_geographic(LocalPoint(1.0, 1.0, "b"))


class TestSimilarityTransform:
    def test_identity(self):
        identity = SimilarityTransform.identity("f")
        point = LocalPoint(3.0, 4.0, "f")
        assert identity.apply(point) == LocalPoint(3.0, 4.0, "f")

    def test_pure_translation(self):
        transform = SimilarityTransform(1.0, 0.0, 10.0, -5.0, "a", "b")
        moved = transform.apply(LocalPoint(1.0, 1.0, "a"))
        assert moved.x == pytest.approx(11.0)
        assert moved.y == pytest.approx(-4.0)
        assert moved.frame == "b"

    def test_rotation_by_90_degrees(self):
        transform = SimilarityTransform(1.0, math.pi / 2, 0.0, 0.0, "a", "b")
        moved = transform.apply(LocalPoint(1.0, 0.0, "a"))
        assert moved.x == pytest.approx(0.0, abs=1e-9)
        assert moved.y == pytest.approx(1.0)

    def test_frame_mismatch_rejected(self):
        transform = SimilarityTransform(1.0, 0.0, 0.0, 0.0, "a", "b")
        with pytest.raises(ValueError):
            transform.apply(LocalPoint(0.0, 0.0, "c"))

    def test_inverse_round_trip(self):
        transform = SimilarityTransform(2.0, 0.7, 3.0, -2.0, "a", "b")
        inverse = transform.inverse()
        point = LocalPoint(5.0, -3.0, "a")
        back = inverse.apply(transform.apply(point))
        assert back.x == pytest.approx(point.x, abs=1e-9)
        assert back.y == pytest.approx(point.y, abs=1e-9)
        assert back.frame == "a"

    def test_zero_scale_cannot_invert(self):
        transform = SimilarityTransform(0.0, 0.0, 0.0, 0.0, "a", "b")
        with pytest.raises(ValueError):
            transform.inverse()


class TestEstimation:
    def test_recovers_known_transform(self):
        truth = SimilarityTransform(1.5, 0.4, 12.0, -7.0, "src", "dst")
        source = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (7.0, 3.0), (-4.0, 6.0)]
        destination = [truth.apply_xy(x, y) for x, y in source]
        estimated = estimate_similarity(source, destination, "src", "dst")
        assert estimated.scale == pytest.approx(1.5, rel=1e-6)
        assert estimated.rotation_radians == pytest.approx(0.4, abs=1e-6)
        assert estimated.translation_x == pytest.approx(12.0, abs=1e-6)
        assert estimated.translation_y == pytest.approx(-7.0, abs=1e-6)
        assert alignment_residual_meters(estimated, source, destination) < 1e-6

    def test_noisy_correspondences_small_residual(self):
        truth = SimilarityTransform(1.0, 0.1, 5.0, 5.0, "src", "dst")
        source = [(float(i), float(j)) for i in range(5) for j in range(5)]
        destination = [
            (x + 0.05 * ((i % 3) - 1), y - 0.05 * ((i % 2)))
            for i, (x, y) in enumerate(truth.apply_xy(sx, sy) for sx, sy in source)
        ]
        estimated = estimate_similarity(source, destination)
        assert alignment_residual_meters(estimated, source, destination) < 0.2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_similarity([(0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)])

    def test_too_few_correspondences_rejected(self):
        with pytest.raises(ValueError):
            estimate_similarity([(0.0, 0.0)], [(1.0, 1.0)])

    def test_degenerate_correspondences_rejected(self):
        with pytest.raises(ValueError):
            estimate_similarity([(1.0, 1.0), (1.0, 1.0)], [(2.0, 2.0), (3.0, 3.0)])

    def test_residual_empty_rejected(self):
        transform = SimilarityTransform.identity()
        with pytest.raises(ValueError):
            alignment_residual_meters(transform, [], [])
