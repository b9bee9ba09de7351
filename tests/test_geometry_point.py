"""Unit tests for geographic and local points."""

from __future__ import annotations

import math

import pytest

from repro.geometry.point import (
    EARTH_RADIUS_METERS,
    LatLng,
    LocalPoint,
    haversine_distance,
    meters_per_degree_latitude,
    meters_per_degree_longitude,
)


class TestLatLng:
    def test_valid_construction(self):
        point = LatLng(40.44, -79.99)
        assert point.latitude == 40.44
        assert point.longitude == -79.99

    def test_invalid_latitude_rejected(self):
        with pytest.raises(ValueError):
            LatLng(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLng(-90.5, 0.0)

    def test_invalid_longitude_rejected(self):
        with pytest.raises(ValueError):
            LatLng(0.0, 190.0)

    def test_normalized_wraps_longitude(self):
        point = LatLng.normalized(10.0, 190.0)
        assert point.longitude == pytest.approx(-170.0)

    def test_normalized_clamps_latitude(self):
        point = LatLng.normalized(95.0, 0.0)
        assert point.latitude == 90.0

    def test_points_are_hashable_and_equal(self):
        assert LatLng(1.0, 2.0) == LatLng(1.0, 2.0)
        assert len({LatLng(1.0, 2.0), LatLng(1.0, 2.0)}) == 1

    def test_radians_properties(self):
        point = LatLng(45.0, 90.0)
        assert point.latitude_radians == pytest.approx(math.pi / 4)
        assert point.longitude_radians == pytest.approx(math.pi / 2)


class TestDistances:
    def test_zero_distance(self):
        point = LatLng(40.0, -80.0)
        assert haversine_distance(point, point) == 0.0

    def test_one_degree_latitude_distance(self):
        a = LatLng(0.0, 0.0)
        b = LatLng(1.0, 0.0)
        expected = math.pi * EARTH_RADIUS_METERS / 180.0
        assert haversine_distance(a, b) == pytest.approx(expected, rel=1e-6)

    def test_distance_is_symmetric(self):
        a = LatLng(40.44, -79.99)
        b = LatLng(40.45, -79.95)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_known_city_pair_distance(self):
        pittsburgh = LatLng(40.4406, -79.9959)
        philadelphia = LatLng(39.9526, -75.1652)
        distance_km = pittsburgh.distance_to(philadelphia) / 1000.0
        assert 400 < distance_km < 420  # roughly 410 km

    def test_meters_per_degree_longitude_shrinks_with_latitude(self):
        assert meters_per_degree_longitude(60.0) < meters_per_degree_longitude(0.0)
        assert meters_per_degree_longitude(0.0) == pytest.approx(meters_per_degree_latitude())


class TestBearingsAndDestinations:
    def test_destination_north(self):
        start = LatLng(40.0, -80.0)
        end = start.destination(0.0, 1000.0)
        assert end.latitude > start.latitude
        assert end.longitude == pytest.approx(start.longitude, abs=1e-9)
        assert start.distance_to(end) == pytest.approx(1000.0, rel=1e-3)

    def test_destination_east(self):
        start = LatLng(40.0, -80.0)
        end = start.destination(90.0, 500.0)
        assert end.longitude > start.longitude
        assert start.distance_to(end) == pytest.approx(500.0, rel=1e-3)

    def test_round_trip_destination(self):
        start = LatLng(40.44, -79.95)
        out = start.destination(37.0, 800.0)
        back = out.destination(37.0 + 180.0, 800.0)
        assert start.distance_to(back) < 0.5

    def test_initial_bearing_cardinal_directions(self):
        origin = LatLng(40.0, -80.0)
        assert origin.initial_bearing_to(LatLng(41.0, -80.0)) == pytest.approx(0.0, abs=0.5)
        assert origin.initial_bearing_to(LatLng(40.0, -79.0)) == pytest.approx(90.0, abs=1.0)
        assert origin.initial_bearing_to(LatLng(39.0, -80.0)) == pytest.approx(180.0, abs=0.5)


class TestLocalPoint:
    def test_distance_same_frame(self):
        a = LocalPoint(0.0, 0.0, "store")
        b = LocalPoint(3.0, 4.0, "store")
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_across_frames_rejected(self):
        a = LocalPoint(0.0, 0.0, "store-a")
        b = LocalPoint(1.0, 1.0, "store-b")
        with pytest.raises(ValueError):
            a.distance_to(b)
