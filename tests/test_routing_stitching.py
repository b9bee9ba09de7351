"""Unit tests for client-side route stitching."""

from __future__ import annotations

import pytest

from repro.geometry.point import LatLng
from repro.routing.stitching import RouteLeg, RouteStitcher, StitchError

START = LatLng(40.0, -80.0)


def _leg(server_id: str, points: list[LatLng], cost: float | None = None) -> RouteLeg:
    total = cost if cost is not None else sum(a.distance_to(b) for a, b in zip(points, points[1:]))
    return RouteLeg(server_id=server_id, points=tuple(points), cost=total)


class TestRouteLeg:
    def test_leg_endpoints_and_length(self):
        points = [START, START.destination(90.0, 100.0), START.destination(90.0, 200.0)]
        leg = _leg("a", points)
        assert leg.start == points[0]
        assert leg.end == points[-1]
        assert leg.length_meters() == pytest.approx(200.0, rel=1e-2)

    def test_empty_leg_rejected(self):
        with pytest.raises(ValueError):
            RouteLeg("a", (), 0.0)


class TestStitcher:
    def test_single_leg_stitch(self):
        destination = START.destination(90.0, 300.0)
        leg = _leg("city", [START, START.destination(90.0, 150.0), destination])
        stitched = RouteStitcher().stitch(START, destination, [leg])
        assert stitched.servers == ("city",)
        assert stitched.points[0] == START
        assert stitched.points[-1] == destination
        assert stitched.connector_meters == pytest.approx(0.0, abs=1.0)

    def test_two_legs_in_order(self):
        handover = START.destination(90.0, 300.0)
        destination = handover.destination(0.0, 100.0)
        city_leg = _leg("city", [START, handover])
        store_leg = _leg("store", [handover, destination])
        stitched = RouteStitcher().stitch(START, destination, [city_leg, store_leg])
        assert stitched.servers == ("city", "store")
        assert stitched.length_meters() == pytest.approx(400.0, rel=1e-2)

    def test_legs_given_out_of_order_are_reordered(self):
        handover = START.destination(90.0, 300.0)
        destination = handover.destination(0.0, 100.0)
        city_leg = _leg("city", [START, handover])
        store_leg = _leg("store", [handover, destination])
        stitched = RouteStitcher().stitch(START, destination, [store_leg, city_leg])
        assert stitched.servers == ("city", "store")

    def test_reversed_leg_is_flipped(self):
        handover = START.destination(90.0, 300.0)
        destination = handover.destination(0.0, 100.0)
        city_leg = _leg("city", [handover, START])  # reversed on purpose
        store_leg = _leg("store", [handover, destination])
        stitched = RouteStitcher().stitch(START, destination, [city_leg, store_leg])
        assert stitched.points[0] == START
        assert stitched.points[-1] == destination

    def test_small_gap_bridged_and_counted(self):
        handover = START.destination(90.0, 300.0)
        near_handover = handover.destination(0.0, 40.0)
        destination = near_handover.destination(0.0, 100.0)
        city_leg = _leg("city", [START, handover])
        store_leg = _leg("store", [near_handover, destination])
        stitched = RouteStitcher(max_gap_meters=60.0).stitch(START, destination, [city_leg, store_leg])
        assert stitched.connector_meters == pytest.approx(40.0, rel=0.05)

    def test_gap_exceeding_limit_fails(self):
        far_away = START.destination(90.0, 5_000.0)
        destination = far_away.destination(0.0, 100.0)
        leg_a = _leg("a", [START, START.destination(90.0, 100.0)])
        leg_b = _leg("b", [far_away, destination])
        with pytest.raises(StitchError):
            RouteStitcher(max_gap_meters=100.0).stitch(START, destination, [leg_a, leg_b])

    def test_route_not_reaching_destination_fails(self):
        destination = START.destination(90.0, 2_000.0)
        leg = _leg("a", [START, START.destination(90.0, 100.0)])
        with pytest.raises(StitchError):
            RouteStitcher(max_gap_meters=150.0).stitch(START, destination, [leg])

    def test_no_legs_fails(self):
        with pytest.raises(StitchError):
            RouteStitcher().stitch(START, START, [])

    def test_total_cost_includes_connectors(self):
        handover = START.destination(90.0, 200.0)
        near = handover.destination(0.0, 30.0)
        destination = near.destination(0.0, 100.0)
        legs = [_leg("a", [START, handover]), _leg("b", [near, destination])]
        stitched = RouteStitcher(max_gap_meters=60.0).stitch(START, destination, legs)
        assert stitched.total_cost == pytest.approx(sum(leg.cost for leg in legs) + stitched.connector_meters, rel=1e-6)

    def test_three_servers(self):
        p1 = START.destination(90.0, 200.0)
        p2 = p1.destination(90.0, 200.0)
        destination = p2.destination(90.0, 200.0)
        legs = [_leg("a", [START, p1]), _leg("b", [p1, p2]), _leg("c", [p2, destination])]
        stitched = RouteStitcher().stitch(START, destination, legs)
        assert stitched.servers == ("a", "b", "c")
        assert stitched.length_meters() == pytest.approx(600.0, rel=1e-2)
