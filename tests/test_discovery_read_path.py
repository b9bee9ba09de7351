"""Reference oracles and a frame budget for the discovery read path.

``_grid_position`` is a closed form and ``cells_at_level`` serves a memoised
grid block; the bodies they had before — two successive-halving loops, and a
scan that built two ``LatLng`` corners and tested every cell's bounds against
the box — live on here as test-only references the new code must equal with
``==``.  ``SimulatedNetwork.round_trip`` keeps its own counters; the
reference is the same exchanges accounted through ``NetworkStats.record``.

The frame budget counts Python ``call`` events with ``sys.setprofile`` — a
count, so it repeats exactly and cannot be noisy — and is the tripwire the
walk must stay under.
"""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.simulation.network import (
    GrayFailure,
    LatencyModel,
    NetworkStats,
    NetworkTimeoutError,
    SimulatedNetwork,
)
from repro.spatialindex.cellid import MAX_LEVEL, CellId, _grid_position
from repro.spatialindex.covering import cells_at_level
from repro.worldgen import build_scenario


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def oracle_grid_position(latitude: float, longitude: float, level: int) -> tuple[int, int]:
    """Successive halving of the world rectangle, one row bit and one column
    bit per level."""
    south, west, north, east = -90.0, -180.0, 90.0, 180.0
    row = col = 0
    for _ in range(level):
        mid_lat = (south + north) / 2.0
        mid_lng = (west + east) / 2.0
        row <<= 1
        col <<= 1
        if latitude >= mid_lat:
            row |= 1
            south = mid_lat
        else:
            north = mid_lat
        if longitude >= mid_lng:
            col |= 1
            west = mid_lng
        else:
            east = mid_lng
    return row, col


def oracle_cells_at_level(box: BoundingBox, level: int, max_cells: int) -> list[CellId]:
    """Two validated corner points, then every cell between them that passes
    ``bounds().intersects(box)``, south→north and west→east, up to the cap."""
    south_west = LatLng(max(-90.0, box.south), max(-180.0, box.west))
    north_east = LatLng(min(90.0, box.north), min(180.0, box.east))
    row0, col0 = oracle_grid_position(south_west.latitude, south_west.longitude, level)
    row1, col1 = oracle_grid_position(north_east.latitude, north_east.longitude, level)
    row1, col1 = max(row0, row1), max(col0, col1)
    cells: list[CellId] = []
    for row in range(row0, row1 + 1):
        if len(cells) >= max_cells:
            break
        for col in range(col0, col1 + 1):
            if len(cells) >= max_cells:
                break
            cell = CellId.from_indices(row, col, level)
            if cell.bounds().intersects(box):
                cells.append(cell)
    cells.sort(key=lambda cell: cell.token)
    return cells


# ----------------------------------------------------------------------
# Strategies: ordinary coordinates, and the ones where `>=` vs `>` shows
# ----------------------------------------------------------------------
levels = st.integers(min_value=0, max_value=MAX_LEVEL)


def _nudged(value: float, ulps: int, low: float, high: float) -> float:
    """``value`` moved ``ulps`` representable floats up (or down), kept in range."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return min(high, max(low, value))


def _axis(origin: float, span: float) -> st.SearchStrategy[float]:
    """Coordinates on one axis: anywhere, or on a cell edge of some level and
    up to 2 ulp either side of it (both ends of the world included)."""
    on_edge = st.builds(
        lambda level, fraction, ulps: _nudged(
            origin + round(fraction * (1 << level)) * (span / (1 << level)),
            ulps,
            origin,
            origin + span,
        ),
        levels,
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=-2, max_value=2),
    )
    anywhere = st.floats(min_value=origin, max_value=origin + span)
    return st.one_of(anywhere, on_edge, st.sampled_from([0.0, -0.0, origin, origin + span]))


latitudes = _axis(-90.0, 180.0)
longitudes = _axis(-180.0, 360.0)


@st.composite
def boxes(draw) -> BoundingBox:
    """Boxes from city blocks to degenerate points and lines on an edge, and
    ones poking out of the world that ``cells_at_level`` clamps."""
    south, west = draw(latitudes), draw(longitudes)
    shape = draw(st.sampled_from(["point", "line", "small", "small", "any", "overhang"]))
    if shape == "point":
        return BoundingBox(south, west, south, west)
    if shape == "line":
        return BoundingBox(south, west, south, max(west, draw(longitudes)))
    if shape == "small":
        # A few cells of a fine level: where discovery queries live.
        height = draw(st.floats(min_value=0.0, max_value=0.02))
        width = draw(st.floats(min_value=0.0, max_value=0.02))
        return BoundingBox(south, west, min(90.0, south + height), min(180.0, west + width))
    if shape == "any":
        return BoundingBox(south, west, max(south, draw(latitudes)), max(west, draw(longitudes)))
    over = draw(st.floats(min_value=0.0, max_value=5.0))
    return BoundingBox(south - over, west - over, min(south + over, 95.0), min(west + over, 185.0))


class TestGridPositionOracle:
    @given(latitudes, longitudes, levels)
    @settings(max_examples=600, deadline=None)
    def test_closed_form_equals_successive_halving(self, latitude, longitude, level):
        assert _grid_position(latitude, longitude, level) == oracle_grid_position(
            latitude, longitude, level
        )

    @pytest.mark.parametrize("level", range(MAX_LEVEL + 1))
    def test_every_level_at_the_poles_the_antimeridian_and_signed_zero(self, level):
        for latitude in (-90.0, 90.0, 0.0, -0.0, math.nextafter(90.0, 0.0), math.nextafter(-90.0, 0.0)):
            for longitude in (-180.0, 180.0, 0.0, -0.0, math.nextafter(180.0, 0.0)):
                assert _grid_position(latitude, longitude, level) == oracle_grid_position(
                    latitude, longitude, level
                )

    def test_cell_edges_are_exact_at_the_deepest_level(self):
        """The closed form corrects against ``origin + k * step``; that is the
        edge halving arrives at only if it is exact in binary floating point."""
        rng = random.Random(18)
        side = 1 << MAX_LEVEL
        for _ in range(2000):
            row, col = rng.randrange(side), rng.randrange(side)
            bounds = CellId.from_indices(row, col, MAX_LEVEL).bounds()
            assert bounds.south == -90.0 + row * (180.0 / side)
            assert bounds.west == -180.0 + col * (360.0 / side)
            assert _grid_position(bounds.south, bounds.west, MAX_LEVEL) == (row, col)
            below = math.nextafter(bounds.south, -math.inf)
            if row:
                assert _grid_position(below, bounds.west, MAX_LEVEL) == (row - 1, col)

    def test_level_out_of_range(self):
        for level in (-1, MAX_LEVEL + 1):
            with pytest.raises(ValueError):
                _grid_position(0.0, 0.0, level)


class TestCellsAtLevelOracle:
    @given(boxes(), levels, st.sampled_from([1, 3, 24, 64]))
    @settings(max_examples=600, deadline=None)
    def test_memoised_block_equals_the_intersects_scan(self, box, level, max_cells):
        assert cells_at_level(box, level, max_cells) == oracle_cells_at_level(box, level, max_cells)

    @given(boxes(), st.integers(min_value=0, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_no_cell_between_the_corners_misses_the_box(self, box, level):
        """Why the per-cell ``intersects`` test could go: it cannot fail."""
        for cell in cells_at_level(box, level, 64):
            assert cell.bounds().intersects(box)

    def test_returned_list_is_fresh(self):
        box = BoundingBox.around(LatLng(40.44, -79.95), 150.0)
        first = cells_at_level(box, 17, 24)
        expected = list(first)
        first.clear()
        first.append(CellId.root())
        assert cells_at_level(box, 17, 24) == expected

    def test_world_sized_box_is_capped_without_scanning_the_world(self):
        world = BoundingBox(-90.0, -180.0, 90.0, 180.0)
        assert cells_at_level(world, 17, 24) == oracle_cells_at_level(world, 17, 24)

    @pytest.mark.parametrize(
        "box",
        [
            BoundingBox(91.0, 0.0, 95.0, 1.0),
            BoundingBox(0.0, 181.0, 1.0, 185.0),
            BoundingBox(-95.0, 0.0, -91.0, 1.0),
            BoundingBox(0.0, -185.0, 1.0, -181.0),
        ],
    )
    def test_box_wholly_outside_the_world_is_rejected(self, box):
        """The two ``LatLng`` corners used to raise this; the float path must."""
        with pytest.raises(ValueError):
            oracle_cells_at_level(box, 17, 24)
        with pytest.raises(ValueError, match="outside the world"):
            cells_at_level(box, 17, 24)

    def test_max_cells_must_be_positive(self):
        with pytest.raises(ValueError):
            cells_at_level(BoundingBox(0.0, 0.0, 1.0, 1.0), 10, 0)


# ----------------------------------------------------------------------
# NetworkStats: round_trip's own accounting == NetworkStats.record
# ----------------------------------------------------------------------
def _seeded_exchanges(network: SimulatedNetwork, rng: random.Random, count: int) -> list[tuple[str, float]]:
    """``count`` exchanges of every hop kind; returns ``(kind, latency)`` per
    exchange that was charged (an abandoned one charges nothing)."""
    hops = [
        ("dns.client_resolver", network.client_resolver_exchange),
        ("dns.resolver_authority", network.resolver_authority_exchange),
        ("mapserver.request", lambda: network.client_map_server_exchange("store-0")),
        ("mapserver.request", lambda: network.client_map_server_exchange("gray", fail_on_exhaustion=True)),
        ("central.request", network.client_central_exchange),
        ("control.request", lambda: network.operator_control_exchange("ctl", fail_on_exhaustion=True)),
        ("custom.kind", lambda: network.round_trip("custom.kind", rng.uniform(0.0, 40.0))),
    ]
    charged = []
    for _ in range(count):
        kind, exchange = rng.choice(hops)
        try:
            charged.append((kind, exchange()))
        except NetworkTimeoutError:
            pass
    return charged


class TestRoundTripAccounting:
    @pytest.mark.parametrize(
        "latency",
        [
            LatencyModel(),
            LatencyModel(jitter_sigma=0.4, loss_probability=0.3, max_retransmits=2),
        ],
        ids=["fixed", "jitter+loss"],
    )
    def test_stats_equal_the_same_exchanges_through_record(self, latency):
        network = SimulatedNetwork(latency=latency, jitter_seed=9)
        network.fault_state().set_gray("gray", GrayFailure(latency_multiplier=3.0, loss_probability=0.5))
        charged = _seeded_exchanges(network, random.Random(200), 200)

        reference = NetworkStats()
        for kind, latency_ms in charged:
            reference.record(kind, latency_ms)
        reference.retransmissions = network.stats.retransmissions
        assert network.stats == reference
        assert list(network.stats.messages_by_kind) == list(reference.messages_by_kind)
        assert network.clock.advance_count == len(charged)
        if latency.is_stochastic:
            assert network.stats.retransmissions > 0
            assert len(charged) < 200  # some exchanges were abandoned, uncharged

    def test_clock_advances_by_each_latency_in_order(self):
        network = SimulatedNetwork(latency=LatencyModel(jitter_sigma=0.4), jitter_seed=3)
        charged = _seeded_exchanges(network, random.Random(7), 200)
        now = 0.0
        for _, latency_ms in charged:
            now += latency_ms / 1000.0
        assert network.clock.now() == now


# ----------------------------------------------------------------------
# Frame budget
# ----------------------------------------------------------------------
def _python_calls(run) -> int:
    """How many Python frames ``run()`` enters (the profiler in force is restored)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


class TestFrameBudget:
    """On the perfbench world, caches warm: what one resolved name and one
    enumeration cost in Python frames (parent commit: 13.58 and 26.5)."""

    @pytest.fixture(scope="class")
    def world(self):
        scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=33)
        city = scenario.city
        mapped = sorted(
            set(city.building_addresses.values()) | set(city.poi_locations.values()),
            key=lambda point: (point.latitude, point.longitude),
        )
        entrance = scenario.stores[0].entrance
        positions = [p for p in mapped if 20.0 <= p.distance_to(entrance) <= 400.0][:40]
        assert len(positions) == 40
        return scenario, positions

    def test_frames_per_resolved_name(self, world):
        scenario, positions = world
        discoverer = scenario.federation.client().context.discoverer
        for position in positions:
            discoverer.discover_at(position, 150.0)
        results = []
        calls = _python_calls(
            lambda: results.extend(discoverer.discover_at(p, 150.0) for p in positions)
        )
        names = sum(result.dns_lookups for result in results)
        assert names > 500
        assert calls / names <= 10.5

    def test_frames_per_enumeration(self, world):
        _, positions = world
        query_boxes = [BoundingBox.around(position, 150.0) for position in positions]
        for box in query_boxes:
            cells_at_level(box, 17, 24)
        calls = _python_calls(lambda: [cells_at_level(box, 17, 24) for box in query_boxes])
        assert calls / len(query_boxes) <= 10.0
