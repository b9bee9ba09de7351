"""Reference oracles and a frame budget for the discovery read path.

``_grid_position`` is a closed form and ``cells_at_level`` serves a memoised
grid block; the bodies they had before — two successive-halving loops, and a
scan that built two ``LatLng`` corners and tested every cell's bounds against
the box — live on here as test-only references the new code must equal with
``==``.  ``SimulatedNetwork.round_trip`` keeps its own counters; the
reference is the same exchanges accounted through ``NetworkStats.record``.
The walk itself resolves the names of a memoised plan when the device cache
is off; the one loop it had for both modes, every name through
``StubResolver.resolve`` and every cache probe through ``DnsCache.lookup``,
is the reference for both modes.

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

from repro.discovery import discoverer as discoverer_module
from repro.discovery.discoverer import Discoverer, DiscoveryResult
from repro.discovery.registry import MAP_SERVER_RECORD_TYPE, DiscoveryRegistry
from repro.dns.message import DnsResponse, Question, ResponseCode
from repro.dns.records import RecordType
from repro.dns.resolver import RecursiveResolver, StubResolver
from repro.dns.server import NameServer
from repro.dns.zone import Zone
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.simulation.network import (
    GrayFailure,
    LatencyModel,
    NetworkStats,
    NetworkTimeoutError,
    SimulatedNetwork,
)
from repro.spatialindex.cellid import MAX_LEVEL, CellId, _grid_position
from repro.spatialindex.covering import CoveringOptions, cells_at_level, normalize_covering
from repro.worldgen.scenario import build_scenario


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
            LatencyModel(jitter_sigma=0.4, loss_probability=0.3),
        ],
        ids=["fixed", "jitter+loss"],
    )
    def test_stats_equal_the_same_exchanges_through_record(self, latency):
        network = SimulatedNetwork(latency=latency, jitter_seed=9)
        network.fault_state().set_gray("gray", GrayFailure(latency_multiplier=3.0, loss_probability=0.9))
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
# The walk: the one loop it had for both device-cache modes
# ----------------------------------------------------------------------
_NOTHING_WALKED: tuple[tuple[str, ...], float, bool] = ((), math.inf, False)


def oracle_resolve(stub: StubResolver, name: str, record_type: RecordType) -> DnsResponse:
    """``StubResolver.resolve`` → ``RecursiveResolver.resolve`` before the
    resolver answered live hits in its own frame: the exchange, then every
    probe through ``DnsCache.lookup``."""
    stub.network.client_resolver_exchange()
    recursive = stub.recursive
    recursive.stats.queries += 1
    cached = recursive.cache.lookup(name, record_type)
    if cached is not None:
        recursive.stats.cache_answers += 1
        return cached
    response = recursive._resolve_iteratively(Question(name, record_type))
    stored = None
    if response.code == ResponseCode.NOERROR and response.answers:
        stored = recursive.cache.put(name, record_type, response.answers)
    elif response.code in (ResponseCode.NXDOMAIN, ResponseCode.NOERROR):
        stored = recursive.cache.put_negative(name, record_type, code=response.code)
        if response.code == ResponseCode.NXDOMAIN:
            recursive.stats.nxdomain += 1
    if stored is not None:
        response.expires_at = stored.expires_at
    return response


def oracle_discover_cells(self: Discoverer, cells: list[CellId]) -> DiscoveryResult:
    """``Discoverer._discover_cells`` before walk plans: one loop for both
    device-cache modes, merging a ``walked`` outcome per name."""
    servers: list[str] = []
    seen: set[str] = set()
    walked: dict[str, tuple[tuple[str, ...], float, bool]] = {}
    cell_results: dict[str, tuple[str, ...]] = {}
    lookups = 0
    coalesced = 0
    stale_cells = 0
    clock = self.resolver.network.clock
    caching = self.cache.enabled

    for cell in cells:
        token = cell.token
        cell_servers = cell_results.get(token)
        if cell_servers is not None:
            coalesced += 1
        else:
            cell_servers = self.cache.get(token) if caching else None
            if cell_servers is None:
                walk = self.naming.ancestor_names(cell)[: self.ancestor_levels + 1]
                names: list[str] = []
                outcomes: list[tuple[tuple[str, ...], float, bool]] = []
                rest = _NOTHING_WALKED
                for name in walk:
                    known = walked.get(name)
                    if known is not None:
                        rest = known
                        break
                    response = oracle_resolve(self.resolver, name, MAP_SERVER_RECORD_TYPE)
                    now = clock.now()
                    expires_at = response.expires_at
                    names.append(name)
                    if expires_at is None or response.answers:
                        outcomes.append(self._decode(response, now))
                    else:
                        outcomes.append(((), now + (expires_at - now), False))
                lookups += len(names)
                coalesced += len(walk) - len(names)
                cell_servers, cell_expires_at, resolution_failed = rest
                for name, (name_servers, expires_at, failed) in zip(
                    reversed(names), reversed(outcomes)
                ):
                    if name_servers:
                        cell_servers = name_servers + cell_servers
                    if expires_at < cell_expires_at:
                        cell_expires_at = expires_at
                    if failed:
                        resolution_failed = True
                    walked[name] = (cell_servers, cell_expires_at, resolution_failed)
                if caching:
                    self.cache.put(token, cell_servers, ttl_seconds=cell_expires_at - clock.now())
                    if not cell_servers and resolution_failed:
                        stale = self.cache.get_stale(token)
                        if stale is not None:
                            cell_servers = stale
                            self.stale_serves += 1
                            stale_cells += 1
            cell_results[token] = cell_servers

        for server_id in cell_servers:
            if server_id not in seen:
                seen.add(server_id)
                servers.append(server_id)

    return DiscoveryResult(tuple(servers), tuple(cells), lookups, coalesced, stale_cells)


CENTER = LatLng(40.44, -79.95)
WALK_LEVEL = 14


def _wired_discoverer(device_ttl: float, stale_ms: float) -> tuple[Discoverer, DiscoveryRegistry]:
    """Registrations at levels 10–14 (a district, a shop with two replicas, a
    campus) behind one authority, with TTLs short enough to lapse mid-run."""
    network = SimulatedNetwork()
    registry = DiscoveryRegistry(
        covering_options=CoveringOptions(min_level=10, max_level=14, max_cells=32)
    )
    registry.ttl_seconds = 40.0
    registry.register_region("city.example", Polygon.regular(CENTER, 2500.0))
    registry.ttl_seconds = 25.0
    shop = Polygon.regular(CENTER.destination(120.0, 150.0), 220.0)
    registry.register_region("r0.shop.example", shop, priority=0, weight=3)
    registry.register_region("r1.shop.example", shop, priority=1, weight=1)
    registry.register_region(
        "campus.example", Polygon.regular(CENTER.destination(45.0, 900.0), 400.0), weight=2
    )
    root_zone = Zone(origin="")
    root_zone.add(registry.naming.suffix, RecordType.NS, registry.authority.server_id)
    root = NameServer(server_id="root", zones={"": root_zone})
    resolver = RecursiveResolver(
        root=root,
        servers={"root": root, registry.authority.server_id: registry.authority},
        network=network,
    )
    discoverer = Discoverer(
        resolver=StubResolver(recursive=resolver, network=network),
        naming=registry.naming,
        query_level=WALK_LEVEL,
        ancestor_levels=6,
        device_cache_ttl_seconds=device_ttl,
        stale_serve_max_ms=stale_ms,
    )
    return discoverer, registry


def _observed(discoverer: Discoverer) -> tuple:
    """Everything a walk can touch, in a form ``==`` compares exactly."""
    network = discoverer.resolver.network
    recursive = discoverer.resolver.recursive
    return (
        network.stats,
        list(network.stats.messages_by_kind),
        recursive.stats,
        recursive.cache.stats,
        list(recursive.cache._entries),
        float.hex(network.clock.now()),
        network.clock.advance_count,
        list(discoverer.srv_view.items()),
        discoverer.cache.stats,
        list(discoverer.cache._lru._entries.items()),
        discoverer.stale_serves,
    )


_WALK_POINTS = [
    CENTER.destination(bearing, distance)
    for bearing in (0.0, 120.0, 250.0)
    for distance in (0.0, 200.0, 900.0, 3000.0)
]
_CELL_POOL = sorted(
    {
        cell
        for point in _WALK_POINTS[:6]
        for cell in cells_at_level(BoundingBox.around(point, 120.0), WALK_LEVEL, 24)
    },
    key=lambda cell: cell.token,
)
_radii = st.sampled_from([0.0, 40.0, 250.0, 600.0])


def _covering(point: LatLng, radius: float) -> list[CellId]:
    return cells_at_level(BoundingBox.around(point, radius), WALK_LEVEL, 24)


cell_lists = st.one_of(
    st.just([]),
    st.builds(_covering, st.sampled_from(_WALK_POINTS), _radii),
    # discover_along: the normalized union of several coverings.
    st.builds(
        lambda points, radius: normalize_covering(
            [cell for point in points for cell in _covering(point, radius)]
        ),
        st.lists(st.sampled_from(_WALK_POINTS), min_size=1, max_size=3),
        _radii,
    ),
    # Duplicates and siblings in any order; a few cells one level coarser.
    st.lists(
        st.one_of(
            st.sampled_from(_CELL_POOL),
            st.sampled_from(_CELL_POOL).map(lambda cell: cell.parent(WALK_LEVEL - 1)),
        ),
        max_size=14,
    ),
)
walk_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 3.0, 20.0, 70.0]),  # clock advance before the walk (s)
        st.sampled_from([None, None, "down", "up"]),  # authority outage toggle
        cell_lists,
    ),
    min_size=1,
    max_size=6,
)


class TestWalkOracle:
    """Twin worlds, one walked by ``_discover_cells`` and one by the oracle,
    stay equal after every walk — results and every counter, clock bit and
    cache order."""

    @pytest.mark.parametrize(
        "device_ttl, stale_ms", [(0.0, 0.0), (30.0, 0.0), (30.0, 90_000.0)], ids=["off", "on", "grace"]
    )
    @given(steps=walk_steps)
    @settings(max_examples=50, deadline=None)
    def test_walk_equals_the_one_loop(self, device_ttl, stale_ms, steps):
        subject, subject_registry = _wired_discoverer(device_ttl, stale_ms)
        oracle, oracle_registry = _wired_discoverer(device_ttl, stale_ms)
        for advance, outage, cells in steps:
            for discoverer, registry in ((subject, subject_registry), (oracle, oracle_registry)):
                discoverer.resolver.network.clock.advance(advance)
                faults = discoverer.resolver.network.fault_state()
                if outage == "down":
                    faults.authority_down(registry.authority.server_id)
                elif outage == "up":
                    faults.authority_up(registry.authority.server_id)
            assert subject._discover_cells(list(cells)) == oracle_discover_cells(oracle, list(cells))
            assert _observed(subject) == _observed(oracle)

    def test_a_registration_between_two_identical_walks_is_found(self):
        """Plans hold names, never answers: the second walk reuses the plan
        and still sees the record added after the first."""
        discoverer, registry = _wired_discoverer(0.0, 0.0)
        cells = _covering(CENTER.destination(300.0, 1800.0), 250.0)
        first = discoverer._discover_cells(cells)
        assert "kiosk.example" not in first
        builds = discoverer_module._walk_plan.cache_info().misses
        registry.register_region(
            "kiosk.example", Polygon.regular(CENTER.destination(300.0, 1800.0), 80.0)
        )
        # Past the resolver's negative TTL, so its cache does not hide the record.
        discoverer.resolver.network.clock.advance(61.0)
        second = discoverer._discover_cells(cells)
        assert discoverer_module._walk_plan.cache_info().misses == builds
        assert "kiosk.example" in second
        assert second.dns_lookups == first.dns_lookups


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
    enumeration cost in Python frames (before walk plans: 9.02 per name with
    the device cache off, 18.31 with it on; before that 13.58 and 26.5)."""

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
        assert not discoverer.cache.enabled
        for position in positions:
            discoverer.discover_at(position, 150.0)
        results = []
        calls = _python_calls(
            lambda: results.extend(discoverer.discover_at(p, 150.0) for p in positions)
        )
        names = sum(result.dns_lookups for result in results)
        assert names > 500
        assert calls / names <= 6.0

    def test_frames_per_resolved_name_with_the_device_cache_on(self, world):
        """A device cache cold, the resolver's warm: every cell is probed,
        walked and stored, and names shared between positions are walked
        once (measured 15.31)."""
        scenario, positions = world
        uncached = scenario.federation.client().context.discoverer
        for position in positions:
            uncached.discover_at(position, 150.0)
        discoverer = Discoverer(
            resolver=uncached.resolver,
            naming=uncached.naming,
            query_level=uncached.query_level,
            ancestor_levels=uncached.ancestor_levels,
            device_cache_ttl_seconds=120.0,
        )
        results = []
        calls = _python_calls(
            lambda: results.extend(discoverer.discover_at(p, 150.0) for p in positions)
        )
        names = sum(result.dns_lookups for result in results)
        assert names > 100
        assert calls / names <= 15.8

    def test_one_plan_build_per_distinct_cell_list(self, world):
        scenario, positions = world
        discoverer = scenario.federation.client().context.discoverer
        distinct = {
            tuple(cell.token for cell in cells_at_level(BoundingBox.around(p, 150.0), 17, 24))
            for p in positions
        }
        plans = discoverer_module._walk_plan
        plans.cache_clear()
        for position in positions:
            discoverer.discover_at(position, 150.0)
        assert plans.cache_info().misses == len(distinct) < len(positions)
        for position in positions:
            discoverer.discover_at(position, 150.0)
        assert plans.cache_info().misses == len(distinct)

    def test_frames_per_enumeration(self, world):
        _, positions = world
        query_boxes = [BoundingBox.around(position, 150.0) for position in positions]
        for box in query_boxes:
            cells_at_level(box, 17, 24)
        calls = _python_calls(lambda: [cells_at_level(box, 17, 24) for box in query_boxes])
        assert calls / len(query_boxes) <= 10.0
