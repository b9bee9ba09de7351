"""The client half of a federated request, against the bodies it replaced.

Four things a client used to re-derive per request are now derived once —
per device-cache probe, per map, per store, per route
(``docs/ARCHITECTURE.md`` § The client half of a request).  The bodies they
replaced live on here as test-only references the new code must equal with
``==``: ``DiscoveryCache.get`` through ``LruCache.lookup(is_live=…)``, a
fresh ``RouteStitcher.stitch`` per subset of legs, the sort-by-lambda
``normalize_covering``.  Map and coverage edits under a live client check
that what is held per map follows the map (the general differential is
``tests/test_memo_invisible.py``), and the last class pins the gain as
counts (``sys.setprofile`` call events and wrapped callables — no clock), so
dropping the reuse fails on any machine.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import FederationConfig
from repro.core.federation import Federation
from repro.discovery.cache import DiscoveryCache
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng, haversine_distance
from repro.geometry.polygon import Polygon
from repro.mapserver.server import MapServer
from repro.osm.elements import Node
from repro.osm.mapdata import MapData, MapMetadata
from repro.routing.stitching import RouteLeg, RouteStitcher, StitchedRoute, StitchError
from repro.services.routing import (
    ROUTE_STITCH_MAX_GAP_METERS,
    FederatedRouter,
    FederatedRoutingError,
)
from repro.simulation.clock import SimulatedClock
from repro.simulation.lru import LruCache
from repro.spatialindex.cellid import CellId
from repro.spatialindex.covering import normalize_covering
from repro.tiles.cache import TileCache
from repro.tiles.tile_math import tile_bounds, tiles_for_box
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

CENTER = LatLng(40.44, -79.95)


# ----------------------------------------------------------------------
# (a) DiscoveryCache.get against LruCache.lookup(is_live=…)
# ----------------------------------------------------------------------
class OracleDiscoveryCache:
    """``DiscoveryCache`` as it read before the probe got its own frame: every
    ``get`` goes through ``LruCache.lookup`` with an ``is_live`` predicate and
    the grace window is re-accounted after the fact."""

    def __init__(self, clock, max_entries, default_ttl_seconds, stale_grace_seconds):
        self.clock = clock
        self.default_ttl_seconds = default_ttl_seconds
        self.stale_grace_seconds = stale_grace_seconds
        self.lru = LruCache(max_entries=max_entries)

    def get(self, cell_token):
        if not self.default_ttl_seconds > 0.0:
            return None
        now = self.clock.now()
        if self.stale_grace_seconds <= 0.0:
            entry = self.lru.lookup(cell_token, is_live=lambda value: value[0] > now)
            return entry[1] if entry is not None else None
        grace = self.stale_grace_seconds
        entry = self.lru.lookup(cell_token, is_live=lambda value: value[0] + grace > now)
        if entry is not None and entry[0] <= now:
            self.lru.stats.hits -= 1
            self.lru.stats.misses += 1
            return None
        return entry[1] if entry is not None else None

    def get_stale(self, cell_token):
        if not self.default_ttl_seconds > 0.0 or self.stale_grace_seconds <= 0.0:
            return None
        entry = self.lru.peek(cell_token)
        if entry is None:
            return None
        expires_at, servers = entry
        now = self.clock.now()
        if expires_at <= now < expires_at + self.stale_grace_seconds:
            return servers
        return None

    def put(self, cell_token, servers, ttl_seconds=None):
        if not self.default_ttl_seconds > 0.0:
            return
        ttl = self.default_ttl_seconds
        if ttl_seconds is not None:
            ttl = min(ttl, ttl_seconds)
        if ttl <= 0.0:
            return
        self.lru.store(cell_token, (self.clock.now() + ttl, tuple(dict.fromkeys(servers))))


_tokens = st.sampled_from(("0", "1", "2", "3", "00", "01", "02", "03", "10", "11"))
_servers = st.lists(st.sampled_from(("city", "store-a", "store-b")), max_size=3)


class DeviceCacheMachine(RuleBasedStateMachine):
    """put / get / get_stale / clock moves / flush over a few cells, in a
    cache small enough that every insertion may have to make room."""

    @initialize(
        max_entries=st.integers(1, 8),
        ttl=st.sampled_from((0.0, 5.0, 120.0)),
        grace=st.sampled_from((0.0, 2.0, 30.0)),
    )
    def build(self, max_entries, ttl, grace):
        self.clock = SimulatedClock()
        self.cache = DiscoveryCache(
            clock=self.clock,
            max_entries=max_entries,
            default_ttl_seconds=ttl,
            stale_grace_seconds=grace,
        )
        self.oracle = OracleDiscoveryCache(self.clock, max_entries, ttl, grace)

    @rule(token=_tokens, servers=_servers, ttl=st.none() | st.sampled_from((0.0, 0.5, 5.0, 7.0, 300.0)))
    def put(self, token, servers, ttl):
        self.cache.put(token, servers, ttl_seconds=ttl)
        self.oracle.put(token, servers, ttl_seconds=ttl)

    @rule(token=_tokens)
    def get(self, token):
        assert self.cache.get(token) == self.oracle.get(token)

    @rule(token=_tokens)
    def get_stale(self, token):
        assert self.cache.get_stale(token) == self.oracle.get_stale(token)

    @rule(seconds=st.sampled_from((0.0, 0.5, 2.0, 4.5, 5.0, 7.0, 30.0, 120.0)))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(fraction=st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    def rewind(self, fraction):
        # The engine's concurrent-branch rewind: entries stored "later" than
        # now are in the table with expiries further out than a TTL.
        self.clock.rewind_to(self.clock.now() * fraction)

    @rule()
    def flush(self):
        self.cache.flush()
        self.oracle.lru.flush()

    @invariant()
    def same_books(self):
        assert self.cache.stats == self.oracle.lru.stats
        # Same keys in the same recency order, holding the same entries.
        assert list(self.cache._lru._entries.items()) == list(self.oracle.lru._entries.items())
        assert self.cache.size == self.oracle.lru.size


DeviceCacheMachine.TestCase.settings = settings(max_examples=200, stateful_step_count=50, deadline=None)
TestDeviceCacheMachine = DeviceCacheMachine.TestCase


# ----------------------------------------------------------------------
# (b) the gap-table _stitch_best against a fresh stitch per subset
# ----------------------------------------------------------------------
def oracle_stitch(max_gap_meters, origin, destination, legs) -> StitchedRoute:
    """``RouteStitcher.stitch`` as it read when it measured every gap itself."""
    if not legs:
        raise StitchError("no route legs to stitch")
    remaining = list(legs)
    ordered = []
    current_point = origin
    connector = 0.0
    while remaining:
        best_leg, best_reversed, best_gap = remaining[0], False, float("inf")
        for leg in remaining:
            gap_forward = current_point.distance_to(leg.start)
            gap_backward = current_point.distance_to(leg.end)
            if gap_forward < best_gap:
                best_leg, best_reversed, best_gap = leg, False, gap_forward
            if gap_backward < best_gap:
                best_leg, best_reversed, best_gap = leg, True, gap_backward
        if best_gap > max_gap_meters:
            raise StitchError("gap to the nearest remaining leg")
        remaining.remove(best_leg)
        chosen = best_leg
        if best_reversed:
            chosen = RouteLeg(best_leg.server_id, tuple(reversed(best_leg.points)), best_leg.cost, best_leg.metric)
        ordered.append(chosen)
        connector += best_gap
        current_point = chosen.end
    final_gap = current_point.distance_to(destination)
    if final_gap > max_gap_meters:
        raise StitchError("ends short of the destination")
    connector += final_gap
    points = [origin]
    for leg in ordered:
        if points[-1] != leg.start:
            points.append(leg.start)
        points.extend(leg.points[1:] if leg.points[0] == points[-1] else leg.points)
    if points[-1] != destination:
        points.append(destination)
    total_cost = sum(leg.cost for leg in ordered) + connector
    return StitchedRoute(tuple(points), tuple(ordered), connector, total_cost)


def oracle_stitch_best(max_gap_meters, origin, destination, legs) -> StitchedRoute:
    """``FederatedRouter._stitch_best`` as it read: one stitch per subset, the
    endpoint gaps measured again to score each candidate."""
    subsets = []
    if len(legs) <= 5:
        for mask in range(1, 1 << len(legs)):
            subsets.append([leg for index, leg in enumerate(legs) if mask & (1 << index)])
    else:
        subsets.append(list(legs))
        by_cost = sorted(legs, key=lambda leg: leg.cost)
        subsets.extend(by_cost[:size] for size in range(1, len(by_cost) + 1))
    candidates = []
    for subset in subsets:
        try:
            candidates.append(oracle_stitch(max_gap_meters, origin, destination, subset))
        except StitchError:
            continue
    if not candidates:
        raise FederatedRoutingError("could not stitch any combination of route legs")

    def score(route):
        start_gap = origin.distance_to(route.legs[0].start)
        end_gap = destination.distance_to(route.legs[-1].end)
        return route.total_cost + 10.0 * (start_gap + end_gap)

    return min(candidates, key=score)


def exact(route: StitchedRoute):
    """Everything a stitched route says, floats to the bit."""
    return (
        route.points,
        route.legs,
        float.hex(route.connector_meters),
        float.hex(route.total_cost),
    )


# A handful of handover points 0–180 m apart along a street and one block
# over, so legs share endpoints, duplicate each other, run backwards, tie on
# gaps and sometimes sit beyond the gap bound.
_HANDOVERS = [CENTER.destination(90.0, 45.0 * east).destination(0.0, 60.0 * north) for north in range(2) for east in range(5)]
_handovers = st.sampled_from(_HANDOVERS)
_legs = st.builds(
    lambda server, start, middle, end, cost: RouteLeg(f"server-{server}", (start, *middle, end), cost),
    st.integers(0, 3),
    _handovers,
    st.lists(_handovers, max_size=2),
    _handovers,
    st.sampled_from((0.0, 45.0, 45.0, 90.5, 300.0)),
)


def router_with(max_gap_meters: float) -> FederatedRouter:
    return FederatedRouter(context=None, stitcher=RouteStitcher(max_gap_meters=max_gap_meters))


class TestStitchBest:
    @settings(max_examples=300, deadline=None)
    @given(
        origin=_handovers,
        destination=_handovers,
        legs=st.lists(_legs, min_size=1, max_size=7),
        max_gap=st.sampled_from((0.0, 50.0, 100.0, 250.0)),
    )
    def test_same_route_or_same_error(self, origin, destination, legs, max_gap):
        try:
            expected = oracle_stitch_best(max_gap, origin, destination, legs)
        except FederatedRoutingError:
            with pytest.raises(FederatedRoutingError):
                router_with(max_gap)._stitch_best(origin, destination, legs)
            return
        assert exact(router_with(max_gap)._stitch_best(origin, destination, legs)) == exact(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        origin=_handovers,
        destination=_handovers,
        legs=st.lists(_legs, min_size=0, max_size=5),
        max_gap=st.sampled_from((0.0, 50.0, 100.0, 250.0)),
    )
    def test_standalone_stitch_is_unchanged(self, origin, destination, legs, max_gap):
        try:
            expected = oracle_stitch(max_gap, origin, destination, legs)
        except StitchError:
            with pytest.raises(StitchError):
                RouteStitcher(max_gap_meters=max_gap).stitch(origin, destination, legs)
            return
        assert exact(RouteStitcher(max_gap_meters=max_gap).stitch(origin, destination, legs)) == exact(expected)

    @given(
        st.floats(-89.0, 89.0), st.floats(-179.0, 179.0), st.floats(-89.0, 89.0), st.floats(-179.0, 179.0)
    )
    def test_the_haversine_is_symmetric_to_the_bit(self, lat1, lng1, lat2, lng2):
        """What lets the gap table keep one float per unordered pair."""
        a, b = LatLng(lat1, lng1), LatLng(lat2, lng2)
        assert float.hex(haversine_distance(a, b)) == float.hex(haversine_distance(b, a))

    def test_five_chained_legs_measure_each_pair_once(self, monkeypatch):
        """31 subsets of a five-leg chain: the old body measured 351 gaps to
        stitch them and two more per candidate; the table has 66 pairs."""
        stops = [CENTER.destination(90.0, 40.0 * index) for index in range(6)]
        legs = [RouteLeg(f"server-{i}", (stops[i], stops[i + 1]), 40.0) for i in range(5)]
        measured = Counter()
        distance_to = LatLng.distance_to

        def counted(self, other):
            measured["gaps"] += 1
            return distance_to(self, other)

        monkeypatch.setattr(LatLng, "distance_to", counted)
        route = router_with(250.0)._stitch_best(stops[0], stops[5], legs)
        ours = measured["gaps"]
        measured.clear()
        expected = oracle_stitch_best(250.0, stops[0], stops[5], legs)
        assert exact(route) == exact(expected)
        assert ours <= 12 * 11 // 2 < 351 <= measured["gaps"]


# ----------------------------------------------------------------------
# (c) normalize_covering against the sort-by-lambda body
# ----------------------------------------------------------------------
def oracle_normalize_covering(cells: list[CellId]) -> list[CellId]:
    unique = sorted(set(cells), key=lambda c: (c.level, c.token))
    kept: list[CellId] = []
    kept_tokens: set[str] = set()
    kept_levels: list[int] = []
    for cell in unique:
        token = cell.token
        if any(token[:level] in kept_tokens for level in kept_levels):
            continue
        kept.append(cell)
        kept_tokens.add(token)
        if not kept_levels or kept_levels[-1] != cell.level:
            kept_levels.append(cell.level)
    return kept


def _cells(min_level: int, max_level: int):
    token = st.text(alphabet="0123", min_size=min_level, max_size=max_level)
    return st.lists(token.map(CellId), max_size=24)


class TestNormalizeCovering:
    @given(st.integers(0, 4).flatmap(lambda level: _cells(level, level)))
    def test_one_level_with_duplicates(self, cells):
        assert normalize_covering(cells) == oracle_normalize_covering(cells)

    @given(_cells(0, 4))
    def test_mixed_levels_with_duplicates_and_ancestors(self, cells):
        assert normalize_covering(cells) == oracle_normalize_covering(cells)

    def test_what_discover_along_hands_it(self):
        rng = random.Random(5)
        for _ in range(50):
            cells = [
                CellId.from_point(CENTER.destination(rng.uniform(0, 360), rng.uniform(0, 900)), 17)
                for _ in range(rng.randrange(1, 40))
            ]
            assert normalize_covering(cells) == oracle_normalize_covering(cells)


# ----------------------------------------------------------------------
# (d) a map changed under a live client is seen by the next request
# ----------------------------------------------------------------------
def oracle_clamp(server, point: LatLng) -> LatLng:
    """``_clamp_to_coverage`` scanning the map's nodes on every call."""
    if server.map_data.covers_point(point):
        return point
    entrances = server.map_data.find_nodes_by_tag("entrance")
    if entrances:
        return min(entrances, key=lambda n: point.distance_to(n.location)).location
    nearest = server.map_data.nearest_nodes(point, count=1)
    return nearest[0].location if nearest else point


class TestMapChangedUnderALiveClient:
    @pytest.fixture()
    def world(self):
        # Not the session scenario: these tests edit the maps.
        scenario = build_scenario(store_count=1, city_rows=4, city_cols=4, seed=9)
        store = scenario.stores[0]
        return scenario, store, scenario.store_server(0)

    def test_entrances_follow_the_map_version(self, world):
        scenario, store, server = world
        client = scenario.federation.client()
        map_data = store.map_data
        outside = [store.entrance.destination(bearing, 35.0) for bearing in (90.0, 180.0, 270.0)]
        outside = [point for point in outside if not map_data.covers_point(point)]
        assert outside
        shelf = next(iter(store.product_locations.values()))

        def check():
            for point in outside:
                assert client.router._clamp_to_coverage(server, point) == oracle_clamp(server, point)

        check()
        before = client.route(outside[0], shelf).route
        # A side door right where the first probe point stands.
        side_door = Node(map_data.max_element_id() + 1, outside[0], {"entrance": "side"})
        map_data.add_node(side_door)
        assert client.router._clamp_to_coverage(server, outside[0]) == side_door.location
        check()
        assert client.route(outside[0], shelf).route.total_cost != before.total_cost
        map_data.remove_node(side_door.node_id)
        check()
        assert exact(client.route(outside[0], shelf).route) == exact(before)

    def test_a_map_that_loses_its_last_entrance_hands_over_at_the_nearest_node(self):
        map_data = MapData(MapMetadata(name="kiosk"))
        for node_id, east in enumerate((0.0, 10.0, 20.0), start=1):
            map_data.add_node(Node(node_id, CENTER.destination(90.0, east), {"name": f"stall {node_id}"}))
        server = MapServer(server_id="kiosk", map_data=map_data)
        outside = CENTER.destination(90.0, 60.0)
        clamp = FederatedRouter._clamp_to_coverage
        assert clamp(server, outside) == oracle_clamp(server, outside) == map_data.node(3).location
        map_data.add_node(Node(4, CENTER.destination(0.0, 5.0), {"entrance": "main"}))
        assert clamp(server, outside) == oracle_clamp(server, outside) == map_data.node(4).location
        # A tag edit is remove + add: the door is bricked up.
        map_data.remove_node(4)
        map_data.add_node(Node(4, CENTER.destination(0.0, 5.0), {"name": "wall"}))
        assert clamp(server, outside) == oracle_clamp(server, outside) == map_data.node(3).location

    def test_tile_relevance_follows_the_map_version(self, world):
        scenario, store, server = world
        client = scenario.federation.client()
        map_data = store.map_data
        box = map_data.bounding_box()
        # Tiles 50–70 m east of the store: inside its fuzzy discovery covering,
        # clear of its extent padded by 20 m.
        east_edge = LatLng(box.center.latitude, box.east)
        viewport = BoundingBox.around(east_edge.destination(90.0, 60.0), 10.0)
        tiles = tiles_for_box(viewport, 21)
        assert not any(tile_bounds(tile).intersects(box.expanded(20.0)) for tile in tiles)
        assert server.server_id in client.context.discoverer.discover_region(viewport)

        def sources(rendered):
            return {name for tile in rendered.composites.values() for name in tile.contributions}

        before = client.render_viewport(viewport, zoom=21)
        assert map_data.metadata.name not in sources(before)
        # The store grows a kiosk inside the viewport: its extent now reaches it.
        map_data.add_node(Node(map_data.max_element_id() + 1, viewport.center, {"name": "kiosk"}))
        after = client.render_viewport(viewport, zoom=21)
        assert after.servers_consulted == before.servers_consulted + 1
        assert map_data.metadata.name in sources(after)

    def test_compositing_order_follows_the_coverage(self, world):
        scenario, store, server = world
        client = scenario.federation.client()
        viewport = BoundingBox.around(store.entrance, 25.0)

        def layer_orders(rendered):
            return {tuple(tile.contributions) for tile in rendered.composites.values() if len(tile.contributions) > 1}

        store_name, city_name = store.map_data.metadata.name, scenario.city.map_data.metadata.name
        assert layer_orders(client.render_viewport(viewport, zoom=18)) == {(city_name, store_name)}
        # The store now claims more ground than the city: it composites first.
        city_box = scenario.city.map_data.coverage.bounding_box
        store.map_data.set_coverage(Polygon.from_bbox(city_box.expanded(500.0)))
        assert layer_orders(client.render_viewport(viewport, zoom=18)) == {(store_name, city_name)}

    def test_a_polygon_keeps_its_area_and_a_new_one_measures_its_own(self):
        small = Polygon.from_bbox(BoundingBox.around(CENTER, 50.0))
        large = Polygon.from_bbox(BoundingBox.around(CENTER, 500.0))
        assert float.hex(small.area_square_meters()) == float.hex(Polygon._area.func(small))
        assert small.area_square_meters() == small.area_square_meters() < large.area_square_meters()
        assert small == Polygon(small.vertices) and hash(small) == hash(Polygon(small.vertices))


# ----------------------------------------------------------------------
# Bad sizes and bounds are rejected where they are given
# ----------------------------------------------------------------------
class TestRejectedAtConstruction:
    @pytest.mark.parametrize("max_entries", [0, -1])
    def test_an_lru_that_can_hold_nothing(self, max_entries):
        with pytest.raises(ValueError, match=f"max_entries must be >= 1, got {max_entries}"):
            LruCache(max_entries=max_entries)
        with pytest.raises(ValueError, match=str(max_entries)):
            DiscoveryCache(clock=SimulatedClock(), max_entries=max_entries)
        with pytest.raises(ValueError, match=str(max_entries)):
            TileCache(max_entries=max_entries)

    def test_the_smallest_lru_works(self):
        cache = LruCache(max_entries=1)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") is None and cache.lookup("b") == 2
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize("grace", [-1.0, math.nan, math.inf])
    def test_a_stale_grace_that_is_no_duration(self, grace):
        with pytest.raises(ValueError, match="stale_grace_seconds"):
            DiscoveryCache(clock=SimulatedClock(), stale_grace_seconds=grace)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["device_discovery_cache_ttl_seconds", "stale_serve_max_ms"])
    def test_config_floats_must_be_finite_and_non_negative(self, name, bad):
        with pytest.raises(ValueError, match=name):
            FederationConfig(**{name: bad})

    def test_config_tile_cache_entries_cannot_be_negative(self):
        with pytest.raises(ValueError, match="client_tile_cache_entries cannot be negative, got -3"):
            FederationConfig(client_tile_cache_entries=-3)
        assert FederationConfig(client_tile_cache_entries=0).client_tile_cache_entries == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_a_stitcher_built_directly(self, bad):
        with pytest.raises(ValueError, match="max_gap_meters must be finite and >= 0"):
            RouteStitcher(max_gap_meters=bad)
        assert RouteStitcher(max_gap_meters=0.0).max_gap_meters == 0.0

    def test_a_client_and_a_bare_router_stitch_with_the_same_gap(self):
        assert FederatedRouter(context=None).stitcher.max_gap_meters == ROUTE_STITCH_MAX_GAP_METERS
        assert Federation().client().router.stitcher.max_gap_meters == ROUTE_STITCH_MAX_GAP_METERS


# ----------------------------------------------------------------------
# (e) the gain, as counts
# ----------------------------------------------------------------------
class TestCountBudget:
    """The perfbench world (5 × 5 city, two stores, world seed 33) under
    ``fleet_exact``'s caches, 40 clients × 10 steps."""

    @pytest.fixture(scope="class")
    def tally(self):
        config = FederationConfig(device_discovery_cache_ttl_seconds=120.0, client_tile_cache_entries=256)
        scenario = build_scenario(city_rows=5, city_cols=5, store_count=2, seed=33, config=config)
        engine = WorkloadEngine(scenario, WorkloadConfig(clients=40, steps=10, seed=7))

        probe_code = DiscoveryCache.get.__code__
        stitch_code = FederatedRouter._stitch_best.__code__
        named = {
            MapData.find_nodes_by_tag.__code__: "entrance scans",
            Polygon._area.func.__code__: "area passes",
        }
        expanded_code = BoundingBox.expanded.__code__
        counts: Counter[str] = Counter()
        routes: list[list[int]] = []  # [legs, gaps measured] per _stitch_best
        probing = stitching = 0

        def profiler(frame, event, arg):
            nonlocal probing, stitching
            code = frame.f_code
            if event == "call":
                if code is probe_code:
                    probing += 1
                    counts["probes"] += 1
                if probing:
                    counts["probe frames"] += 1
                if code is stitch_code:
                    stitching += 1
                    routes.append([len(frame.f_locals["legs"]), 0])
                elif stitching and code is haversine_distance.__code__:
                    routes[-1][1] += 1
                name = named.get(code)
                if name is not None:
                    counts[name] += 1
                elif code is expanded_code and frame.f_back.f_code.co_filename.endswith("services/tiles.py"):
                    # Whoever in the tile client pads a map's extent.
                    counts["padded boxes"] += 1
            elif event == "return":
                if code is probe_code:
                    probing -= 1
                elif code is stitch_code:
                    stitching -= 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            report = engine.run()
        finally:
            sys.setprofile(previous)
        assert report.failed_request_rate < 0.05
        maps = {id(server.map_data) for server in scenario.federation.servers.values()}
        return counts, routes, len(maps), scenario

    def test_a_device_cache_probe_is_two_frames(self, tally):
        counts, _, _, _ = tally
        assert counts["probes"] > 1000
        # get itself and clock.now(); a miss on an absent cell is get alone.
        # (Through LruCache.lookup and an is_live lambda it was 5.)
        assert counts["probe frames"] <= 2.5 * counts["probes"]

    def test_per_map_constants_are_derived_once_per_map(self, tally):
        counts, _, maps, _ = tally
        # No map changes during the run, so each constant is derived once per map.
        assert 0 < counts["entrance scans"] <= maps
        assert 0 < counts["area passes"] <= maps
        assert 0 < counts["padded boxes"] <= maps

    def test_each_endpoint_pair_is_measured_once_per_route(self, tally):
        _, routes, _, _ = tally
        assert len(routes) > 50 and max(legs for legs, _ in routes) >= 2
        for legs, gaps in routes:
            points = 2 * legs + 2
            assert gaps <= points * (points - 1) // 2 <= points**2

    def test_a_sensed_cue_seeds_no_generator(self, tally, monkeypatch):
        scenario = tally[3]
        seeded = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: seeded.append(a) or default_rng(*a, **k))
        rng = random.Random(3)
        for store in scenario.stores:
            for _ in range(20):
                cues = store.sense_cues(store.random_interior_point(rng), rng)
                assert len(cues.image.descriptor) == 16
        assert seeded == []
