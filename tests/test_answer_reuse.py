"""Answer reuse in the map-server kernels: what the memos must leave alone.

``SearchService.search``, ``GeocodeService.geocode`` and the two pure steps of
``RoutingService.route`` (vertex snap, vertex-pair path) compute each distinct
answer once per state of the map and serve repeats from a bounded LRU held on
the map or its graph.  That the memos never change an answer is
``tests/test_memo_invisible.py``'s differential; the tests here pin what must
not move: the memos sit below policy, admission and every counter, are
bounded, never cross visibility predicates, and hand out lists a caller may
mutate.

The last test pins the gain as a count (no clock): on a seeded fleet run no
kernel body executes more often than there are distinct requests.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import FederationConfig
from repro.geometry.point import LatLng
from repro.mapserver.auth import ANONYMOUS, Credential
from repro.mapserver.geocode import Address, GeocodeService
from repro.mapserver.policy import AccessDenied, AccessPolicy, ServiceName
from repro.mapserver.routing_service import RoutingService
from repro.mapserver.search import SearchIndex, SearchService
from repro.mapserver.server import MapServer
from repro.osm.elements import Node, Way
from repro.osm.mapdata import MapData, MapMetadata
from repro.routing.contraction import ContractionHierarchy
from repro.routing.graph import GraphError, RoutingGraph
from repro.simulation.lru import ANSWER_MEMO_ENTRIES
from repro.simulation.network import SimulatedNetwork
from repro.simulation.queueing import ServerOverloadedError, ServerQueue, ServiceTimeModel
from repro.spatialindex.quadtree import QuadTree
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

CENTER = LatLng(40.44, -79.95)


def grid_point(east: int, north: int) -> LatLng:
    return CENTER.destination(90.0, 30.0 * east).destination(0.0, 30.0 * north)


def street_grid() -> MapData:
    """A 3 × 3 grid of footways, 30 m apart (node ids 1–9, way ids 101–106)."""
    map_data = MapData(MapMetadata(name="reuse-grid"))
    for north in range(3):
        for east in range(3):
            map_data.add_node(Node(1 + 3 * north + east, grid_point(east, north)))
    for line in range(3):
        map_data.add_way(Way(101 + line, [1 + 3 * line + east for east in range(3)], {"highway": "footway"}))
        map_data.add_way(Way(104 + line, [1 + line + 3 * north for north in range(3)], {"highway": "footway"}))
    return map_data


# ----------------------------------------------------------------------
# What the memos must leave alone
# ----------------------------------------------------------------------
NEAR = LatLng(40.4400, -79.9500)
INSIDER = Credential(user_id="alice", email="alice@campus.edu")


def print_server(queue: ServerQueue | None = None) -> MapServer:
    """PR 17's three printers: two private ones at ``NEAR``, a public one 30 m east."""
    map_data = MapData(MapMetadata(name="campus-print"))
    map_data.add_node(Node(1, NEAR, {"name": "printer dean", "privacy": "private"}))
    map_data.add_node(Node(2, NEAR, {"name": "printer staff", "privacy": "private"}))
    map_data.add_node(Node(3, NEAR.destination(90.0, 30.0), {"name": "printer lobby"}))
    return MapServer(
        server_id="print",
        map_data=map_data,
        policy=AccessPolicy(private_data_domains={"campus.edu"}),
        queue=queue,
    )


class TestBelowPolicyAdmissionAndCounters:
    def test_outsider_and_insider_never_share_an_entry(self):
        server = print_server()
        for _ in range(3):
            for credential, expected in ((ANONYMOUS, [3]), (INSIDER, [1, 2, 3]), (ANONYMOUS, [3])):
                found = server.search("printer", NEAR, credential=credential, limit=3)
                assert [r.node_id for r in found] == expected
                found = server.geocode(Address.parse("printer"), credential, limit=3)
                assert [r.node_id for r in found] == expected
        assert server.map_data._derived["search answers"].size == 2
        assert server.map_data._derived["geocode answers"].size == 2

    def test_a_returned_list_is_the_callers_to_mutate(self):
        server = print_server()
        first = server.search("printer", NEAR, credential=INSIDER)
        expected = list(first)
        first.clear()
        assert server.search("printer", NEAR, credential=INSIDER) == expected
        found = server.geocode(Address.parse("printer"), INSIDER)
        expected = list(found)
        found.reverse()
        found.pop()
        assert server.geocode(Address.parse("printer"), INSIDER) == expected

    def test_every_identical_request_is_counted(self):
        queue = ServerQueue(network=SimulatedNetwork(), service_times=ServiceTimeModel(default_ms=2.0))
        server = MapServer(server_id="grid", map_data=street_grid(), queue=queue)
        for _ in range(7):
            server.search("footway", NEAR)
            server.geocode(Address.parse("footway"))
            server.route(grid_point(0, 0), grid_point(2, 2))
        assert server.search_service.queries_served == 7
        assert server.geocode_service.queries_served == 7
        assert server.routing_service.queries_served == 7
        assert server.stats.requests_by_service == {"search": 7, "geocode": 7, "routing": 7}
        assert server.policy.checks_performed == 21
        assert (queue.stats.arrivals, queue.stats.served, queue.stats.dropped) == (21, 21, 0)
        assert queue.network.clock.now() == pytest.approx(21 * 0.002)

    def test_a_shed_request_is_shed_on_a_would_be_hit(self):
        queue = ServerQueue(
            network=SimulatedNetwork(), service_times=ServiceTimeModel(default_ms=10.0), capacity=2
        )
        server = print_server(queue)
        clock = queue.network.clock
        for _ in range(2):
            clock.rewind_to(0.0)
            assert server.search("printer", NEAR)
        clock.rewind_to(0.0)
        with pytest.raises(ServerOverloadedError):
            server.search("printer", NEAR)
        assert queue.stats.dropped == 1
        assert server.search_service.queries_served == 2
        assert server.stats.requests_by_service == {"search": 2}

    def test_a_denied_request_is_denied_on_a_would_be_hit(self):
        server = print_server()
        assert server.search("printer", NEAR, credential=INSIDER)
        server.policy.restrict_to_domain(ServiceName.SEARCH, "campus.edu")
        with pytest.raises(AccessDenied):
            server.search("printer", NEAR, credential=Credential(user_id="bob", email="bob@else.org"))
        assert server.search("printer", NEAR, credential=INSIDER)
        assert server.search_service.queries_served == 2

    def test_an_exception_is_not_an_answer(self):
        service = RoutingService(street_grid(), "contraction")
        for _ in range(2):
            with pytest.raises(GraphError, match="unknown routing metric"):
                service.route(grid_point(0, 0), grid_point(2, 2), metric="scenic")
        assert service.graph._derived["paths"].size == 0

    def test_no_route_is_an_answer(self):
        map_data = street_grid()
        map_data.add_node(Node(20, grid_point(6, 0)))
        map_data.add_node(Node(21, grid_point(7, 0)))
        map_data.add_way(Way(120, [20, 21], {"highway": "footway"}))
        service = RoutingService(map_data, "contraction")
        island, mainland = grid_point(7, 0), grid_point(0, 0)
        assert [service.route(mainland, island) for _ in range(3)] == [None, None, None]
        assert service.graph._derived["paths"].stats.hits == 2
        assert service.route(mainland, grid_point(2, 2)) is not None
        assert service.queries_served == 4

    def test_entry_counts_never_exceed_the_constant(self):
        map_data = street_grid()
        search, geocode = SearchService(map_data), GeocodeService(map_data)
        routing = RoutingService(map_data, "dijkstra")
        for index in range(ANSWER_MEMO_ENTRIES + 40):
            point = CENTER.destination(90.0, 0.05 * index)
            search.search("footway", point)
            geocode.geocode(Address(free_text=f"footway {index}"))
            routing.route(point, grid_point(index % 3, index % 2), metric="time" if index % 2 else "distance")
            memos = (map_data._derived["search answers"], map_data._derived["geocode answers"])
            memos += (routing.graph._derived["paths"], routing.graph._derived["snaps"])
            for memo in memos:
                assert memo.size <= ANSWER_MEMO_ENTRIES
        search_answers, geocode_answers, _, snaps = memos
        assert search_answers.stats.evictions == geocode_answers.stats.evictions == 40
        assert snaps.stats.evictions >= 40
        assert snaps.size == ANSWER_MEMO_ENTRIES

    def test_a_snap_is_not_served_from_before_add_vertex(self):
        graph = RoutingGraph()
        graph.add_vertex(1, grid_point(0, 0))
        graph.add_vertex(2, grid_point(3, 0))
        probe = grid_point(2, 0)
        assert graph.nearest_vertex(probe) == 2
        graph.add_vertex(3, probe)
        assert graph.nearest_vertex(probe) == 3
        graph.add_vertex(3, grid_point(9, 9))  # a known id: nothing changes, nothing to forget
        assert graph.nearest_vertex(probe) == 3
        assert graph._derived["snaps"].stats.hits == 1


# ----------------------------------------------------------------------
# A mutated map under a running server
# ----------------------------------------------------------------------
class TestMutatedMapUnderALiveServer:
    """Everything derived from a map is dropped when the map changes: the
    indexes, the extracted graph, the hierarchy and every remembered answer."""

    def test_search_follows_remove_and_add(self):
        scenario = build_scenario()
        server = scenario.store_server(0)
        map_data = server.map_data
        anchor = scenario.stores[0].entrance
        before = server.search("wasabi seaweed snack", anchor, limit=50)
        gone = before[0].node_id
        map_data.remove_node(gone)
        after = server.search("wasabi seaweed snack", anchor, limit=50)
        assert [r.node_id for r in after] == [r.node_id for r in before if r.node_id != gone]
        new_id = map_data.max_element_id() + 1
        map_data.add_node(Node(new_id, anchor, {"name": "wasabi seaweed snack", "product": "snack"}))
        assert server.search("wasabi seaweed snack", anchor, limit=50)[0].node_id == new_id
        assert server.search_service.index.indexed_nodes == SearchIndex(map_data).indexed_nodes

    def test_geocode_follows_remove_and_add(self):
        server = print_server()
        address = Address.parse("printer")
        assert [r.node_id for r in server.geocode(address, INSIDER)] == [1, 2, 3]
        server.map_data.remove_node(2)
        assert [r.node_id for r in server.geocode(address, INSIDER)] == [1, 3]
        server.map_data.add_node(Node(4, NEAR, {"name": "printer"}))
        assert [r.node_id for r in server.geocode(address, INSIDER)] == [4, 1, 3]
        assert server.geocode_service.index.entry_count == 3

    def test_route_follows_remove_and_add(self):
        map_data = street_grid()
        map_data.add_node(Node(50, grid_point(5, 1)))  # on no way: not a vertex
        server = MapServer(server_id="grid", map_data=map_data, routing_algorithm="contraction")
        origin, beyond = grid_point(0, 1), grid_point(5, 1)
        before = server.route(origin, beyond)
        assert before.points[-1] == grid_point(2, 1)
        map_data.remove_node(50)
        assert server.route(origin, beyond) == before
        map_data.add_node(Node(51, beyond))
        map_data.add_way(Way(151, [6, 51], {"highway": "footway"}))
        after = server.route(origin, beyond)
        assert after.points[-1] == beyond
        assert after.exit_snap_meters == 0.0
        assert after.cost > before.cost
        assert server.routing_service.graph.has_vertex(51)


# ----------------------------------------------------------------------
# The gain, as a count
# ----------------------------------------------------------------------
def test_no_kernel_body_runs_more_often_than_there_are_distinct_requests(monkeypatch):
    """40 clients × 10 steps on the exact per-device path: ranking passes,
    ring searches and hierarchy queries are each bounded by the distinct
    requests this test tallies at the kernels' own entry points.  Zipf traffic
    repeats itself; a refactor that drops the reuse fails here, on any machine.
    """
    calls: Counter[str] = Counter()
    bodies: Counter[str] = Counter()
    distinct: dict[str, set] = {"search": set(), "snap": set(), "path": set()}
    snapping = []

    search, candidates = SearchService.search, SearchIndex.candidates
    nearest_vertex, nearest = RoutingGraph.nearest_vertex, QuadTree.nearest
    query = ContractionHierarchy.query

    def counted_search(self, query, near=None, radius_meters=None, limit=10, visible=None):
        calls["search"] += 1
        distinct["search"].add((id(self), query, near, radius_meters, limit, visible))
        return search(self, query, near, radius_meters, limit, visible)

    def counted_candidates(self, query):
        bodies["search"] += 1
        return candidates(self, query)

    def counted_nearest_vertex(self, point):
        calls["snap"] += 1
        distinct["snap"].add((id(self), point))
        snapping.append(True)
        try:
            return nearest_vertex(self, point)
        finally:
            snapping.pop()

    def counted_nearest(self, center, count=1):
        bodies["snap"] += bool(snapping)
        return nearest(self, center, count)

    def counted_query(self, source, target):
        bodies["path"] += 1
        distinct["path"].add((id(self), source, target))
        return query(self, source, target)

    monkeypatch.setattr(SearchService, "search", counted_search)
    monkeypatch.setattr(SearchIndex, "candidates", counted_candidates)
    monkeypatch.setattr(RoutingGraph, "nearest_vertex", counted_nearest_vertex)
    monkeypatch.setattr(QuadTree, "nearest", counted_nearest)
    monkeypatch.setattr(ContractionHierarchy, "query", counted_query)

    config = FederationConfig(device_discovery_cache_ttl_seconds=120.0, client_tile_cache_entries=128)
    scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, config=config, seed=21)
    report = WorkloadEngine(scenario, WorkloadConfig(clients=40, steps=10, seed=7)).run()
    assert report.failed_request_rate < 0.05

    for kernel in ("search", "snap", "path"):
        assert 0 < bodies[kernel] <= len(distinct[kernel]), kernel
    # The premise: most requests are repeats (else the bound above is idle).
    assert calls["search"] > 2 * len(distinct["search"])
    assert calls["snap"] > 2 * len(distinct["snap"])
    assert calls["snap"] // 2 > 2 * len(distinct["path"])
