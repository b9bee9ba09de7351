"""Memos are invisible: every answer and every run is the same with nothing held.

What the library derives from a mutable source — a map, its routing graph, a
fingerprint database — is held on that source by ``MutableSource.derive`` and
dropped by the source's next change (``docs/ARCHITECTURE.md`` § Answer
reuse).  Each sequence here runs twice on identically built worlds: as it is,
and with ``derive`` building on every call and holding nothing.  Every answer
(arrays as bytes, floats as ``float.hex``), the simulated latency after each
request and the fleet runs' snapshots must be equal.  A memo key that misses
a component (the caller's visibility, the routing metric), a change that
does not drop what a source holds, or a survey that bypasses ``add`` fails
here.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LocalPoint
from repro.localization.fingerprint import BeaconFingerprint, ImageFingerprint
from repro.mapserver.auth import Credential
from repro.mapserver.policy import AccessPolicy
from repro.osm.elements import Node, Way
from repro.simulation.lru import MutableSource
from repro.worldgen.scenario import build_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import WORLD_SEED, fleet_chaos, fleet_exact  # noqa: E402


@contextmanager
def nothing_held():
    """``derive`` builds on every call and holds nothing (test-only)."""
    derive = MutableSource.derive
    MutableSource.derive = lambda source, key, build: build(source)
    try:
        yield
    finally:
        MutableSource.derive = derive


def twice(run):
    """``run()`` as it is, then with nothing held."""
    held = run()
    with nothing_held():
        return held, run()


def canonical(value):
    """``value`` with arrays as bytes and floats as hex: ``==`` is exact."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((canonical(key), canonical(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    return float.hex(value) if isinstance(value, float) else value


def answered(request, client) -> tuple:
    """The answer (an error is one too) and the simulated latency so far."""
    try:
        answer = canonical(request())
    except Exception as error:
        answer = ("raised", type(error).__name__, str(error))
    return answer, float.hex(client.network_latency_ms)


# ----------------------------------------------------------------------
# Small shapes of the perfbench workloads, on its world
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [fleet_exact, fleet_chaos], ids=["fleet_exact", "fleet_chaos"])
def test_a_fleet_run_is_the_same_with_nothing_held(workload):
    held, rebuilt = twice(lambda: json.dumps(workload(7, quick=True).run().snapshot(), sort_keys=True))
    assert held == rebuilt


def test_direct_requests_are_the_same_with_nothing_held():
    """``request_direct``'s five services in turn, 60 requests, answers whole."""

    def run() -> list:
        scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=WORLD_SEED)
        client, city, rng = scenario.federation.client(), scenario.city, random.Random(7)
        places = sorted(city.poi_locations.values(), key=str)
        requests = (
            lambda: client.search(product, near=position),
            lambda: client.route(position, store.product_locations[product]),
            lambda: client.render_viewport(BoundingBox.around(position, 120.0), zoom=17),
            lambda: client.localize(store.local_to_geographic(indoors), store.sense_cues(indoors, rng)),
            lambda: client.geocode(f"{rng.choice(sorted(city.building_addresses))}, {city.city_name}"),
        )
        answers = []
        for index in range(60):
            store, position = rng.choice(scenario.stores), rng.choice(places)
            product, indoors = rng.choice(sorted(store.product_locations)), store.random_interior_point(rng)
            answers.append(answered(requests[index % len(requests)], client))
        return answers

    held, rebuilt = twice(run)
    assert held == rebuilt


# ----------------------------------------------------------------------
# Map and survey edits between requests, under two credentials
# ----------------------------------------------------------------------
CAMPUS = Credential(user_id="ada", email="ada@campus.edu", application_id="campus-nav")
QUERIES = ["wasabi snack", "printer", "lab", "lecture hall", "cafe"]
ADDRESSES = ["forbes cafe, Simville", "printer", "State University"]
TAGS = [
    {"name": "wasabi snack", "product": "snack"},
    {"name": "printer lab", "amenity": "lab", "privacy": "private"},
    {"name": "forbes cafe", "addr:street": "Forbes", "addr:city": "Simville"},
    {"entrance": "side"},
    {},
]
INTERIOR = 3
"""Store points surveyed and localized at: few, so a survey is seen."""

maps, points, tags, who = st.integers(0, 2), st.integers(0, 15), st.integers(0, len(TAGS) - 1), st.integers(0, 1)
edits = st.one_of(
    st.tuples(st.just("add"), maps, points, tags),
    st.tuples(st.just("remove"), maps, st.integers(0, 50)),
    st.tuples(st.just("retag"), maps, st.integers(0, 50), tags),
    st.tuples(st.just("extend"), maps, points, st.integers(0, 50)),
    st.tuples(st.just("survey"), st.integers(0, INTERIOR - 1)),
)
requests = st.one_of(
    st.tuples(st.just("search"), who, st.integers(0, len(QUERIES) - 1), points),
    st.tuples(st.just("geocode"), who, st.integers(0, len(ADDRESSES) - 1)),
    st.tuples(st.just("route"), who, points, points, st.sampled_from(["distance", "time"])),
    st.tuples(st.just("tiles"), who, points, st.sampled_from([17, 19])),
    st.tuples(st.just("localize"), who, st.integers(0, INTERIOR - 1)),
)


def run_sequence(steps) -> list:
    """A 3 × 3 city, a store and the campus.  The campus keeps its rooms
    private to ``campus.edu`` but opens its services, so an anonymous and a
    campus caller ask one server and must never share an answer."""
    scenario = build_scenario(store_count=1, include_campus=True, city_rows=3, city_cols=3, seed=5)
    campus, store = scenario.campus, scenario.stores[0]
    scenario.campus_server.policy = AccessPolicy(private_data_domains={campus.email_domain})
    pool = [node.location for row in scenario.city.intersections for node in row] + [store.entrance]
    for places in (store.product_locations, campus.room_locations, campus.building_locations):
        pool += sorted(places.values(), key=str)[:2]
    interior = [store.random_interior_point(random.Random(index)) for index in range(INTERIOR)]
    clients = [scenario.federation.client(), scenario.federation.client(credential=CAMPUS)]

    def cues(index: int):
        return store.sense_cues(interior[index], random.Random(index))

    answers = []
    for kind, first, *rest in steps:
        if kind == "survey":  # an exact match for the cues sensed there, 3 m off
            point = interior[first]
            spot = store.local_to_geographic(LocalPoint(point.x + 3.0, point.y, point.frame))
            store.beacon_db.add(BeaconFingerprint(spot, cues(first).beacons.reading_map()))
            store.image_db.add(ImageFingerprint(spot, cues(first).image.descriptor))
        elif kind in ("add", "remove", "retag", "extend"):
            map_data = (scenario.city, store, campus)[first].map_data
            new_id = map_data.max_element_id() + 1
            if kind == "add":
                map_data.add_node(Node(new_id, pool[rest[0]], dict(TAGS[rest[1]])))
            elif kind == "extend":
                anchors = sorted(node.node_id for node in map_data.nodes())
                map_data.add_node(Node(new_id, pool[rest[0]]))
                map_data.add_way(Way(new_id + 1, [anchors[rest[1] % len(anchors)], new_id], {"highway": "footway"}))
            else:
                on_ways = {node_id for way in map_data.ways() for node_id in way.node_ids}
                free = sorted(node.node_id for node in map_data.nodes() if node.node_id not in on_ways)
                if free:
                    node = map_data.node(free[rest[0] % len(free)])
                    map_data.remove_node(node.node_id)
                    if kind == "retag":  # a tag edit is remove + add
                        map_data.add_node(Node(node.node_id, node.location, dict(TAGS[rest[1]])))
        else:
            client = clients[first]
            request = {
                "search": lambda: client.search(QUERIES[rest[0]], near=pool[rest[1]], limit=5),
                "geocode": lambda: client.geocode(ADDRESSES[rest[0]]),
                "route": lambda: client.route(pool[rest[0]], pool[rest[1]], metric=rest[-1]),
                "tiles": lambda: client.render_viewport(BoundingBox.around(pool[rest[0]], 60.0), zoom=rest[1]),
                "localize": lambda: client.localize(store.local_to_geographic(interior[rest[0]]), cues(rest[0])),
            }[kind]
            answers.append(answered(request, client))
    return answers


@given(st.lists(requests | edits, min_size=1, max_size=14))
@settings(max_examples=30, deadline=None)
@example(
    [
        ("search", 0, 3, 13), ("search", 1, 3, 13), ("search", 0, 3, 13),  # outsider, insider, outsider
        ("route", 0, 0, 8, "distance"), ("route", 0, 0, 8, "time"),  # one pair, two metrics
        ("search", 1, 0, 9), ("add", 1, 9, 0), ("search", 1, 0, 9),  # an edit between equal requests
        ("extend", 0, 12, 4), ("route", 1, 0, 8, "distance"),
        ("localize", 0, 1), ("survey", 1), ("localize", 0, 1),  # a survey between equal fixes
        ("tiles", 1, 9, 19), ("retag", 1, 0, 3), ("route", 0, 12, 10, "distance"), ("tiles", 1, 9, 19),
    ]
)
def test_edits_and_requests_are_the_same_with_nothing_held(steps):
    held, rebuilt = twice(lambda: run_sequence(steps))
    assert held == rebuilt
