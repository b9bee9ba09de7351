"""Goldens over the *answers* of the five federated services.

``perfbench``'s ``request_direct`` digest covers simulated latencies and
answer sizes, and the byte-gated ``BENCH_e*.json`` artifacts record counts
and latencies — so a map-server kernel that returned the wrong node at the
right speed would pass both.  Each golden here is the ordered answers to 40
seeded requests of one kind, issued through an :class:`OpenFlameClient` on
the fixed perfbench world: node ids, labels and the ``float.hex()`` of every
score, distance and coordinate (a tile's raster as its sha256), stored under
``tests/goldens/test_service_answer_goldens/`` (see ``golden.py``).

The search, route, tiles and geocode answers were recorded on the commit
*before* the kernels ranked on scalars and built results after the cut, and
hold that rewrite to the old answers bit for bit.  The localize answers were
recorded *after* it: until beacon sums were taken in cue order the floats of
a beacon fix followed ``PYTHONHASHSEED``
(``tests/test_service_kernel_oracles.py::test_localization_answers_do_not_depend_on_hash_seed``),
so no earlier value was reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
from collections.abc import Callable

import pytest
from golden import assert_golden

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import LatLng
from repro.worldgen.scenario import build_scenario

REQUESTS_PER_KIND = 40


def _point(point: LatLng | None) -> list[str] | None:
    if point is None:
        return None
    return [point.latitude.hex(), point.longitude.hex()]


def _search(client, rng: random.Random, scenario, store, position: LatLng) -> object:
    # Product names match one shelf, categories and tag keys match many:
    # the latter reach the ``limit`` cut and its tied relevances.
    product = rng.choice(sorted(store.product_locations))
    broad = rng.choice(["dairy", "bakery snacks", "indoor", "cafe", "street"])
    query = rng.choice([product, broad])
    limit = rng.choice([1, 3, 10])
    found = client.search(query, near=position, limit=limit)
    return [
        [r.map_name, r.node_id, r.label, r.relevance.hex(), r.distance_meters.hex(), _point(r.location), r.tags]
        for r in found.results
    ]


def _route(client, rng: random.Random, scenario, store, position: LatLng) -> object:
    product = rng.choice(sorted(store.product_locations))
    route = client.route(position, store.product_locations[product]).route
    return [
        [_point(point) for point in route.points],
        route.servers,
        route.connector_meters.hex(),
        route.total_cost.hex(),
    ]


def _tiles(client, rng: random.Random, scenario, store, position: LatLng) -> object:
    viewport = client.render_viewport(BoundingBox.around(position, 120.0), zoom=17)
    return [
        [
            [coordinate.zoom, coordinate.x, coordinate.y],
            hashlib.sha256(tile.raster.tobytes()).hexdigest(),
            sorted(tile.contributions.items()),
        ]
        for coordinate, tile in viewport.composites.items()
    ]


def _geocode(client, rng: random.Random, scenario, store, position: LatLng) -> object:
    city = scenario.city
    address = f"{rng.choice(sorted(city.building_addresses))}, {city.city_name}"
    found = client.geocode(address, limit=rng.choice([1, 2, 5]))
    return [
        _point(found.coarse_location),
        [
            [r.map_name, r.node_id, r.label, r.score.hex(), _point(r.location)]
            for r in found.candidates
        ],
    ]


def _localize(client, rng: random.Random, scenario, store, position: LatLng) -> object:
    indoors = store.random_interior_point(rng)
    cues = store.sense_cues(indoors, rng)
    fix = client.localize(store.local_to_geographic(indoors), cues)
    return [
        [
            scored.result.server_id,
            scored.result.cue_type.value,
            _point(scored.result.location),
            scored.result.accuracy_meters.hex(),
            scored.result.confidence.hex(),
            None if scored.result.heading_degrees is None else scored.result.heading_degrees.hex(),
            scored.plausibility.hex(),
        ]
        for scored in fix.candidates
    ]


ISSUERS = {"search": _search, "route": _route, "tiles": _tiles, "geocode": _geocode, "localize": _localize}


def answers(kind: str) -> list:
    """The ordered answers to ``REQUESTS_PER_KIND`` seeded requests of
    ``kind`` on a freshly built perfbench world."""
    if kind == "localize" and sys.version_info >= (3, 12):
        # A fix is a weighted mean taken with builtin sum(), which is a
        # compensated sum from CPython 3.12: the last bits differ.
        pytest.skip("the localize golden was recorded with the plain float sum() of CPython < 3.12")
    scenario = build_scenario(store_count=2, city_rows=5, city_cols=5, seed=33)
    client = scenario.federation.client()
    rng = random.Random(f"answers-{kind}")
    mapped = sorted(
        set(scenario.city.building_addresses.values()) | set(scenario.city.poi_locations.values()),
        key=lambda point: (point.latitude, point.longitude),
    )
    found = []
    for _ in range(REQUESTS_PER_KIND):
        store = rng.choice(scenario.stores)
        # Points the street graph reaches, as in perfbench's request_direct.
        position = rng.choice(
            [point for point in mapped if 20.0 <= point.distance_to(store.entrance) <= 400.0]
        )
        found.append(ISSUERS[kind](client, rng, scenario, store, position))
    return found


CASES: dict[str, Callable[[], object]] = {kind: functools.partial(answers, kind) for kind in ISSUERS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_answers_match_golden(case: str) -> None:
    assert_golden(__file__, case, CASES[case]())
