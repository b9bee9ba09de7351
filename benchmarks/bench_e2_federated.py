"""E2 — Figure 2: the OpenFLAME federated architecture serving the same services.

Runs the five base services through the federated client against the same
world as E1 and reports the federation overhead (messages and simulated
latency per request) relative to the one-exchange centralized baseline.
Every row is steady state on its own world and client, after the one warm-up
pass ``cost_per_request`` states.
"""

from __future__ import annotations

import random

from repro.geometry.bbox import BoundingBox
from repro.mapserver.geocode import Address

from _util import cost_per_request, paper_world


def _search(world, client) -> list:
    entrance = world.stores[0].entrance
    return [lambda: client.search("seaweed", near=entrance, radius_meters=300.0)]


def _geocode(world, client) -> list:
    address = Address.parse(f"{next(iter(world.city.building_addresses))}, {world.city.city_name}")
    return [lambda: client.geocoder.geocode(address).best]


def _routing(world, client) -> list:
    rng = random.Random(1)
    pairs = [(world.city.random_street_point(rng), world.city.random_street_point(rng)) for _ in range(8)]
    return [lambda pair=pair: client.route(*pair) for pair in pairs]


def _localization(world, client) -> list:
    store = world.stores[0]
    rng = random.Random(2)
    true_local = store.random_interior_point(rng)
    true_geo = store.local_to_geographic(true_local)
    cues = store.sense_cues(true_local, rng)
    return [lambda: client.localize(true_geo, cues).best]


def _tiles(world, client) -> list:
    viewport = BoundingBox.around(world.stores[0].entrance, 50.0)
    return [lambda: client.render_viewport(viewport, zoom=19).tiles_downloaded]


def services() -> dict:
    providers = {
        "search": _search,
        "geocode": _geocode,
        "routing": _routing,
        "localization": _localization,
        "tiles": _tiles,
    }
    rows = {}
    for service, requests_of in providers.items():
        world, client = paper_world()
        requests = requests_of(world, client)
        rows[service] = cost_per_request(world.federation.network, requests, passes=10 // len(requests))
    return rows


def search_overhead() -> dict:
    """The headline comparison: the same product search, federated vs centralized."""
    world, client = paper_world()
    entrance = world.stores[0].entrance
    central_search = [lambda: world.centralized.search("seaweed", near=entrance, radius_meters=300.0) is not None]
    return {
        "federated (Fig 2)": cost_per_request(world.federation.network, _search(world, client), passes=10),
        "centralized (Fig 1)": cost_per_request(world.centralized.network, central_search, passes=10),
    }


CELLS = {"services": services, "search_overhead": search_overhead}


def bands(t: dict) -> dict[str, bool]:
    federated, centralized = t["search_overhead"]["federated (Fig 2)"], t["search_overhead"]["centralized (Fig 1)"]
    return {
        **{
            f"federated {service} answers all of >= 8 requests, each costing more than one exchange: {row}": (
                row["answered"] == row["requests"] >= 8 and row["messages_per_request"] > 1.0
            )
            for service, row in t["services"].items()
        },
        "federated search costs more msgs and more sim-ms than centralized over >= 10 requests each (federation pays "
        f"overhead for reach, so a free one is a mismeasured one): {federated} vs {centralized}": (
            min(federated["requests"], centralized["requests"]) >= 10
            and federated["messages_per_request"] > centralized["messages_per_request"]
            and federated["sim_latency_ms"] > centralized["sim_latency_ms"]
        ),
    }
