"""E1 — Figure 1: the centralized architecture serving the five base services.

For the centralized baseline, the simulated message count and network latency
per request of each of the five location-based services of Section 4 (one
client↔provider exchange each), and what the Figure-1 offline stage builds
from the merged world map.
"""

from __future__ import annotations

import random

from repro.centralized.preprocess import preprocess_world_map
from repro.localization.cues import CueBundle, GnssCue
from repro.mapserver.geocode import Address
from repro.tiles.tile_math import tile_for_point

from _util import cost_per_request, paper_world


def services() -> dict:
    world, _ = paper_world()
    central, city = world.centralized, world.city
    center = city.bounds.center
    address = Address.parse(f"{next(iter(city.building_addresses))}, {city.city_name}")
    rng = random.Random(0)
    pairs = [(city.random_street_point(rng), city.random_street_point(rng)) for _ in range(10)]
    cues = CueBundle(gnss=GnssCue(center, accuracy_meters=10.0))
    coordinate = tile_for_point(center, 17)
    requests = {
        "geocode": [lambda: central.geocode(address)],
        "search": [lambda: central.search("cafe", near=center, radius_meters=2000.0)],
        "routing": [lambda pair=pair: central.route(*pair) for pair in pairs],
        "localization": [lambda: central.localize(cues)],
        "tiles": [lambda: central.get_tile(coordinate)],
    }
    return {
        service: cost_per_request(central.network, calls, passes=20 // len(calls))
        for service, calls in requests.items()
    }


def preprocessing() -> dict:
    """The Figure-1 offline stage: ingest + preprocess the whole world map."""
    world, _ = paper_world()
    report = preprocess_world_map(world.centralized.world_map, use_contraction_hierarchy=False).report
    return {
        "world map": {
            "graph_vertices": report.graph_vertices,
            "geocode_entries": report.geocode_entries,
            "search_entries": report.search_entries,
        }
    }


CELLS = {"services": services, "preprocessing": preprocessing}


def bands(t: dict) -> dict[str, bool]:
    built = t["preprocessing"]["world map"]
    return {
        **{
            f"centralized {service} answers all of >= 20 requests in one exchange each (1.0 msgs): {row}": (
                row["answered"] == row["requests"] >= 20 and row["messages_per_request"] == 1.0
            )
            for service, row in t["services"].items()
        },
        f"the offline stage builds a non-empty graph and indexes: {built}": min(built.values()) > 0,
    }
