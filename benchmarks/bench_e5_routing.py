"""E5 — Section 5.2 Routing: quality of stitched federated routes.

For random origin/destination pairs, compares the federated stitched route
against the centralized optimum over the same data (route stretch).  Also
measures the street-to-shelf scenario where only the federation can complete
the route, and how many map servers one such query puts to work.
"""

from __future__ import annotations

import random

from repro.simulation.metrics import Summary
from repro.worldgen.scenario import outdoor_point_near

from _util import paper_world


def stretch() -> dict:
    """Outdoor routes: the federation should match the centralized optimum."""
    world, client = paper_world()
    rng = random.Random(3)
    candidates = [(world.city.random_street_point(rng), world.city.random_street_point(rng)) for _ in range(15)]
    pairs = [(origin, destination) for origin, destination in candidates if origin.distance_to(destination) >= 100.0]
    ratios = Summary("stretch")
    for origin, destination in pairs:
        optimum = world.centralized.route(origin, destination)
        if optimum is not None:
            ratios.observe(client.route(origin, destination).length_meters / max(optimum.cost, 1.0))
    return {
        "outdoor": {
            "pairs": len(pairs),
            "routes": ratios.count,
            "mean_stretch": ratios.mean,
            "max_stretch": ratios.maximum,
        }
    }


def street_to_shelf() -> dict:
    """Indoor destinations: only the federation reaches the shelf."""
    world, client = paper_world()
    rows = {}
    for index, store in enumerate(world.stores):
        origin = outdoor_point_near(world, index, 180.0)
        shelf = next(iter(store.product_locations.values()))
        federated = client.route(origin, shelf)
        central_polyline = world.centralized.route_locations(origin, shelf)
        rows[store.name] = {
            "federated_legs": federated.legs_used,
            "federated_end_gap_m": federated.route.points[-1].distance_to(shelf),
            "centralized_end_gap_m": central_polyline[-1].distance_to(shelf) if central_polyline else None,
        }
    return rows


def per_server_work() -> dict:
    """How many map servers computed a leg of one street-to-shelf query."""
    world, client = paper_world()
    shelf = next(iter(world.stores[0].product_locations.values()))
    result = client.route(outdoor_point_near(world, 0, 200.0), shelf)
    routed = [server.stats.requests_by_service.get("routing", 0) for server in world.federation.servers.values()]
    return {
        "one street-to-shelf query": {
            "servers_consulted": result.servers_consulted,
            "servers_that_routed": sum(1 for requests in routed if requests > 0),
            "routing_requests": sum(routed),
        }
    }


CELLS = {"stretch": stretch, "street_to_shelf": street_to_shelf, "per_server_work": per_server_work}


def bands(t: dict) -> dict[str, bool]:
    outdoor, work = t["stretch"]["outdoor"], t["per_server_work"]["one street-to-shelf query"]
    return {
        f"outdoor stretch < 1.3 with every one of >= 10 pairs routed by both systems: {outdoor}": (
            outdoor["routes"] == outdoor["pairs"] >= 10 and outdoor["mean_stretch"] < 1.3
        ),
        f"street-to-shelf runs against >= 3 stores: {len(t['street_to_shelf'])}": len(t["street_to_shelf"]) >= 3,
        **{
            f"the federated route ends < 5 m from {store}'s shelf and the centralized one, with no indoor map, "
            f"farther away: {row}": (
                row["federated_end_gap_m"] < 5.0
                and (row["centralized_end_gap_m"] is None or row["centralized_end_gap_m"] > row["federated_end_gap_m"])
            )
            for store, row in t["street_to_shelf"].items()
        },
        f"a stitched street-to-shelf route puts >= 2 of the consulted servers (city and store) to work: {work}": (
            work["servers_consulted"] >= work["servers_that_routed"] >= 2
        ),
    }
