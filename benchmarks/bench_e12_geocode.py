"""E12 — Section 4 / 5.2: forward and reverse geocoding over federated maps.

Measures the two-stage federated geocode flow (coarse world-map lookup, then
precise lookup in discovered maps): success rate and positional error for
street addresses and for indoor destinations, the per-query fan-out, and
reverse-geocode precision indoors versus the centralized baseline.
"""

from __future__ import annotations

from repro.simulation.metrics import Summary

from _util import paper_world


def street_addresses() -> dict:
    """Street addresses resolve through the world provider with small error."""
    world, client = paper_world()
    addresses = list(world.city.building_addresses.items())[:20]
    error, fanout = Summary("error"), Summary("fanout")
    for address, location in addresses:
        result = client.geocode(f"{address}, {world.city.city_name}")
        fanout.observe(result.servers_consulted)
        if result.best is not None:
            error.observe(result.best.location.distance_to(location))
    return {
        "street addresses": {
            "queries": len(addresses),
            "resolved_fraction": error.count / len(addresses),
            "mean_error_m": error.mean,
            "mean_servers_consulted": fanout.mean,
        }
    }


def indoor_destinations() -> dict:
    """Indoor destinations (store entrances) resolve via the two-stage flow."""
    world, client = paper_world()
    rows = {}
    for store in world.stores:
        street = next(node.tags["addr:full"] for node in store.map_data.nodes() if "addr:full" in node.tags)
        result = client.geocode(f"{store.name} entrance, {street}")
        rows[store.name] = {
            "resolved": result.best is not None,
            "error_m": result.best.location.distance_to(store.entrance) if result.best else None,
            "coarse_stage_used": result.coarse_location is not None,
        }
    return rows


def reverse_geocode() -> dict:
    """Reverse geocoding an indoor point: federated snaps to the shelf, the
    centralized baseline can only snap to an outdoor feature far away."""
    world, client = paper_world()
    federated, centralized = Summary("federated"), Summary("centralized")
    for location in list(world.stores[0].product_locations.values())[:10]:
        precise = client.reverse_geocode(location, max_distance_meters=150.0).best
        if precise is not None:
            federated.observe(precise.distance_meters)
        coarse = world.centralized.reverse_geocode(location, max_distance_meters=500.0)
        if coarse is not None:
            centralized.observe(coarse.distance_meters)
    return {
        system: {"answers": snapped.count, "mean_snap_distance_m": snapped.mean}
        for system, snapped in (("federated", federated), ("centralized", centralized))
    }


CELLS = {
    "street_addresses": street_addresses,
    "indoor_destinations": indoor_destinations,
    "reverse_geocode": reverse_geocode,
}


def bands(t: dict) -> dict[str, bool]:
    streets, stores = t["street_addresses"]["street addresses"], t["indoor_destinations"]
    federated, centralized = t["reverse_geocode"]["federated"], t["reverse_geocode"]["centralized"]
    return {
        f"> 0.9 of >= 20 street addresses resolve, at < 30 m mean error: {streets}": (
            streets["queries"] >= 20 and streets["resolved_fraction"] > 0.9 and streets["mean_error_m"] < 30.0
        ),
        f"every one of >= 3 store entrances resolves: {stores}": (
            len(stores) >= 3 and all(row["resolved"] for row in stores.values())
        ),
        "reverse geocode of indoor points snaps closer federated than centralized, >= 8 of 10 answers each: "
        f"{federated} vs {centralized}": (
            min(federated["answers"], centralized["answers"]) >= 8
            and federated["mean_snap_distance_m"] < centralized["mean_snap_distance_m"]
        ),
    }
