"""E3 — Section 5.1: DNS-based discovery message counts, latency and caching.

Reports discovery cost with a cold resolver cache, a warm cache, and after
TTL expiry, plus the effect of query-location popularity (Zipf-like repeats)
on the achieved cache hit rate — the property the paper leans on when it
argues the DNS's "ubiquitous caching mechanism" makes spatial discovery cheap.
"""

from __future__ import annotations

import random

from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.osm.builder import MapBuilder
from repro.worldgen.outdoor import generate_city

ZIPF_QUERIES = 150


def _discovery_world() -> tuple[Federation, list[LatLng]]:
    """A city plus 24 small venue map servers; returns the venue locations."""
    federation = Federation()
    city = generate_city(rows=5, cols=5, seed=3)
    federation.add_map_server("city.example", city.map_data, is_world_provider=True)
    rng = random.Random(0)
    locations = []
    for index in range(24):
        corner = city.intersections[rng.randrange(4)][rng.randrange(4)].location
        anchor = corner.destination(rng.uniform(0, 360), rng.uniform(20.0, 60.0))
        region = Polygon.regular(anchor, rng.uniform(30.0, 80.0), sides=6)
        builder = MapBuilder(name=f"venue-{index}")
        builder.add_node(anchor, {"name": f"venue {index}"})
        map_data = builder.build()
        map_data.set_coverage(region)
        federation.add_map_server(f"venue-{index}.example", map_data)
        locations.append(anchor)
    return federation, locations


def _discover(federation: Federation, client, location: LatLng, uncertainty_meters: float) -> dict:
    """One discovery, with what it cost on the wire."""
    federation.reset_network_stats()
    found = client.discover(location, uncertainty_meters=uncertainty_meters)
    stats = federation.network.stats
    return {
        "servers_found": len(found.server_ids),
        "messages": stats.messages_sent,
        "sim_latency_ms": stats.total_latency_ms,
    }


def cache_state() -> dict:
    federation, locations = _discovery_world()
    client = federation.client()
    federation.resolver.cache.flush()
    cold = _discover(federation, client, locations[0], 80.0)
    warm = _discover(federation, client, locations[0], 80.0)
    federation.network.clock.advance(federation.config.registration_ttl_seconds + 1.0)
    expired = _discover(federation, client, locations[0], 80.0)
    return {"cold": cold, "warm": warm, "after TTL expiry": expired}


def zipf() -> dict:
    """Popular places dominate discovery traffic; the cache absorbs them."""
    federation, locations = _discovery_world()
    client = federation.client()
    rng = random.Random(11)
    weights = [1.0 / (rank + 1) for rank in range(len(locations))]
    for location in rng.choices(locations, weights=weights, k=ZIPF_QUERIES):
        client.discover(location, uncertainty_meters=60.0)
    return {
        "zipf over 24 venues": {
            "queries": ZIPF_QUERIES,
            "cache_hit_rate": federation.resolver.cache.stats.hit_rate,
            "authoritative_exchanges": federation.resolver.stats.authoritative_exchanges,
        }
    }


def empty_region() -> dict:
    """Negative caching keeps 'nothing here' queries cheap too."""
    federation, _ = _discovery_world()
    client = federation.client()
    empty_spot = LatLng(41.2, -78.3)
    return {
        "first query": _discover(federation, client, empty_spot, 60.0),
        "repeat query": _discover(federation, client, empty_spot, 60.0),
    }


CELLS = {"cache_state": cache_state, "zipf": zipf, "empty_region": empty_region}


def bands(t: dict) -> dict[str, bool]:
    cold, warm, expired = (t["cache_state"][state] for state in ("cold", "warm", "after TTL expiry"))
    popular = t["zipf"]["zipf over 24 venues"]
    first, repeat = t["empty_region"]["first query"], t["empty_region"]["repeat query"]
    return {
        f"every cache-state probe discovers >= 1 server: {t['cache_state']}": (
            min(cold["servers_found"], warm["servers_found"], expired["servers_found"]) >= 1
        ),
        f"warm discovery is cheaper than cold in msgs and sim-ms (the DNS cache absorbs the walk): {warm} vs {cold}": (
            warm["messages"] < cold["messages"] and warm["sim_latency_ms"] < cold["sim_latency_ms"]
        ),
        f"discovery after TTL expiry costs more msgs than warm (records die with their TTL): {expired} vs {warm}": (
            expired["messages"] > warm["messages"]
        ),
        f"Zipf workload hit rate > 0.5 over >= 150 queries: {popular}": (
            popular["queries"] >= 150 and popular["cache_hit_rate"] > 0.5
        ),
        f"an empty region finds 0 servers, and negative caching makes the repeat cheaper: {first} then {repeat}": (
            first["servers_found"] == repeat["servers_found"] == 0 and repeat["messages"] < first["messages"]
        ),
    }
