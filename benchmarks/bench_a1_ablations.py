"""A1 — Section 5.1 design choices: the two ablations of the discovery design.

The device-side discovery cache (a client keeps per-cell results for a short
TTL on top of the resolver's DNS cache): how much of the federated overhead
measured in E2/E3 it removes for a user who stays in one place.

The discovery naming level: coarser cells mean fewer DNS names and lookups
but more false-positive server contacts; finer cells the reverse.  This is
the central tuning knob of the §5.1 naming scheme.
"""

from __future__ import annotations

from repro.core.config import FederationConfig
from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.spatialindex.covering import CoveringOptions
from repro.worldgen.indoor import generate_store
from repro.worldgen.outdoor import generate_city

ANCHOR = LatLng(40.4420, -79.9580)
REPEATS = 20
PROBES = 24


def _small_world(config: FederationConfig) -> tuple[Federation, LatLng]:
    federation = Federation(config=config)
    city = generate_city(rows=4, cols=4, seed=5)
    federation.add_map_server("city.maps.example", city.map_data, is_world_provider=True)
    store = generate_store("store.maps.example", ANCHOR, seed=6)
    server = federation.add_map_server("store.maps.example", store.map_data)
    store.equip_map_server(server)
    return federation, store.entrance


def device_cache() -> dict:
    """Repeated same-place discovery with and without the device-side cache."""
    rows = {}
    for configuration, ttl in (("no device cache", 0.0), ("device cache (60 s TTL)", 60.0)):
        federation, entrance = _small_world(FederationConfig(device_discovery_cache_ttl_seconds=ttl))
        client = federation.client()
        client.discover(entrance, uncertainty_meters=60.0)  # the stated warm-up: resolver and device caches filled
        federation.reset_network_stats()
        for _ in range(REPEATS):
            client.discover(entrance, uncertainty_meters=60.0)
        rows[configuration] = {
            "discoveries": REPEATS,
            "msgs_per_discovery": federation.network.stats.messages_sent / REPEATS,
            "sim_latency_ms": federation.network.stats.total_latency_ms / REPEATS,
        }
    return rows


def naming_level() -> dict:
    """Sweep the discovery/registration cell level (the §5.1 naming granularity)."""
    rows = {}
    for level in (14, 16, 18):
        config = FederationConfig(
            discovery_level=level,
            discovery_ancestor_levels=max(4, level - 10),
            registration_covering=CoveringOptions(min_level=max(10, level - 4), max_level=level, max_cells=64),
        )
        federation, entrance = _small_world(config)
        client = federation.client()
        # Cost: DNS records published + messages for a cold discovery.
        federation.resolver.cache.flush()
        federation.reset_network_stats()
        found = client.discover(entrance, uncertainty_meters=60.0)
        cold_messages = federation.network.stats.messages_sent
        # Precision: how often a probe 250 m away still discovers the store
        # (a false positive the client must filter).
        false_positives = sum(
            "store.maps.example"
            in client.discover(entrance.destination(360.0 * index / PROBES, 250.0), uncertainty_meters=10.0).server_ids
            for index in range(PROBES)
        )
        rows[str(level)] = {
            "dns_records": federation.registry.total_records,
            "cold_discovery_msgs": cold_messages,
            "servers_found": len(found.server_ids),
            "probes": PROBES,
            "false_positive_rate_250m": false_positives / PROBES,
        }
    return rows


CELLS = {"device_cache": device_cache, "naming_level": naming_level}


def bands(t: dict) -> dict[str, bool]:
    bare, cached = t["device_cache"]["no device cache"], t["device_cache"]["device cache (60 s TTL)"]
    coarse, fine = t["naming_level"]["14"], t["naming_level"]["18"]
    return {
        f"the device cache cuts repeat-discovery msgs, >= 20 discoveries each: {cached} vs {bare}": (
            min(bare["discoveries"], cached["discoveries"]) >= 20
            and cached["msgs_per_discovery"] < bare["msgs_per_discovery"]
        ),
        **{
            f"at naming level {level} a discovery at the store's door finds a server: {row}": row["servers_found"] >= 1
            for level, row in t["naming_level"].items()
        },
        f"finer names sweep in no more false positives 250 m out, >= 24 probes each: level 18 {fine} vs 14 {coarse}": (
            min(coarse["probes"], fine["probes"]) >= 24
            and fine["false_positive_rate_250m"] <= coarse["false_positive_rate_250m"]
        ),
    }
