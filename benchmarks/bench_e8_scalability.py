"""E8 — Section 1: scalability of map management under federation.

The paper argues that federation lets map management scale because each
organization registers and maintains only its own map.  This experiment
counts the work the N-th organization causes: under federation, the DNS
records its own registration publishes (and what discovery then costs a
client as independent maps multiply); under the centralized model, the whole
world re-ingested and re-indexed, because the pipeline of Figure 1 runs over
the merged map.  Work is counted in items, not host seconds: preprocessing
host time is perfbench's to measure (``mapserver.route_self_s``).
"""

from __future__ import annotations

import random

from repro.centralized.system import CentralizedMapSystem
from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.geometry.polygon import Polygon
from repro.osm.builder import MapBuilder

ANCHOR = LatLng(40.40, -79.99)
SIZES = (10, 50, 150)
PROBES = 20


def _venue_map(index: int, rng: random.Random):
    anchor = ANCHOR.destination(rng.uniform(0, 360), rng.uniform(50.0, 4_000.0))
    builder = MapBuilder(name=f"venue-{index}")
    entrance = builder.add_node(anchor, {"name": f"venue {index} entrance", "entrance": "main"})
    other = builder.add_node(anchor.destination(45.0, 20.0), {"name": f"venue {index} hall"})
    builder.add_way([entrance, other], {"indoor_path": "yes"})
    map_data = builder.build()
    map_data.set_coverage(Polygon.regular(anchor, 40.0, sides=6))
    return map_data, anchor


def federation_growth() -> dict:
    rng = random.Random(0)
    rows = {}
    for server_count in SIZES:
        federation = Federation()
        locations = []
        largest_registration = 0
        for index in range(server_count):
            records_before = federation.registry.total_records
            map_data, anchor = _venue_map(index, rng)
            federation.add_map_server(f"venue-{index}.example", map_data)
            locations.append(anchor)
            largest_registration = max(largest_registration, federation.registry.total_records - records_before)
        client = federation.client()
        federation.reset_network_stats()
        found = sum(
            len(client.discover(rng.choice(locations), uncertainty_meters=60.0).server_ids) for _ in range(PROBES)
        )
        rows[str(server_count)] = {
            "dns_records": federation.registry.total_records,
            "records_per_server": federation.registry.total_records / server_count,
            "max_records_per_newcomer": largest_registration,
            "probes": PROBES,
            "msgs_per_discovery": federation.network.stats.messages_sent / PROBES,
            "mean_servers_found": found / PROBES,
        }
    return rows


def centralized_growth() -> dict:
    """The centralized counterpart: every new organization forces re-ingestion.

    Keeping the central database current costs the *total* data volume, not
    the size of the newcomer's map: ``ingest`` invalidates the preprocessed
    data and the pipeline runs over the whole merged world again.
    """
    rng = random.Random(3)
    rows = {}
    for organization_count in SIZES:
        central = CentralizedMapSystem(use_contraction_hierarchy=False)
        for index in range(organization_count):
            central.ingest(_venue_map(index, rng)[0])
        report = central.preprocess().report
        rows[str(organization_count)] = {
            "world_nodes": central.world_map.node_count,
            "reindexed_for_newcomer": report.graph_vertices + report.geocode_entries + report.search_entries,
        }
    return rows


CELLS = {"federation_growth": federation_growth, "centralized_growth": centralized_growth}


def bands(t: dict) -> dict[str, bool]:
    small, large = t["federation_growth"]["10"], t["federation_growth"]["150"]
    few, many = t["centralized_growth"]["10"], t["centralized_growth"]["150"]
    return {
        f"DNS records per server stay within 2x from 10 to 150 servers: {small} -> {large}": (
            large["records_per_server"] <= small["records_per_server"] * 2.0
        ),
        "discovery cost stays within 3x from 10 to 150 servers, over >= 20 probes finding >= 1 server each: "
        f"{small} -> {large}": (
            min(small["probes"], large["probes"]) >= 20
            and large["msgs_per_discovery"] <= small["msgs_per_discovery"] * 3.0
            and small["mean_servers_found"] >= 1.0
        ),
        **{
            f"no registration into a {size}-server federation publishes more than its own 1..4 DNS records "
            f"(a 40 m venue straddles at most 2x2 cells): {row}": 1 <= row["max_records_per_newcomer"] <= 4
            for size, row in t["federation_growth"].items()
        },
        f"centralized re-indexing per newcomer is the whole world, >= 10x from 10 to 150 organizations: {few} {many}": (
            many["reindexed_for_newcomer"] >= 10 * few["reindexed_for_newcomer"] > 0
        ),
    }
