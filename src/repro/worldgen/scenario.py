"""Complete federated scenarios: a city, its stores and a campus, wired up.

A :class:`FederatedScenario` is the standard test-bed used by the examples,
tests and benchmarks: one outdoor city map server (the "world provider"),
several independently operated grocery-store map servers with indoor detail
and localization databases, optionally a campus map server with a restrictive
policy — all registered in one discovery DNS — plus a matching
:class:`repro.centralized.system.CentralizedMapSystem` that has ingested only the
data a centralized provider could realistically obtain (the outdoor map, and
optionally the indoor maps too, for ablations).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.centralized.system import CentralizedMapSystem
from repro.core.config import FederationConfig
from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.mapserver.server import MapServer
from repro.simulation.lru import LruCache
from repro.worldgen.campus import CampusWorld, generate_campus
from repro.worldgen.indoor import IndoorWorld, generate_store
from repro.worldgen.outdoor import CityWorld, generate_city


@dataclass
class FederatedScenario:
    """A fully wired scenario: federation + centralized baseline + worlds."""

    federation: Federation
    centralized: CentralizedMapSystem
    city: CityWorld
    stores: list[IndoorWorld] = field(default_factory=list)
    campus: CampusWorld | None = None
    seed: int = 0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def city_server(self) -> MapServer:
        assert self.federation.world_provider is not None
        return self.federation.world_provider

    def store_server(self, index: int = 0) -> MapServer:
        """The (first replica of the) map server for store ``index``."""
        name = self.stores[index].name
        server = self.federation.servers.get(name)
        if server is not None:
            return server
        group = self.federation.replica_groups.get(name)
        if group is None:
            return self.federation.servers[name]  # raise the original KeyError
        for server_id in group.server_ids:
            replica = self.federation.servers.get(server_id)
            if replica is not None:
                return replica
        raise KeyError(f"every replica of {name!r} is offline")

    def store_replica_ids(self, index: int = 0) -> tuple[str, ...]:
        """All server ids serving store ``index`` (one id without replication)."""
        name = self.stores[index].name
        group = self.federation.replica_groups.get(name)
        if group is not None:
            return group.server_ids
        return (name,)

    @property
    def campus_server(self) -> MapServer | None:
        if self.campus is None:
            return None
        return self.federation.servers.get(self.campus.name)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


_world_memo: LruCache = LruCache(max_entries=16)
"""Generated worlds memoized (bounded LRU) by their full generation parameters.

Opt-in via ``build_scenario(reuse_worlds=True)``: sweeps that stand up many
federations over the *same* deterministic world (the E13 fleet benchmark
builds one per sweep point per cache setting) skip regenerating and
re-indexing identical geometry.  Callers that mutate maps must keep the
default, which generates private worlds."""


def _generate_worlds(
    store_count: int,
    include_campus: bool,
    city_rows: int,
    city_cols: int,
    products_per_store: int,
    seed: int,
) -> tuple[CityWorld, list[IndoorWorld], CampusWorld | None]:
    rng = random.Random(seed)
    city = generate_city(rows=city_rows, cols=city_cols, seed=seed)
    stores: list[IndoorWorld] = []
    for index in range(store_count):
        row = (index * 2 + 1) % max(1, city_rows - 1)
        col = (index * 3 + 1) % max(1, city_cols - 1)
        block_anchor = city.intersections[row][col].location
        store_anchor = block_anchor.destination(90.0, 35.0).destination(0.0, 25.0)
        store_name = f"store-{index}.maps.example"
        street_address = city.address_near(store_anchor)
        stores.append(
            generate_store(
                name=store_name,
                anchor=store_anchor,
                product_count=products_per_store,
                street_address=street_address,
                rotation_degrees=rng.uniform(-10.0, 10.0),
                seed=seed + index + 1,
            )
        )
    campus: CampusWorld | None = None
    if include_campus:
        campus_anchor = city.intersections[city_rows - 2][city_cols - 2].location.destination(90.0, 60.0)
        campus = generate_campus(anchor=campus_anchor, seed=seed + 100)
    return city, stores, campus


def build_scenario(
    store_count: int = 2,
    include_campus: bool = False,
    centralized_ingests_indoor: bool = False,
    city_rows: int = 6,
    city_cols: int = 6,
    products_per_store: int = 60,
    config: FederationConfig | None = None,
    seed: int = 0,
    reuse_worlds: bool = False,
    store_replicas: int = 1,
    store_replica_weights: tuple[int, ...] | None = None,
    store_replica_priorities: tuple[int, ...] | None = None,
) -> FederatedScenario:
    """Build the standard scenario used throughout the experiments.

    ``centralized_ingests_indoor`` models the ablation where organizations
    *do* hand their indoor maps to the centralized provider; the default
    (False) reflects the paper's premise that they will not.

    ``reuse_worlds`` shares the generated (immutable-by-convention) worlds
    between scenarios with identical generation parameters — sweeps that
    rebuild the same deterministic world many times opt in to skip the
    regeneration cost.

    ``store_replicas`` > 1 deploys each store as a replica group (the store
    name becomes the group id, server ids ``r<i>.<name>``): every replica
    advertises the same coverage, so clients can fail over between them
    under churn.  The city world provider is never replicated.
    ``store_replica_weights`` / ``store_replica_priorities`` configure the
    groups' per-replica RFC 2782 values (e.g. a warm standby at priority 1
    that sees traffic only when tier 0 is down).
    """
    if reuse_worlds:
        memo_key = (store_count, include_campus, city_rows, city_cols, products_per_store, seed)
        worlds = _world_memo.lookup(memo_key)
        if worlds is None:
            worlds = _generate_worlds(
                store_count, include_campus, city_rows, city_cols, products_per_store, seed
            )
            _world_memo.store(memo_key, worlds)
        city, stores, campus = worlds
    else:
        city, stores, campus = _generate_worlds(
            store_count, include_campus, city_rows, city_cols, products_per_store, seed
        )

    federation = Federation(config=config or FederationConfig())
    centralized = CentralizedMapSystem(network=federation.network)

    # Outdoor city — the world provider, also fully ingested centrally.
    federation.add_map_server(
        "city.maps.example",
        city.map_data,
        is_world_provider=True,
    )
    centralized.ingest(city.map_data)

    # Grocery stores scattered next to street intersections.
    if store_replicas < 1:
        raise ValueError("store_replicas must be >= 1")
    for store in stores:
        if store_replicas == 1:
            server = federation.add_map_server(store.name, store.map_data)
            store.equip_map_server(server)
        else:
            group = federation.add_replica_group(
                store.name,
                store.map_data,
                replica_count=store_replicas,
                weights=store_replica_weights,
                priorities=store_replica_priorities,
            )
            for server_id in group.server_ids:
                store.equip_map_server(federation.servers[server_id])
        if centralized_ingests_indoor:
            centralized.ingest(store.map_data)

    # Optional campus with the Section 5.3 policy applied.
    if campus is not None:
        federation.add_map_server(
            campus.name,
            campus.map_data,
            policy=campus.recommended_policy(),
        )
        if centralized_ingests_indoor:
            centralized.ingest(campus.map_data)

    centralized.preprocess()
    return FederatedScenario(
        federation=federation,
        centralized=centralized,
        city=city,
        stores=stores,
        campus=campus,
        seed=seed,
    )


def outdoor_point_near(scenario: FederatedScenario, store_index: int = 0, distance_meters: float = 150.0) -> LatLng:
    """A point on the street network roughly ``distance_meters`` from a store.

    Used as the "user standing on the sidewalk" origin of the Section 2
    walkthrough.
    """
    store = scenario.stores[store_index]
    entrance = store.entrance
    graph_vertex = scenario.city_server.routing_service.graph.nearest_vertex(
        entrance.destination(180.0, distance_meters)
    )
    return scenario.city_server.routing_service.graph.location(graph_vertex)
