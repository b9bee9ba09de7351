"""Unit tests for the Federation bootstrap and OpenFlameClient wiring."""

from __future__ import annotations

import pytest

from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.mapserver.auth import Credential
from repro.mapserver.policy import AccessPolicy, ServiceName
from repro.spatialindex.covering import CoveringOptions
from repro.worldgen.indoor import generate_store
from repro.worldgen.outdoor import generate_city

ANCHOR = LatLng(40.44, -79.96)


@pytest.fixture()
def federation() -> Federation:
    return Federation()


class TestFederationLifecycle:
    def test_add_map_server_registers_discovery_records(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        server = federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        assert federation.server_count == 1
        assert federation.world_provider is server
        registration = federation.registration_for("city.example")
        assert registration is not None
        assert registration.record_count > 0
        assert federation.registry.total_records == registration.record_count

    def test_duplicate_server_id_rejected(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        federation.add_map_server("dup.example", city.map_data)
        other = generate_city(rows=3, cols=3, seed=2)
        with pytest.raises(FederationConfigError):
            federation.add_map_server("dup.example", other.map_data)

    def test_custom_policy_attached(self, federation: Federation):
        store = generate_store("locked.example", ANCHOR, seed=5)
        policy = AccessPolicy()
        policy.restrict_to_domain(ServiceName.SEARCH, "owner.com")
        server = federation.add_map_server("locked.example", store.map_data, policy=policy)
        assert server.policy is policy

    def test_custom_config_respected(self):
        config = FederationConfig(
            discovery_suffix="loc.custom.example",
            discovery_level=16,
            registration_covering=CoveringOptions(min_level=12, max_level=16, max_cells=64),
        )
        federation = Federation(config=config)
        assert federation.naming.suffix == "loc.custom.example"
        context = federation.build_context()
        assert context.discoverer.query_level == 16

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"discovery_ancestor_levels": -1}, "discovery_ancestor_levels"),
            ({"discovery_level": 0}, "discovery_level"),
            ({"discovery_level": 99}, "discovery_level"),
            # Finer registrations (default max_level=17) than the query level.
            ({"discovery_level": 15}, "finer than"),
            ({"discovery_level": 16}, "finer than"),
            # The walk would stop at level 15, above min_level=13 registrations.
            ({"discovery_ancestor_levels": 2}, "stops at level 15"),
            ({"device_discovery_cache_ttl_seconds": -1.0}, "device_discovery_cache_ttl_seconds"),
        ],
    )
    def test_inconsistent_discovery_config_rejected(self, overrides, message):
        """Each of these used to be accepted and then silently discover
        nothing (or nothing coarse)."""
        with pytest.raises(ValueError, match=message):
            FederationConfig(**overrides)

    def test_walk_reaching_exactly_the_coarsest_registration_is_accepted(self):
        config = FederationConfig(discovery_ancestor_levels=4)  # 17 - 4 == min_level 13
        assert config.discovery_ancestor_levels == 4

    def test_new_server_discoverable_immediately(self, federation: Federation):
        client = federation.client()
        store = generate_store("popup.example", ANCHOR, seed=6)
        before = client.discover(store.entrance, uncertainty_meters=50.0)
        assert "popup.example" not in before.server_ids
        federation.add_map_server("popup.example", store.map_data)
        # The same client instance sees the new server (subject only to any
        # negative-cache TTL, which we skip past).
        federation.network.clock.advance(120.0)
        after = client.discover(store.entrance, uncertainty_meters=50.0)
        assert "popup.example" in after.server_ids


class TestClientWiring:
    def test_client_shares_network_with_federation(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        client = federation.client()
        before = federation.network.stats.messages_sent
        client.discover(city.bounds.center, uncertainty_meters=40.0)
        assert federation.network.stats.messages_sent > before
        assert client.network_messages == federation.network.stats.messages_sent

    def test_client_credential_passed_to_context(self, federation: Federation):
        credential = Credential(user_id="alice", email="alice@campus.edu")
        client = federation.client(credential)
        assert client.context.credential.user_id == "alice"

    def test_world_provider_used_by_geocoder(self, federation: Federation):
        """The geocoder holds the provider's id and reaches it as a request
        target: one more server consulted, charged as a map-server exchange."""
        city = generate_city(rows=3, cols=3, seed=1)
        federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        client = federation.client()
        assert client.geocoder.world_provider_id == federation.world_provider_id == "city.example"
        before = federation.network.stats.messages_by_kind.get("mapserver.request", 0)
        result = client.reverse_geocode(city.bounds.center)
        assert result.servers_consulted == 2  # the discovered city map, then the provider by id
        assert federation.network.stats.messages_by_kind["mapserver.request"] - before == 2

    def test_reset_network_stats(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        federation.add_map_server("city.example", city.map_data)
        client = federation.client()
        client.discover(city.bounds.center, uncertainty_meters=40.0)
        federation.reset_network_stats()
        assert federation.network.stats.messages_sent == 0

    def test_map_servers_default_to_contraction_routing(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        server = federation.add_map_server("city.example", city.map_data)
        assert server.routing_algorithm == "contraction"
        assert server.routing_service.algorithm == "contraction"

    def test_resolver_pools_share_namespace_with_own_caches(self, federation: Federation):
        city = generate_city(rows=3, cols=3, seed=1)
        federation.add_map_server("city.example", city.map_data)
        pools = federation.resolver_pool(3)
        assert len(pools) == 3
        assert pools[0] is federation.stub_resolver  # pool 0 = default resolver
        assert pools[1].recursive is not pools[2].recursive
        # Asking again returns the same pools (no cache state is thrown away).
        assert federation.resolver_pool(2) == pools[:2]
        # Both pools resolve over the same namespace.
        client_a = federation.client(stub_resolver=pools[1])
        client_b = federation.client(stub_resolver=pools[2])
        location = city.bounds.center
        found_a = client_a.discover(location, uncertainty_meters=40.0)
        found_b = client_b.discover(location, uncertainty_meters=40.0)
        assert found_a.server_ids == found_b.server_ids
        # Each pool warmed its own cache, not the other's.
        assert pools[1].recursive.cache.stats.misses > 0
        assert pools[2].recursive.cache.stats.misses > 0
