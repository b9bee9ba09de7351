"""Edge-case tests for the federated services and their context."""

from __future__ import annotations

import pytest

from repro.core.federation import Federation
from repro.geometry.point import LatLng
from repro.mapserver.auth import Credential
from repro.services.context import FederationContext
from repro.worldgen.indoor import generate_store
from repro.worldgen.outdoor import generate_city

ANCHOR = LatLng(40.4415, -79.9575)


class TestContextEdgeCases:
    def _context(self) -> tuple[Federation, FederationContext]:
        federation = Federation()
        city = generate_city(rows=3, cols=3, seed=4)
        federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        return federation, federation.build_context()

    def test_unreachable_discovered_servers_are_skipped(self):
        federation, context = self._context()
        # Simulate a stale DNS record: a server registered but no longer deployed.
        federation.registry.register_covering(
            "stale.example",
            [__import__("repro.spatialindex.cellid", fromlist=["CellId"]).CellId.from_point(ANCHOR, 17)],
        )
        # With no retry policy there is no failover chain to time out on, so
        # the unreachable id is dropped from the request targets.
        assert context.retry_policy is None
        targets = context.targets(["city.example", "stale.example"])
        assert [target.candidate_ids for target in targets] == [("city.example",)]

    def test_context_credential_default_is_anonymous(self):
        _, context = self._context()
        assert context.credential.is_anonymous


class TestFederatedServiceEdgeCases:
    @pytest.fixture()
    def small_federation(self) -> Federation:
        federation = Federation()
        city = generate_city(rows=3, cols=3, seed=4)
        federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        return federation

    def test_search_with_no_matches_is_empty_not_error(self, small_federation):
        client = small_federation.client()
        center = small_federation.servers["city.example"].map_data.bounding_box().center
        result = client.search("quantum flux capacitor", near=center, radius_meters=400.0)
        assert len(result) == 0
        assert result.servers_consulted >= 1

    def test_search_with_empty_query_is_empty(self, small_federation):
        client = small_federation.client()
        center = small_federation.servers["city.example"].map_data.bounding_box().center
        result = client.search("   ", near=center, radius_meters=400.0)
        assert len(result) == 0

    def test_geocode_without_world_provider_still_answers_from_discovered_maps(self):
        federation = Federation()
        store = generate_store("lonely-store.example", ANCHOR, seed=9, street_address="1 Nowhere Lane")
        federation.add_map_server("lonely-store.example", store.map_data)
        client = federation.client()
        # Without a world provider the coarse stage is skipped entirely and
        # only the world provider-independent path can answer; with nothing to
        # discover from a text query, the result is empty rather than an error.
        result = client.geocode("lonely-store.example entrance")
        assert result.coarse_location is None
        assert result.best is None

    def test_localize_with_no_cues_far_from_servers(self, small_federation):
        from repro.localization.cues import CueBundle

        client = small_federation.client()
        result = client.localize(LatLng(10.0, 10.0), CueBundle())
        assert result.best is None
        assert result.candidates == ()

    def test_denied_servers_are_skipped_not_fatal(self):
        from repro.mapserver.policy import AccessPolicy, ServiceName

        federation = Federation()
        city = generate_city(rows=3, cols=3, seed=4)
        federation.add_map_server("city.example", city.map_data, is_world_provider=True)
        locked_policy = AccessPolicy()
        locked_policy.restrict_to_domain(ServiceName.SEARCH, "owner.example")
        store = generate_store("locked-store.example", city.intersections[1][1].location, seed=10)
        federation.add_map_server("locked-store.example", store.map_data, policy=locked_policy)

        client = federation.client()  # anonymous
        result = client.search("seaweed", near=store.entrance, radius_meters=300.0)
        assert not any(r.map_name == store.map_data.metadata.name for r in result.results)

        owner_client = federation.client(Credential(email="boss@owner.example"))
        owner_result = owner_client.search("seaweed", near=store.entrance, radius_meters=300.0)
        assert any(r.map_name == store.map_data.metadata.name for r in owner_result.results)
