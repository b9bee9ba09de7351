"""Unit tests for DNS zones and authoritative servers."""

from __future__ import annotations

import pytest

from repro.dns.message import Question, ResponseCode
from repro.dns.records import RecordType, ResourceRecord
from repro.dns.server import NameServer
from repro.dns.zone import Zone, ZoneError


@pytest.fixture()
def zone() -> Zone:
    z = Zone(origin="maps.example")
    z.add("maps.example", RecordType.SOA, "admin.maps.example")
    z.add("city.maps.example", RecordType.A, "10.0.0.1")
    z.add("city.maps.example", RecordType.TXT, "city map server")
    z.add("alias.maps.example", RecordType.CNAME, "city.maps.example")
    # Delegation of the "stores" subtree, with in-bailiwick glue.
    z.add("stores.maps.example", RecordType.NS, "ns.stores.maps.example")
    z.add("ns.stores.maps.example", RecordType.A, "10.0.0.53")
    return z


class TestZone:
    def test_records_at_exact_name(self, zone: Zone):
        records = zone.records_at("city.maps.example", RecordType.A)
        assert len(records) == 1
        assert records[0].data == "10.0.0.1"

    def test_records_at_any_type(self, zone: Zone):
        records = zone.records_at("city.maps.example")
        assert {r.record_type for r in records} == {RecordType.A, RecordType.TXT}

    def test_out_of_zone_record_rejected(self, zone: Zone):
        with pytest.raises(ZoneError):
            zone.add("other.example", RecordType.A, "1.1.1.1")

    def test_duplicate_record_deduplicated(self, zone: Zone):
        before = zone.record_count
        zone.add("city.maps.example", RecordType.A, "10.0.0.1")
        assert zone.record_count == before

    def test_covering_delegation(self, zone: Zone):
        assert zone.covering_delegation("a.stores.maps.example") == "stores.maps.example"
        assert zone.covering_delegation("city.maps.example") is None

    def test_contains_name(self, zone: Zone):
        assert zone.contains_name("city.maps.example")
        assert not zone.contains_name("ghost.maps.example")

    def test_names(self, zone: Zone):
        assert "city.maps.example" in zone.names()


class TestZoneMembership:
    @pytest.mark.parametrize(
        "name, inside",
        [
            ("maps.example", True),
            ("MAPS.Example.", True),
            ("city.maps.example", True),
            ("a.b.stores.maps.example", True),
            ("example", False),
            ("othermaps.example", False),
            ("maps.example.org", False),
        ],
    )
    def test_in_zone_is_label_suffix_match(self, zone: Zone, name: str, inside: bool):
        assert zone.in_zone(name) is inside

    def test_add_record_stores_the_record_as_given(self, zone: Zone):
        record = ResourceRecord("shop.maps.example", RecordType.A, "10.0.0.9", 42.0)
        zone.add_record(record)
        assert zone.records_at("shop.maps.example") == [record]
        assert zone.records_at("shop.maps.example")[0].ttl_seconds == 42.0

    def test_add_uses_the_zone_default_ttl(self):
        zone = Zone(origin="maps.example", default_ttl=17.0)
        assert zone.add("x.maps.example", RecordType.A, "10.0.0.2").ttl_seconds == 17.0
        assert zone.add("y.maps.example", RecordType.A, "10.0.0.3", ttl=5.0).ttl_seconds == 5.0

    def test_delegation_records_are_the_child_ns_set(self, zone: Zone):
        zone.add("stores.maps.example", RecordType.NS, "ns2.stores.maps.example")
        records = zone.delegation_records("stores.maps.example")
        assert {r.data for r in records} == {"ns.stores.maps.example", "ns2.stores.maps.example"}
        assert zone.delegation_records("city.maps.example") == []

    def test_apex_ns_is_not_a_delegation(self, zone: Zone):
        zone.add("maps.example", RecordType.NS, "ns.maps.example")
        assert zone.covering_delegation("city.maps.example") is None
        assert zone.covering_delegation("x.stores.maps.example") == "stores.maps.example"

    def test_record_count_counts_every_record(self, zone: Zone):
        before = zone.record_count
        zone.add("city.maps.example", RecordType.A, "10.0.0.2")
        assert zone.record_count == before + 1


class TestZoneSurgicalRemoval:
    """Record removal must keep the name index and delegation state exact,
    so a deregistered server stops resolving at the authority immediately
    (only caches may stay stale)."""

    def test_remove_one_record_keeps_siblings(self):
        zone = Zone(origin="maps.example")
        first = zone.add("cell.maps.example", RecordType.SRV, "0 0 443 r0.shop")
        zone.add("cell.maps.example", RecordType.SRV, "0 0 443 r1.shop")
        assert zone.remove_record(first)
        remaining = zone.records_at("cell.maps.example", RecordType.SRV)
        assert [r.data for r in remaining] == ["0 0 443 r1.shop"]
        assert zone.contains_name("cell.maps.example")

    def test_removing_last_record_clears_name_immediately(self):
        zone = Zone(origin="maps.example")
        record = zone.add("cell.maps.example", RecordType.SRV, "0 0 443 r0.shop")
        assert zone.remove_record(record)
        assert not zone.contains_name("cell.maps.example")
        assert "cell.maps.example" not in zone.names()
        # The authority answers NXDOMAIN at once — no ghost records.
        server = NameServer(server_id="ns", zones={"maps.example": zone})
        response = server.handle(Question("cell.maps.example", RecordType.SRV))
        assert response.code == ResponseCode.NXDOMAIN

    def test_removing_last_ns_clears_delegation_walk(self):
        zone = Zone(origin="maps.example")
        ns1 = zone.add("child.maps.example", RecordType.NS, "ns1.example")
        ns2 = zone.add("child.maps.example", RecordType.NS, "ns2.example")
        assert zone.covering_delegation("deep.child.maps.example") == "child.maps.example"
        zone.remove_record(ns1)
        # One NS left: the delegation must survive.
        assert zone.covering_delegation("deep.child.maps.example") == "child.maps.example"
        zone.remove_record(ns2)
        assert zone.covering_delegation("deep.child.maps.example") is None

    def test_remove_missing_record_is_false(self):
        zone = Zone(origin="maps.example")
        ghost = ResourceRecord("cell.maps.example", RecordType.SRV, "0 0 443 nobody")
        assert not zone.remove_record(ghost)


class TestNameServer:
    @pytest.fixture()
    def server(self, zone: Zone) -> NameServer:
        ns = NameServer(server_id="ns.maps.example")
        ns.host_zone(zone)
        return ns

    def test_authoritative_answer(self, server: NameServer):
        response = server.handle(Question("city.maps.example", RecordType.A))
        assert response.code == ResponseCode.NOERROR
        assert response.authoritative
        assert response.answers[0].data == "10.0.0.1"

    def test_nxdomain_for_unknown_name(self, server: NameServer):
        response = server.handle(Question("ghost.maps.example", RecordType.A))
        assert response.code == ResponseCode.NXDOMAIN

    def test_nodata_for_known_name_wrong_type(self, server: NameServer):
        response = server.handle(Question("city.maps.example", RecordType.SRV))
        assert response.code == ResponseCode.NOERROR
        assert response.answers == []
        assert not response.is_referral

    def test_refused_outside_hosted_zones(self, server: NameServer):
        response = server.handle(Question("elsewhere.org", RecordType.A))
        assert response.code == ResponseCode.REFUSED

    def test_referral_below_delegation(self, server: NameServer):
        response = server.handle(Question("a.stores.maps.example", RecordType.A))
        assert response.is_referral
        assert response.authority[0].data == "ns.stores.maps.example"
        # Glue for the delegated server is included when available.
        assert any(r.record_type == RecordType.A for r in response.additional)

    def test_cname_chased_within_zone(self, server: NameServer):
        response = server.handle(Question("alias.maps.example", RecordType.A))
        types = {r.record_type for r in response.answers}
        assert RecordType.CNAME in types
        assert RecordType.A in types

    def test_query_counter(self, server: NameServer):
        server.handle(Question("city.maps.example", RecordType.A))
        server.handle(Question("city.maps.example", RecordType.A))
        assert server.queries_served == 2

    def test_most_specific_zone_wins(self, zone: Zone):
        child = Zone(origin="stores.maps.example")
        child.add("a.stores.maps.example", RecordType.A, "10.1.1.1")
        server = NameServer(server_id="ns")
        server.host_zone(zone)
        server.host_zone(child)
        response = server.handle(Question("a.stores.maps.example", RecordType.A))
        assert response.answers and response.answers[0].data == "10.1.1.1"

    def test_zone_for_picks_the_longest_hosted_origin(self, zone: Zone):
        child = Zone(origin="stores.maps.example")
        server = NameServer(server_id="ns")
        server.host_zone(zone)
        server.host_zone(child)
        assert server.zone_for("a.stores.maps.example") is child
        assert server.zone_for("stores.maps.example") is child
        assert server.zone_for("city.maps.example") is zone
        assert server.zone_for("elsewhere.org") is None

    def test_host_zone_replaces_the_same_origin(self, server: NameServer):
        fresh = Zone(origin="maps.example")
        fresh.add("city.maps.example", RecordType.A, "10.9.9.9")
        server.host_zone(fresh)
        response = server.handle(Question("city.maps.example", RecordType.A))
        assert [r.data for r in response.answers] == ["10.9.9.9"]
