"""Invariant tests for registry/zone mutation under arbitrary op sequences.

The control plane made the discovery zone *mutable at runtime*: weights are
re-emitted, records withdrawn and republished while the authority keeps
answering.  These tests drive seeded random interleavings of every mutation
the system performs — ``register_covering`` / ``deregister`` / ``reweight``
at the registry, and crash / lease-expiry / revive / ``set_srv`` at the
federation — and after each sequence check the structural invariants no
interleaving may break:

* ``Zone._name_index`` (and ``_delegations``) match a from-scratch reindex
  computed from the record table alone;
* no endpoint-shadowing records exist: at any (name, SRV) bucket, each
  ``target:port`` appears at most once;
* the registry's ``registrations`` book matches the zone: every registered
  server's records exist with exactly its advertised priority/weight, and
  no record belongs to a server the book forgot.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.discovery.naming import SpatialNaming
from repro.discovery.registry import MAP_SERVER_RECORD_TYPE, DiscoveryRegistry
from repro.dns.records import RecordType, SrvData
from repro.dns.zone import Zone
from repro.geometry.point import LatLng
from repro.spatialindex.cellid import CellId
from repro.worldgen.indoor import generate_store

ANCHOR = LatLng(40.4410, -79.9570)


def reindex_from_scratch(zone: Zone) -> tuple[dict[str, set], set[str]]:
    """Recompute the name index and delegation set from the record table."""
    name_index: dict[str, set] = {}
    delegations: set[str] = set()
    for (name, record_type), bucket in zone._records.items():
        assert bucket, f"empty bucket left behind at {(name, record_type)}"
        name_index.setdefault(name, set()).add(record_type)
        if record_type == RecordType.NS and name != zone.origin:
            delegations.add(name)
    return name_index, delegations


def assert_zone_invariants(registry: DiscoveryRegistry) -> None:
    zone = registry.zone
    # (1) Index/delegations exactly match a from-scratch reindex.
    name_index, delegations = reindex_from_scratch(zone)
    assert dict(zone._name_index) == name_index
    assert set(zone._delegations) == delegations
    # (2) No endpoint shadows anywhere.
    for (name, record_type), bucket in zone._records.items():
        if record_type != MAP_SERVER_RECORD_TYPE:
            continue
        endpoints = [SrvData.decode(record.data).endpoint for record in bucket]
        assert len(endpoints) == len(set(endpoints)), (
            f"endpoint shadowed at {name!r}: {endpoints}"
        )
    # (3) The registration book and the zone agree.
    for server_id, registration in registry.registrations.items():
        expected = SrvData(
            target=registration.target,
            port=registration.port,
            priority=registration.priority,
            weight=registration.weight,
        )
        for cell in registration.cells:
            name = registry.naming.cell_to_name(cell)
            matching = [
                SrvData.decode(record.data)
                for record in zone.records_at(name, MAP_SERVER_RECORD_TYPE)
                if SrvData.decode(record.data).endpoint == expected.endpoint
            ]
            assert matching == [expected], (
                f"{server_id!r} at {name!r}: zone holds {matching}, "
                f"book says {expected}"
            )


def cell_pool(naming: SpatialNaming, size: int = 12) -> list[CellId]:
    """A fixed pool of real cells for coverings to draw from."""
    cells = []
    for i in range(size):
        point = ANCHOR.destination(bearing_degrees=(i * 47) % 360, distance_meters=30.0 * (i + 1))
        cells.append(CellId.from_point(point, 17))
    # De-duplicate while keeping order (nearby points can share a cell).
    return list(dict.fromkeys(cells))


class TestRandomRegistryOps:
    """Seeded random interleavings of every registry mutation."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_invariants_survive_random_op_sequences(self, seed):
        rng = random.Random(seed)
        registry = DiscoveryRegistry()
        pool = cell_pool(registry.naming)
        assert len(pool) >= 6
        next_id = 0

        for _ in range(300):
            op = rng.random()
            registered = sorted(registry.registrations)
            if op < 0.4 or not registered:
                server_id = f"s{next_id}.maps.example"
                next_id += 1
                cells = rng.sample(pool, rng.randint(1, min(5, len(pool))))
                try:
                    registry.register_covering(
                        server_id,
                        cells,
                        priority=rng.randint(0, 2),
                        weight=rng.randint(0, 5),
                        port=rng.choice((443, 8443)),
                    )
                except ValueError:
                    # Shadow guard may fire when a fresh id collides with a
                    # lingering endpoint — rejection must leave no debris,
                    # which the invariant check below verifies.
                    pass
            elif op < 0.7:
                registry.reweight(
                    rng.choice(registered),
                    priority=rng.randint(0, 2) if rng.random() < 0.5 else None,
                    weight=rng.randint(0, 5) if rng.random() < 0.8 else None,
                )
            else:
                registry.deregister(rng.choice(registered))

        assert_zone_invariants(registry)
        # And the zone drains cleanly: removing everything leaves it empty.
        for server_id in sorted(registry.registrations):
            registry.deregister(server_id)
        assert registry.total_records == 0
        assert registry.zone._name_index == {}
        assert_zone_invariants(registry)

    def test_invariants_checked_after_every_single_op(self):
        """A finer-grained sweep: the invariants hold at *every* step of a
        shorter random sequence, not only at the end."""
        rng = random.Random(99)
        registry = DiscoveryRegistry()
        pool = cell_pool(registry.naming)
        next_id = 0
        for _ in range(80):
            op = rng.random()
            registered = sorted(registry.registrations)
            if op < 0.45 or not registered:
                server_id = f"s{next_id}.maps.example"
                next_id += 1
                try:
                    registry.register_covering(
                        server_id,
                        rng.sample(pool, rng.randint(1, 4)),
                        weight=rng.randint(0, 3),
                    )
                except ValueError:
                    pass
            elif op < 0.75:
                registry.reweight(rng.choice(registered), weight=rng.randint(0, 3))
            else:
                registry.deregister(rng.choice(registered))
            assert_zone_invariants(registry)


class TestRandomFederationLifecycleOps:
    """The same invariants under the *federation's* mutation surface:
    set_srv interleaved with crash / lease expiry / revive / leave."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_zone_invariants_survive_lifecycle_interleavings(self, seed):
        rng = random.Random(seed)
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group(
            "shop.example", store.map_data, replica_count=3, weights=(2, 2, 2)
        )
        replicas = list(federation.replica_groups["shop.example"].server_ids)
        for step in range(150):
            server_id = rng.choice(replicas)
            op = rng.random()
            try:
                if op < 0.3:
                    federation.set_srv(
                        server_id,
                        priority=rng.randint(0, 2) if rng.random() < 0.3 else None,
                        weight=rng.randint(0, 4) if rng.random() < 0.9 else None,
                    )
                elif op < 0.45:
                    federation.crash_map_server(server_id)
                elif op < 0.6:
                    federation.expire_registration(server_id)
                elif op < 0.75:
                    federation.revive_map_server(server_id)
                elif op < 0.85:
                    federation.park_map_server(server_id)
                elif op < 0.95:
                    federation.unpark_map_server(server_id)
                else:
                    federation.leave_map_server(server_id)
            except (FederationConfigError, ValueError):
                continue  # inapplicable for the current lifecycle state
            if step % 10 == 0:
                assert_zone_invariants(federation.registry)
        assert_zone_invariants(federation.registry)
        # Whatever the interleaving, every *reachable* replica either has
        # its records at the authority with the advertised values, or was
        # expired/left and re-registers with them on revival.
        for server_id in replicas:
            priority, weight = federation.srv_of(server_id)
            if federation.registration_for(server_id) is not None:
                registration = federation.registry.registrations[server_id]
                assert (registration.priority, registration.weight) == (priority, weight)
            # A parked server's records stay withdrawn no matter which
            # crash/expire/revive path the interleaving took it through.
            if federation.is_parked(server_id):
                assert federation.registration_for(server_id) is None


class TestParkLifecycleInterleavings:
    """Park/unpark vs crash/expire/revive: explicit, rejected-not-corrupting."""

    def _federation(self) -> Federation:
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group(
            "shop.example", store.map_data, replica_count=3, weights=(2, 2, 2)
        )
        return federation

    def test_revive_does_not_resurrect_a_parked_servers_records(self):
        """Regression: park → crash → revive used to re-register the parked
        server (revive saw no registration and 'helpfully' recreated it),
        silently overruling the operator."""
        federation = self._federation()
        federation.park_map_server("r0.shop.example")
        federation.crash_map_server("r0.shop.example")
        federation.revive_map_server("r0.shop.example")
        assert federation.is_parked("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is None
        assert_zone_invariants(federation.registry)
        # The operator's unpark is still what brings the records back.
        federation.unpark_map_server("r0.shop.example")
        assert not federation.is_parked("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is not None

    def test_parking_an_offline_server_is_rejected_without_corruption(self):
        federation = self._federation()
        federation.crash_map_server("r0.shop.example")
        with pytest.raises(FederationConfigError, match="offline"):
            federation.park_map_server("r0.shop.example")
        # The rejection changed nothing: records linger until lease expiry,
        # and the server is not considered parked.
        assert not federation.is_parked("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is not None
        federation.revive_map_server("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is not None

    def test_unparking_an_offline_server_is_rejected_and_state_kept(self):
        federation = self._federation()
        federation.park_map_server("r0.shop.example")
        federation.leave_map_server("r0.shop.example")
        with pytest.raises(FederationConfigError, match="offline"):
            federation.unpark_map_server("r0.shop.example")
        assert federation.is_parked("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is None

    def test_park_expire_interleaving_is_idempotent(self):
        federation = self._federation()
        federation.park_map_server("r0.shop.example")
        # Lease expiry racing the park finds the records already gone.
        assert federation.expire_registration("r0.shop.example") == 0
        assert federation.is_parked("r0.shop.example")
        federation.unpark_map_server("r0.shop.example")
        assert federation.registration_for("r0.shop.example") is not None
        assert_zone_invariants(federation.registry)


class TestReweightMechanics:
    def test_reweight_rewrites_every_record_without_a_window(self):
        registry = DiscoveryRegistry()
        pool = cell_pool(registry.naming)[:4]
        registry.register_covering("a.example", pool, weight=2)
        registry.register_covering("b.example", pool, weight=2)
        before = registry.total_records
        registry.reweight("a.example", weight=0, priority=1)
        # Same record population: one record per (cell, endpoint), new data.
        assert registry.total_records == before
        for cell in pool:
            decoded = {
                SrvData.decode(r.data).target: SrvData.decode(r.data)
                for r in registry.records_for_cell(cell)
            }
            assert decoded["a.example"].weight == 0
            assert decoded["a.example"].priority == 1
            assert decoded["b.example"].weight == 2  # sibling untouched
            # The name never stopped resolving (no NXDOMAIN window): the
            # shared spatial name still exists with both endpoints present.
            name = registry.naming.cell_to_name(cell)
            assert registry.zone.contains_name(name)
        assert registry.registrations["a.example"].weight == 0
        assert_zone_invariants(registry)

    def test_reweight_is_a_noop_for_identical_values(self):
        registry = DiscoveryRegistry()
        pool = cell_pool(registry.naming)[:3]
        registration = registry.register_covering("a.example", pool, weight=2)
        assert registry.reweight("a.example", weight=2) is registration
        assert_zone_invariants(registry)

    def test_reweight_unknown_server_raises(self):
        registry = DiscoveryRegistry()
        with pytest.raises(ValueError, match="not registered"):
            registry.reweight("ghost.example", weight=1)

    def test_deregister_after_reweight_removes_everything(self):
        """A reweighted server's *new* records must be the ones deregister
        withdraws — the old encoded data is gone, so matching is by endpoint,
        not by byte-equal record."""
        registry = DiscoveryRegistry()
        pool = cell_pool(registry.naming)[:3]
        registry.register_covering("a.example", pool, weight=2)
        registry.reweight("a.example", weight=5)
        removed = registry.deregister("a.example")
        assert removed == len(pool)
        assert registry.total_records == 0
        assert_zone_invariants(registry)
