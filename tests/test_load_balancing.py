"""Tests for RFC 2782 replica load balancing and pool-shared health.

Covers the weighted-selection mechanics (distribution, priority tiers,
zero-weight records), the SRV priority/weight plumbing from
``add_replica_group`` through the registry into discovery answers, the
endpoint-shadow guard, the shared-health gossip layer (board TTLs and the
one-timeout-spares-the-pool end-to-end property), the ``replica_load_cv``
balance metric, and the long commuter traces that outlive registration TTLs.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.core.replicas import ReplicaGroup
from repro.dns.records import SrvData
from repro.geometry.point import LatLng
from repro.services.failover import FIRST_HEALTHY, WEIGHTED, rfc2782_order
from repro.services.health import SHARED_HEALTH_TTL_SECONDS, ReplicaHealth, SharedHealthBoard
from repro.services.retry import DEAD_SERVER_TIMEOUT_MS, RetryPolicy
from repro.simulation.clock import SimulatedClock
from repro.simulation.queueing import ServiceTimeModel, load_cv
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.mobility import CommuterTrace
from repro.worldgen.indoor import generate_store
from repro.worldgen.scenario import build_scenario

ANCHOR = LatLng(40.4410, -79.9570)


# ----------------------------------------------------------------------
# RFC 2782 ordering mechanics
# ----------------------------------------------------------------------
class TestRfc2782Order:
    def test_weighted_distribution_three_to_one(self):
        """Weights 3:1 put the heavy replica first ~75% of 10k seeded draws."""
        srv = {"heavy": (0, 3), "light": (0, 1)}
        rng = random.Random(42)
        first = Counter(rfc2782_order(["heavy", "light"], srv, rng)[0] for _ in range(10_000))
        assert first["heavy"] + first["light"] == 10_000
        assert first["heavy"] / 10_000 == pytest.approx(0.75, abs=0.02)

    def test_every_order_is_a_permutation(self):
        srv = {"a": (0, 5), "b": (0, 2), "c": (0, 1)}
        rng = random.Random(7)
        for _ in range(100):
            assert sorted(rfc2782_order(["a", "b", "c"], srv, rng)) == ["a", "b", "c"]

    def test_priority_tiers_are_strict(self):
        """Every tier-0 candidate precedes every tier-1 candidate, always."""
        srv = {"p0a": (0, 1), "p0b": (0, 100), "p1a": (1, 1000), "p1b": (1, 1)}
        rng = random.Random(3)
        for _ in range(500):
            order = rfc2782_order(["p1a", "p0a", "p1b", "p0b"], srv, rng)
            assert {order[0], order[1]} == {"p0a", "p0b"}
            assert {order[2], order[3]} == {"p1a", "p1b"}

    def test_zero_weight_records_are_last_resort(self):
        """A zero-weight record is never picked while weighted ones exist,
        but stays in the chain (RFC 2782's 'no chance unless nothing else')."""
        srv = {"w": (0, 1), "z1": (0, 0), "z2": (0, 0)}
        rng = random.Random(5)
        for _ in range(200):
            order = rfc2782_order(["z1", "w", "z2"], srv, rng)
            assert order[0] == "w"
            assert order[1:] == ["z1", "z2"]  # deterministic id order

    def test_unknown_ids_default_to_tier0_weight0(self):
        rng = random.Random(1)
        assert rfc2782_order(["x", "y"], {}, rng) == ["x", "y"]

    def test_deterministic_per_stream(self):
        srv = {"a": (0, 1), "b": (0, 1), "c": (0, 1)}
        orders = [rfc2782_order(["a", "b", "c"], srv, random.Random(9)) for _ in range(3)]
        assert orders[0] == orders[1] == orders[2]


class TestReplicaGroupWeights:
    def test_defaults_are_equal_positive_weights(self):
        group = ReplicaGroup(group_id="g", server_ids=("r0.g", "r1.g"))
        assert group.weights == (1, 1)
        assert group.priorities == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaGroup(group_id="g", server_ids=("r0.g", "r1.g"), weights=(1,))
        with pytest.raises(ValueError):
            ReplicaGroup(group_id="g", server_ids=("r0.g", "r1.g"), weights=(-1, 1))
        with pytest.raises(ValueError):
            ReplicaGroup(group_id="g", server_ids=("r0.g", "r1.g"), weights=(0, 0))
        with pytest.raises(ValueError):
            ReplicaGroup(group_id="g", server_ids=("r0.g", "r0.g"))

    def test_weight_lookup(self):
        group = ReplicaGroup(
            group_id="g", server_ids=("r0.g", "r1.g"), weights=(3, 1), priorities=(0, 1)
        )
        assert group.weight_of("r1.g") == 1


# ----------------------------------------------------------------------
# SRV emission and the shadow guard
# ----------------------------------------------------------------------
class TestSrvEmission:
    def test_replica_records_carry_weights(self):
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        group = federation.add_replica_group(
            "shop.example", store.map_data, replica_count=2, weights=(3, 1)
        )
        registration = federation.registration_for("r0.shop.example")
        assert registration is not None and registration.weight == 3
        by_target = {}
        for cell in registration.cells:
            for record in federation.registry.records_for_cell(cell):
                srv = SrvData.decode(record.data)
                by_target[srv.target] = (srv.priority, srv.weight)
        assert by_target["r0.shop.example"] == (0, 3)
        assert by_target["r1.shop.example"] == (0, 1)
        assert group.weights == (3, 1)

    def test_weights_survive_crash_and_revival(self):
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group(
            "shop.example", store.map_data, replica_count=2, weights=(3, 1)
        )
        federation.crash_map_server("r0.shop.example")
        federation.expire_registration("r0.shop.example")
        federation.revive_map_server("r0.shop.example")
        registration = federation.registration_for("r0.shop.example")
        assert registration is not None and registration.weight == 3

    def test_srv_data_validation(self):
        with pytest.raises(ValueError):
            SrvData(target="s", weight=-1)
        with pytest.raises(ValueError):
            SrvData(target="s", priority=-1)
        with pytest.raises(ValueError):
            SrvData(target="")
        assert SrvData(target="s", port=80).endpoint == ("s", 80)

    def test_mismatched_weight_count_rejected(self):
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        with pytest.raises(FederationConfigError):
            federation.add_replica_group(
                "shop.example", store.map_data, replica_count=3, weights=(1, 1)
            )

    def test_duplicate_endpoint_cannot_shadow(self):
        """Two registrations for one host:port at a shared spatial name are
        a deployment error, not a bigger replica group."""
        federation = Federation()
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_map_server("shop.example", store.map_data)
        registration = federation.registration_for("shop.example")
        assert registration is not None
        with pytest.raises(ValueError, match="shadow"):
            # A second registration advertising the same host:port at the
            # shared names must be refused, not published as a shadow...
            federation.registry.register_covering(
                "shop-clone.example", list(registration.cells), target="shop.example"
            )
        # ...while a genuinely different endpoint (another port on the same
        # host) registers fine — that really is a second backend.
        federation.registry.register_covering(
            "shop-alt.example", list(registration.cells), target="shop.example", port=8443
        )


# ----------------------------------------------------------------------
# Shared health board
# ----------------------------------------------------------------------
class TestSharedHealthBoard:
    def test_entry_expires_after_ttl(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        board.report_failure("r0")
        clock.advance(SHARED_HEALTH_TTL_SECONDS - 1.0)
        assert board.is_suspect("r0")
        clock.advance(2.0)
        assert not board.is_suspect("r0")

    def test_recovery_clears_entry_for_whole_pool(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        board.report_failure("r0")
        board.report_recovery("r0")
        assert not board.is_suspect("r0")
        assert board.recoveries == 1

    def test_epoch_increments_per_outage(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        board.report_failure("r0")
        assert board.epoch("r0") == 1
        board.report_failure("r0")  # same outage: refreshes, same epoch
        assert board.epoch("r0") == 1
        clock.advance(SHARED_HEALTH_TTL_SECONDS + 1.0)
        board.report_failure("r0")  # new outage after expiry
        assert board.epoch("r0") == 2

    def test_overload_sheds_are_not_gossiped_as_dead(self):
        """A shed request on a live-but-busy replica demotes it for THIS
        device only; the pool board records dead-server timeouts exclusively,
        so backpressure never reads as pool-wide death (or pollutes the
        time-to-detect accounting)."""
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        health = ReplicaHealth(clock=clock, board=board)
        health.record_failure("busy")  # overload shed: dead=False default
        assert not health.is_healthy("busy")  # own demotion holds
        assert not board.is_suspect("busy")  # but no gossip
        health.record_failure("gone", dead=True)  # real timeout
        assert board.is_suspect("gone")

    def test_recovery_racing_ttl_expiry_counts_once_at_most(self):
        """A recovery reported just before the TTL lapses counts; one
        reported after the entry already lapsed must not — the entry expired
        on its own and there is nothing left to recover."""
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        board.report_failure("r0")
        clock.advance(SHARED_HEALTH_TTL_SECONDS - 0.1)
        board.report_recovery("r0")  # races the expiry, wins
        assert board.recoveries == 1
        board.report_failure("r0")
        clock.advance(SHARED_HEALTH_TTL_SECONDS + 0.1)  # entry lapses silently (nobody consulted it)
        board.report_recovery("r0")  # loses the race: no recovery happened
        assert board.recoveries == 1
        assert not board.is_suspect("r0")

    def test_epoch_is_monotone_across_revive_cycles(self):
        """Epochs only ever grow, through any sequence of outage / recovery /
        expiry cycles — a device can always order two pieces of news."""
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        observed = []
        for cycle in range(4):
            board.report_failure("r0")
            observed.append(board.epoch("r0"))
            if cycle % 2 == 0:
                board.report_recovery("r0")  # explicit recovery
            else:
                clock.advance(SHARED_HEALTH_TTL_SECONDS + 1.0)  # silent TTL expiry
                assert not board.is_suspect("r0")
        assert observed == sorted(observed)
        assert len(set(observed)) == len(observed)
        assert board.epoch("r0") == 4

    def test_suspected_at_tracks_the_live_entry_only(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        assert board.suspected_at("r0") is None
        board.report_failure("r0")
        assert board.suspected_at("r0") == clock.now()
        clock.advance(4.0)
        board.report_failure("r0")  # renewal re-stamps the entry
        assert board.suspected_at("r0") == clock.now()
        clock.advance(SHARED_HEALTH_TTL_SECONDS + 1.0)
        assert board.suspected_at("r0") is None  # lapsed with the entry

    def test_shared_health_toggling_mid_run_splits_cleanly(self):
        """Devices built while ``shared_health`` gossip is on share the
        board; devices built without it neither read nor write it — a
        mid-run mix of both configurations never cross-contaminates."""
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        gossiping = ReplicaHealth(clock=clock, board=board)
        solo = ReplicaHealth(clock=clock, board=None)
        gossiping.record_failure("r0", dead=True)
        assert board.is_suspect("r0")
        # The solo device is deaf to the board...
        assert solo.is_healthy("r0")
        # ...and mute toward it: its own timeout posts nothing new.
        epoch_before = board.epoch("r1")
        solo.record_failure("r1", dead=True)
        assert not board.is_suspect("r1")
        assert board.epoch("r1") == epoch_before
        # A solo success must not clear the pool's entry either.
        solo.record_success("r0")
        assert board.is_suspect("r0")
        # A late joiner attached to the board inherits the pool view.
        joiner = ReplicaHealth(clock=clock, board=board)
        assert not joiner.is_healthy("r0")

    def test_member_health_consults_board(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        reporter = ReplicaHealth(clock=clock, board=board)
        listener = ReplicaHealth(clock=clock, board=board)
        reporter.record_failure("r0", dead=True)
        # The listener never saw r0 fail, yet holds it unhealthy via gossip.
        assert not listener.is_healthy("r0")
        # The gossip win is classified exactly once per outage epoch.
        from repro.services.health import KNOWN_DEAD, SHARED_NEWS

        assert listener.consult("r0") == SHARED_NEWS
        assert listener.consult("r0") == KNOWN_DEAD


class TestOwnSuccessOverridesStaleSuspicion:
    """Regression: first-hand success must outrank stale pool gossip.

    Under the engine's concurrent-round clock a pool mate's dead-server
    timeout can be *posted* after this device's success yet stamped at an
    earlier-or-equal simulated instant.  The board consult in ``sort_key`` /
    ``consult`` / ``is_healthy`` used to demote the replica anyway; now a
    device whose own last success is at least as fresh as the board entry
    keeps trusting its own evidence.
    """

    def _pair(self):
        clock = SimulatedClock()
        board = SharedHealthBoard(clock=clock)
        device = ReplicaHealth(clock=clock, board=board)
        mate = ReplicaHealth(clock=clock, board=board)
        return clock, board, device, mate

    def test_fresh_success_overrides_equal_or_older_board_entry(self):
        clock, board, device, mate = self._pair()
        clock.advance(10.0)
        device.record_success("r0")
        # The mate's timeout lands at the same simulated instant (the
        # concurrent-round race): the entry is not fresher than the success.
        mate.record_failure("r0", dead=True)
        assert board.is_suspect("r0")  # pool-wide view: suspect...
        assert device.is_healthy("r0")  # ...but not for this device
        assert device.consult("r0") == "healthy"
        assert device.sort_key("r0")[0] == 0  # sorts with the healthy
        # The mate itself has no such evidence and honours the board.
        assert not mate.is_healthy("r0")

    def test_board_news_fresher_than_success_still_wins(self):
        clock, board, device, mate = self._pair()
        device.record_success("r0")
        clock.advance(1.0)
        mate.record_failure("r0", dead=True)  # strictly newer than success
        assert not device.is_healthy("r0")

    def test_renewed_entry_after_override_lands_as_shared_news(self):
        """An override must not acknowledge the epoch: when the entry is
        re-posted *after* the success, it is genuine news — and counts as a
        zero-cost shared detection exactly once."""
        from repro.services.health import KNOWN_DEAD, SHARED_NEWS

        clock, board, device, mate = self._pair()
        clock.advance(5.0)
        device.record_success("r0")
        mate.record_failure("r0", dead=True)  # same instant: overridden
        assert device.consult("r0") == "healthy"
        clock.advance(2.0)
        mate.record_failure("r0", dead=True)  # renewal, now fresher
        assert device.consult("r0") == SHARED_NEWS
        assert device.consult("r0") == KNOWN_DEAD

    def test_own_failure_discards_the_success_evidence(self):
        clock, board, device, _ = self._pair()
        clock.advance(10.0)
        device.record_success("r0")
        device.record_failure("r0")  # newer first-hand failure
        clock.advance(31.0)  # own cooldown lapses...
        board.report_failure("r0")  # ...but fresh board news arrives
        # The stale success from t=10 must not override the t=41 entry.
        assert not device.is_healthy("r0")


class TestSharedHealthEndToEnd:
    def build(self, shared: bool) -> tuple[Federation, object]:
        config = FederationConfig(
            retry_policy=RetryPolicy.utilization_aware(),
            shared_health=shared,
        )
        federation = Federation(config=config)
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group("shop.example", store.map_data, replica_count=2)
        return federation, store

    def crash_first_pick(self, federation: Federation) -> str:
        probe = federation.client(selection_seed=1)
        victim = probe.context.targets(["r0.shop.example", "r1.shop.example"])[0].candidate_ids[0]
        federation.crash_map_server(victim)
        return victim

    def pool_timeouts(self, federation: Federation, store, devices: int) -> tuple[int, list]:
        clients = [federation.client(selection_seed=1 + i) for i in range(devices)]
        for client in clients:
            client.search("milk", near=store.entrance, radius_meters=150.0)
        timeouts = federation.network.stats.messages_by_kind.get("mapserver.timeout", 0)
        return timeouts, clients

    def test_one_timeout_spares_the_pool(self):
        """With shared health, one device's dead-server timeout teaches the
        whole resolver pool; without it, every unlucky device pays its own."""
        shared_fed, store = self.build(shared=True)
        self.crash_first_pick(shared_fed)
        shared_timeouts, shared_clients = self.pool_timeouts(shared_fed, store, devices=8)

        solo_fed, store = self.build(shared=False)
        self.crash_first_pick(solo_fed)
        solo_timeouts, _ = self.pool_timeouts(solo_fed, store, devices=8)

        assert shared_timeouts == 1
        assert solo_timeouts > shared_timeouts

        own = sum(c.context.failover.dead_detections_own for c in shared_clients)
        gossiped = sum(c.context.failover.dead_detections_shared for c in shared_clients)
        assert own == 1
        assert gossiped >= 1
        # Mean time-to-detect across the pool is far below one timeout.
        detections = [
            ms for c in shared_clients for ms in c.context.failover.detect_ms
        ]
        assert sum(detections) / len(detections) < DEAD_SERVER_TIMEOUT_MS

    def test_board_ttl_lets_revived_replica_win_traffic_back(self):
        federation, store = self.build(shared=True)
        victim = self.crash_first_pick(federation)
        self.pool_timeouts(federation, store, devices=2)
        board = federation.shared_health_board()
        assert board.is_suspect(victim)
        federation.revive_map_server(victim)
        federation.network.clock.advance(SHARED_HEALTH_TTL_SECONDS - 1.0)
        assert board.is_suspect(victim)
        federation.network.clock.advance(2.0)  # past the 30 s entry TTL
        assert not board.is_suspect(victim)
        late = federation.client(selection_seed=99)
        result = late.search("milk", near=store.entrance, radius_meters=150.0)
        assert len(result) > 0
        assert late.context.failover.stale_attempts == 0


# ----------------------------------------------------------------------
# Balance metric and engine integration
# ----------------------------------------------------------------------
class TestLoadCv:
    def test_uniform_is_zero(self):
        assert load_cv([0.2, 0.2, 0.2, 0.2]) == 0.0

    def test_funnel_is_sqrt3(self):
        assert load_cv([0.8, 0.0, 0.0, 0.0]) == pytest.approx(3**0.5)

    def test_degenerate_inputs(self):
        assert load_cv([]) == 0.0
        assert load_cv([0.5]) == 0.0
        assert load_cv([0.0, 0.0]) == 0.0


class TestEngineBalance:
    def engine(self, mode: str) -> WorkloadEngine:
        config = FederationConfig(
            service_times=ServiceTimeModel(default_ms=2.0),
            retry_policy=RetryPolicy.utilization_aware(),
            replica_selection=mode,
        )
        scenario = build_scenario(
            store_count=1, city_rows=4, city_cols=4, config=config, seed=21,
            store_replicas=4, reuse_worlds=True,
        )
        return WorkloadEngine(
            scenario, WorkloadConfig(clients=16, steps=4, seed=3, step_seconds=5.0)
        )

    def test_weighted_spreads_and_first_healthy_funnels(self):
        weighted = self.engine(WEIGHTED).run()
        funneled = self.engine(FIRST_HEALTHY).run()
        assert weighted.replica_load_cv < 0.4
        assert funneled.replica_load_cv > 1.5  # one replica serves, three idle
        served = [
            weighted.server_stats[sid]["served"]
            for sid in weighted.replica_groups["store-0.maps.example"]
        ]
        assert all(count > 0 for count in served)

    def test_balance_lands_in_snapshot(self):
        report = self.engine(WEIGHTED).run()
        snapshot = report.snapshot()
        assert snapshot["balance.replica_load_cv"] == report.replica_load_cv > 0.0


# ----------------------------------------------------------------------
# Commuter traces longer than the TTLs
# ----------------------------------------------------------------------
class TestCommuterTrace:
    STOPS = [ANCHOR, ANCHOR.destination(90.0, 500.0), ANCHOR.destination(0.0, 400.0)]

    def test_dwell_then_travel_loop(self):
        trace = CommuterTrace(list(self.STOPS), dwell_steps=2, step_meters=300.0)
        rng = random.Random(0)
        start = trace.reset(rng)
        assert trace.step(rng) == start  # dwelling
        assert trace.step(rng) == start
        moved = trace.step(rng)
        assert moved.distance_to(start) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CommuterTrace([ANCHOR])
        with pytest.raises(ValueError):
            CommuterTrace(list(self.STOPS), dwell_steps=-1)

    def test_journey_outlives_registration_ttl(self):
        """A commuter's circuit spans multiple TTLs: caches lapse mid-journey
        and the device keeps getting service through re-discovery."""
        config = FederationConfig(
            registration_ttl_seconds=90.0,
            device_discovery_cache_ttl_seconds=90.0,
            retry_policy=RetryPolicy.utilization_aware(),
        )
        scenario = build_scenario(
            store_count=2, city_rows=4, city_cols=4, config=config, seed=21,
            reuse_worlds=True,
        )
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=6, steps=12, seed=3, step_seconds=30.0,
                long_traces=True, trace_dwell_steps=2,
            ),
        )
        assert any(
            isinstance(device.mobility, CommuterTrace) for device in engine.fleet
        )
        report = engine.run()
        # The run spans 12 x 30s = 360s of simulated time: several 90s device
        # cache lifetimes and multiple 90s record TTLs.
        assert report.simulated_seconds > 3 * config.registration_ttl_seconds
        assert report.requests > 0
        assert report.failed_requests == 0
        # Device caches lapsed and were refilled: misses keep accruing after
        # the warm-up round, so the hit rate stays strictly below a
        # never-expiring cache's.
        assert 0.0 < report.discovery_cache_hit_rate < 0.95

    def test_long_trace_run_is_deterministic(self):
        def one_run():
            config = FederationConfig(device_discovery_cache_ttl_seconds=30.0)
            scenario = build_scenario(
                store_count=2, city_rows=4, city_cols=4, config=config, seed=21,
                reuse_worlds=True,
            )
            engine = WorkloadEngine(
                scenario,
                WorkloadConfig(clients=5, steps=6, seed=8, step_seconds=30.0, long_traces=True),
            )
            return engine.run().snapshot()

        assert one_run() == one_run()
