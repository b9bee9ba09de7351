"""Tests for the federation churn subsystem.

Covers the churn schedule/controller lifecycle, replica groups and
client-side failover (retry policies, health tracking, dead-server
timeouts), the multi-worker server queue, and the end-to-end scenario the
subsystem exists for: a server crashes mid-run, clients fail over to a
replica, caches expire on schedule under the rewinding round clock, and the
crashed server's re-registration is rediscovered within one TTL.
"""

from __future__ import annotations

import pytest

from repro.churn import ChurnController, ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.core.config import FederationConfig
from repro.core.errors import FederationConfigError
from repro.core.federation import Federation
from repro.core.replicas import replica_server_id
from repro.dns.records import SrvData
from repro.geometry.point import LatLng
from repro.services.health import ReplicaHealth
from repro.services.retry import RetryPolicy
from repro.simulation.clock import SimulatedClock
from repro.simulation.network import SimulatedNetwork
from repro.simulation.queueing import ServerOverloadedError, ServerQueue, ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.indoor import generate_store
from repro.worldgen.scenario import build_scenario

ANCHOR = LatLng(40.4410, -79.9570)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestChurnSchedule:
    SERVERS = ["alpha.example", "beta.example", "gamma.example"]

    def test_poisson_deterministic(self):
        def make(seed):
            return ChurnSchedule.poisson(
                self.SERVERS, rate_per_minute=4.0, horizon_seconds=600.0, seed=seed
            )

        assert make(1).events == make(1).events
        assert make(1).events != make(2).events

    def test_events_sorted_and_paired(self):
        schedule = ChurnSchedule.poisson(
            self.SERVERS, rate_per_minute=6.0, horizon_seconds=600.0,
            downtime_seconds=30.0, seed=3,
        )
        assert len(schedule) > 0
        times = [event.at_seconds for event in schedule]
        assert times == sorted(times)
        # Every failure is followed by exactly one rejoin 30s later.
        failures = [e for e in schedule if e.kind != ChurnEventKind.JOIN]
        joins = [e for e in schedule if e.kind == ChurnEventKind.JOIN]
        assert len(failures) == len(joins)
        join_times = {(e.server_id, e.at_seconds) for e in joins}
        for failure in failures:
            assert (failure.server_id, failure.at_seconds + 30.0) in join_times

    def test_never_fails_a_server_that_is_down(self):
        schedule = ChurnSchedule.poisson(
            ["solo.example"], rate_per_minute=60.0, horizon_seconds=600.0,
            downtime_seconds=120.0, seed=7,
        )
        down_until = 0.0
        for event in schedule:
            if event.kind == ChurnEventKind.JOIN:
                continue
            assert event.at_seconds >= down_until
            down_until = event.at_seconds + 120.0

    def test_zero_rate_or_no_servers_is_empty(self):
        assert len(ChurnSchedule.poisson([], 5.0, 100.0)) == 0
        assert len(ChurnSchedule.poisson(self.SERVERS, 0.0, 100.0)) == 0

    def test_crash_fraction_zero_gives_leaves(self):
        schedule = ChurnSchedule.poisson(
            self.SERVERS, rate_per_minute=6.0, horizon_seconds=600.0,
            crash_fraction=0.0, seed=1,
        )
        failures = [e for e in schedule if e.kind != ChurnEventKind.JOIN]
        assert failures and all(e.kind == ChurnEventKind.LEAVE for e in failures)

    def test_from_events_sorts(self):
        schedule = ChurnSchedule.from_events([
            ChurnEvent(20.0, ChurnEventKind.JOIN, "a"),
            ChurnEvent(5.0, ChurnEventKind.CRASH, "a"),
        ])
        assert [e.at_seconds for e in schedule] == [5.0, 20.0]
        assert schedule.horizon_seconds == 20.0
        assert schedule.servers == ("a",)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, ChurnEventKind.CRASH, "a")
        with pytest.raises(ValueError):
            ChurnSchedule.poisson(self.SERVERS, -1.0, 100.0)
        with pytest.raises(ValueError):
            ChurnSchedule.poisson(self.SERVERS, 1.0, 100.0, downtime_seconds=0.0)
        with pytest.raises(ValueError):
            ChurnSchedule.poisson(self.SERVERS, 1.0, 100.0, crash_fraction=1.5)


# ----------------------------------------------------------------------
# Retry policies and health
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_immediate_never_waits(self):
        policy = RetryPolicy.immediate()
        assert policy.delay_ms(1) == 0.0
        assert policy.delay_ms(3, utilization=0.9) == 0.0

    def test_exponential_grows_and_caps(self):
        policy = RetryPolicy.exponential(base_delay_ms=10.0, multiplier=2.0, max_delay_ms=35.0)
        assert policy.delay_ms(1) == 10.0
        assert policy.delay_ms(2) == 20.0
        assert policy.delay_ms(3) == 35.0  # capped

    def test_utilization_scales_backoff(self):
        policy = RetryPolicy.utilization_aware(base_delay_ms=10.0, max_delay_ms=10_000.0)
        calm = policy.delay_ms(1, utilization=0.0)
        hot = policy.delay_ms(1, utilization=0.9)
        assert hot > calm
        assert hot == pytest.approx(10.0 / 0.1)
        # Dead server (utilization 1.0) is clamped, not infinite.
        assert policy.delay_ms(1, utilization=1.0) == pytest.approx(10.0 / 0.05)

    def test_no_delay_before_first_failure(self):
        assert RetryPolicy.exponential().delay_ms(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(kind="bogus")
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestReplicaHealth:
    def test_failure_demotes_until_cooldown(self):
        clock = SimulatedClock()
        health = ReplicaHealth(clock=clock, cooldown_seconds=30.0)
        assert health.is_healthy("r0")
        health.record_failure("r0")
        assert not health.is_healthy("r0")
        clock.advance(31.0)
        assert health.is_healthy("r0")
        # Serving out the demotion wipes the slate: a rejoined replica must
        # win traffic back rather than stay demoted by old history.
        assert health.failure_count("r0") == 0

    def test_success_rehabilitates_immediately(self):
        clock = SimulatedClock()
        health = ReplicaHealth(clock=clock, cooldown_seconds=30.0)
        health.record_failure("r0")
        health.record_success("r0")
        assert health.is_healthy("r0")
        assert health.failure_count("r0") == 0

    def test_sort_key_prefers_healthy_then_fewest_failures(self):
        clock = SimulatedClock()
        health = ReplicaHealth(clock=clock, cooldown_seconds=30.0)
        health.record_failure("r0")
        order = sorted(["r0", "r1"], key=health.sort_key)
        assert order == ["r1", "r0"]


# ----------------------------------------------------------------------
# Federation lifecycle + replica groups
# ----------------------------------------------------------------------
@pytest.fixture()
def federation() -> Federation:
    return Federation()


def deploy_store(federation: Federation, name: str = "churnstore.example", seed: int = 4):
    store = generate_store(name, ANCHOR, seed=seed)
    federation.add_map_server(name, store.map_data)
    return store


class TestFederationChurnLifecycle:
    def test_crash_keeps_records_but_unreaches_server(self, federation: Federation):
        deploy_store(federation)
        records_before = federation.registry.total_records
        federation.crash_map_server("churnstore.example")
        assert "churnstore.example" not in federation.servers
        assert federation.is_offline("churnstore.example")
        assert federation.registry.total_records == records_before
        assert federation.registration_for("churnstore.example") is not None

    def test_leave_withdraws_records_immediately(self, federation: Federation):
        deploy_store(federation)
        federation.leave_map_server("churnstore.example")
        assert federation.registry.total_records == 0
        assert federation.is_offline("churnstore.example")

    def test_revive_after_crash_keeps_registration(self, federation: Federation):
        deploy_store(federation)
        federation.crash_map_server("churnstore.example")
        server = federation.revive_map_server("churnstore.example")
        assert federation.servers["churnstore.example"] is server
        assert federation.registration_for("churnstore.example") is not None
        assert not federation.is_offline("churnstore.example")

    def test_revive_after_lease_expiry_reregisters(self, federation: Federation):
        deploy_store(federation)
        federation.crash_map_server("churnstore.example")
        federation.expire_registration("churnstore.example")
        assert federation.registration_for("churnstore.example") is None
        assert federation.registry.total_records == 0
        federation.revive_map_server("churnstore.example")
        assert federation.registration_for("churnstore.example") is not None
        assert federation.registry.total_records > 0

    def test_lifecycle_errors(self, federation: Federation):
        with pytest.raises(FederationConfigError):
            federation.crash_map_server("ghost.example")
        with pytest.raises(FederationConfigError):
            federation.leave_map_server("ghost.example")
        with pytest.raises(FederationConfigError):
            federation.revive_map_server("ghost.example")

    def test_offline_servers_listed(self, federation: Federation):
        deploy_store(federation)
        federation.crash_map_server("churnstore.example")
        assert federation.offline_server_ids == ("churnstore.example",)
        assert "churnstore.example" in federation.all_servers


class TestReplicaGroups:
    def test_replicas_share_spatial_names(self, federation: Federation):
        store = generate_store("shop.example", ANCHOR, seed=4)
        group = federation.add_replica_group("shop.example", store.map_data, replica_count=3)
        assert group.server_ids == (
            "r0.shop.example", "r1.shop.example", "r2.shop.example"
        )
        # Every covering cell advertises all three replicas.
        registration = federation.registration_for("r0.shop.example")
        assert registration is not None
        for cell in registration.cells:
            targets = {
                SrvData.decode(r.data).target
                for r in federation.registry.records_for_cell(cell)
            }
            assert set(group.server_ids) <= targets
        # Membership is recoverable from any replica id.
        assert federation.group_for("r1.shop.example") is group
        assert replica_server_id("shop.example", 1) == "r1.shop.example"

    def test_replica_discovery_returns_all_replicas(self, federation: Federation):
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_replica_group("shop.example", store.map_data, replica_count=2)
        client = federation.client()
        result = client.discover(store.entrance, uncertainty_meters=50.0)
        assert "r0.shop.example" in result.server_ids
        assert "r1.shop.example" in result.server_ids

    def test_replica_group_validation(self, federation: Federation):
        store = generate_store("shop.example", ANCHOR, seed=4)
        with pytest.raises(FederationConfigError):
            federation.add_replica_group("shop.example", store.map_data, replica_count=0)
        federation.add_replica_group("shop.example", store.map_data, replica_count=2)
        with pytest.raises(FederationConfigError):
            federation.add_replica_group("shop.example", store.map_data, replica_count=2)


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class TestChurnController:
    def make(self, federation: Federation, events, lease: float | None = None):
        return ChurnController(
            federation=federation,
            schedule=ChurnSchedule.from_events(events),
            lease_seconds=lease,
        )

    def test_applies_due_events_in_order(self, federation: Federation):
        deploy_store(federation)
        controller = self.make(federation, [
            ChurnEvent(10.0, ChurnEventKind.CRASH, "churnstore.example"),
            ChurnEvent(50.0, ChurnEventKind.JOIN, "churnstore.example"),
        ])
        assert controller.apply_until(5.0) == []
        applied = controller.apply_until(12.0)
        assert [e.kind for e in applied] == ["crash"]
        assert federation.is_offline("churnstore.example")
        applied = controller.apply_until(60.0)
        assert [e.kind for e in applied] == ["join"]
        assert "churnstore.example" in federation.servers
        assert controller.rejoined_at["churnstore.example"] == 50.0

    def test_lease_expiry_withdraws_records_of_crashed_server(self, federation: Federation):
        deploy_store(federation)
        controller = self.make(
            federation,
            [ChurnEvent(10.0, ChurnEventKind.CRASH, "churnstore.example")],
            lease=30.0,
        )
        controller.apply_until(15.0)
        assert federation.registry.total_records > 0  # lease still running
        applied = controller.apply_until(45.0)
        assert [e.kind for e in applied] == ["lease-expired"]
        assert federation.registry.total_records == 0

    def test_rejoin_before_lease_keeps_registration(self, federation: Federation):
        deploy_store(federation)
        controller = self.make(
            federation,
            [
                ChurnEvent(10.0, ChurnEventKind.CRASH, "churnstore.example"),
                ChurnEvent(20.0, ChurnEventKind.JOIN, "churnstore.example"),
            ],
            lease=30.0,
        )
        applied = controller.apply_until(100.0)
        kinds = [(e.kind, e.applied) for e in applied]
        assert ("crash", True) in kinds and ("join", True) in kinds
        # The rejoin refreshed the lease: the pending expiry was cancelled
        # outright, so the registration survives untouched.
        assert all(e.kind != "lease-expired" for e in applied)
        assert controller.pending_events == 0
        assert federation.registry.total_records > 0

    def test_rejoin_cancels_stale_lease_expiry(self, federation: Federation):
        """Regression: a crash→rejoin→crash sequence must not have the first
        crash's lease expiry withdraw the second crash's records early."""
        deploy_store(federation)
        controller = self.make(
            federation,
            [
                ChurnEvent(0.0, ChurnEventKind.CRASH, "churnstore.example"),
                ChurnEvent(10.0, ChurnEventKind.JOIN, "churnstore.example"),
                ChurnEvent(50.0, ChurnEventKind.CRASH, "churnstore.example"),
            ],
            lease=100.0,
        )
        # At t=120 only the second crash's lease (ends t=150) is running:
        # the records must still be there.
        applied = controller.apply_until(120.0)
        assert "lease-expired" not in [e.kind for e in applied]
        assert federation.registry.total_records > 0
        applied = controller.apply_until(160.0)
        assert [e.kind for e in applied] == ["lease-expired"]
        assert federation.registry.total_records == 0

    def test_inapplicable_events_are_recorded_not_fatal(self, federation: Federation):
        controller = self.make(federation, [
            ChurnEvent(1.0, ChurnEventKind.CRASH, "ghost.example"),
            ChurnEvent(2.0, ChurnEventKind.JOIN, "ghost.example"),
        ])
        applied = controller.apply_until(10.0)
        assert all(not event.applied for event in applied)

    def test_default_lease_is_registration_ttl(self, federation: Federation):
        controller = self.make(federation, [])
        assert controller.effective_lease_seconds == federation.config.registration_ttl_seconds


# ----------------------------------------------------------------------
# Multi-worker server queue (satellite: worker-count × per-worker queue)
# ----------------------------------------------------------------------
class TestMultiWorkerQueue:
    def make_queue(self, workers: int, service_ms: float = 10.0, capacity: int = 64) -> ServerQueue:
        return ServerQueue(
            network=SimulatedNetwork(),
            service_times=ServiceTimeModel(default_ms=service_ms),
            capacity=capacity,
            workers=workers,
        )

    def test_concurrent_arrivals_spread_across_workers(self):
        queue = self.make_queue(workers=2, service_ms=10.0)
        clock = queue.network.clock
        totals = []
        for _ in range(3):
            clock.rewind_to(0.0)
            totals.append(queue.process("search"))
        # Two requests run in parallel with zero wait; the third queues
        # behind the earliest-finishing worker.
        assert totals == [pytest.approx(10.0), pytest.approx(10.0), pytest.approx(20.0)]
        assert queue.stats.max_depth == 1

    def test_four_workers_quadruple_the_knee(self):
        def drive(workers: int) -> ServerQueue:
            queue = self.make_queue(workers=workers, service_ms=10.0, capacity=10_000)
            clock = queue.network.clock
            for index in range(200):
                arrival = index * 0.0025  # 4x a single worker's service rate
                if clock.now() > arrival:
                    clock.rewind_to(arrival)
                elif clock.now() < arrival:
                    clock.advance(arrival - clock.now())
                queue.process("search")
            return queue

        single = drive(1)
        quad = drive(4)
        # One worker at 4x offered load: the backlog grows without bound.
        assert single.stats.mean_wait_ms > 100.0
        # Four workers absorb the same stream at the saturation edge.
        assert quad.stats.mean_wait_ms < single.stats.mean_wait_ms / 10.0
        window = 200 * 0.0025
        assert quad.stats.utilization(window, workers=4) == pytest.approx(1.0, rel=0.1)

    def test_per_worker_capacity_bounds_backlog(self):
        queue = self.make_queue(workers=2, service_ms=10.0, capacity=1)
        clock = queue.network.clock
        for _ in range(2):
            clock.rewind_to(0.0)
            queue.process("search")
        clock.rewind_to(0.0)
        with pytest.raises(ServerOverloadedError):
            queue.process("search")
        assert queue.stats.dropped == 1

    def test_snapshot_reports_workers_and_normalized_utilization(self):
        queue = self.make_queue(workers=2, service_ms=10.0)
        clock = queue.network.clock
        for _ in range(2):
            clock.rewind_to(0.0)
            queue.process("search")
        snapshot = queue.snapshot(window_seconds=0.010)
        assert snapshot["workers"] == 2.0
        # 20ms of busy time over a 10ms window and 2 workers = fully busy.
        assert snapshot["utilization"] == pytest.approx(1.0)

    def test_worker_count_validated_and_wired_from_config(self):
        with pytest.raises(ValueError):
            ServerQueue(network=SimulatedNetwork(), workers=0)
        config = FederationConfig(
            service_times=ServiceTimeModel(default_ms=2.0), server_workers=3
        )
        federation = Federation(config=config)
        store = generate_store("multiworker.example", ANCHOR, seed=4)
        server = federation.add_map_server("multiworker.example", store.map_data)
        assert server.queue is not None and server.queue.workers == 3


# ----------------------------------------------------------------------
# Client-side failover
# ----------------------------------------------------------------------
def replicated_federation(replicas: int = 2, **config_kwargs) -> tuple[Federation, object]:
    config = FederationConfig(
        retry_policy=RetryPolicy.exponential(base_delay_ms=5.0, dead_server_timeout_ms=100.0),
        **config_kwargs,
    )
    federation = Federation(config=config)
    store = generate_store("shop.example", ANCHOR, seed=4)
    federation.add_replica_group("shop.example", store.map_data, replica_count=replicas)
    return federation, store


def first_pick(federation: Federation, seed: int, ids: tuple[str, ...]) -> str:
    """The replica a device with selection seed ``seed`` will try first.

    A probe client with the same seed replays the same weighted-selection
    RNG stream, so its first planning draw predicts the real client's.
    """
    probe = federation.client(selection_seed=seed)
    return probe.context.targets(list(ids))[0].candidate_ids[0]


class TestClientFailover:
    REPLICA_IDS = ("r0.shop.example", "r1.shop.example")

    def test_dead_replica_fails_over_to_live_one(self):
        federation, store = replicated_federation(replicas=2)
        # Crash the replica the client's weighted selection will try first,
        # so the run actually exercises a stale attempt + failover.
        federation.crash_map_server(first_pick(federation, 1, self.REPLICA_IDS))
        client = federation.client(selection_seed=1)
        result = client.search("milk", near=store.entrance, radius_meters=150.0)
        assert len(result) > 0
        recorder = client.context.failover
        assert recorder.chains_ok >= 1
        assert recorder.chains_failed == 0
        assert recorder.stale_attempts >= 1
        assert recorder.failovers >= 1
        assert len(recorder.failover_ms) == recorder.failovers
        # The dead attempt cost a full timeout message.
        assert federation.network.stats.messages_by_kind.get("mapserver.timeout", 0) >= 1

    def test_health_tracker_avoids_known_dead_replica(self):
        federation, store = replicated_federation(replicas=2)
        federation.crash_map_server("r0.shop.example")
        client = federation.client()
        client.search("milk", near=store.entrance, radius_meters=150.0)
        timeouts_before = federation.network.stats.messages_by_kind.get("mapserver.timeout", 0)
        client.search("bread", near=store.entrance, radius_meters=150.0)
        timeouts_after = federation.network.stats.messages_by_kind.get("mapserver.timeout", 0)
        # Within the cooldown the demoted replica is not retried first.
        assert timeouts_after == timeouts_before

    def test_every_replica_dead_exhausts_chain(self):
        federation, store = replicated_federation(replicas=2)
        federation.crash_map_server("r0.shop.example")
        federation.crash_map_server("r1.shop.example")
        client = federation.client()
        result = client.search("milk", near=store.entrance, radius_meters=150.0)
        assert len(result) == 0
        recorder = client.context.failover
        assert recorder.chains_failed >= 1
        assert recorder.chains_ok == 0

    def test_overloaded_replica_fails_over(self):
        federation, store = replicated_federation(
            replicas=2,
            service_times=ServiceTimeModel(default_ms=60_000.0),
            server_queue_capacity=1,
        )
        # Saturate the first-picked replica's only queue slot far into the
        # future, then rewind close enough that an arriving request cannot
        # fit in the idle gap before the busy interval starts.
        clock = federation.network.clock
        victim = first_pick(federation, 1, self.REPLICA_IDS)
        clock.advance(100.0)
        federation.servers[victim].queue.process("search")
        clock.rewind_to(50.0)
        client = federation.client(selection_seed=1)
        result = client.search("milk", near=store.entrance, radius_meters=150.0)
        assert len(result) > 0
        recorder = client.context.failover
        assert recorder.failovers >= 1
        assert recorder.backoff_ms_total > 0.0  # the retry policy paced it

    def test_utilization_backoff_paced_by_failed_server_load(self):
        """Regression: the retry delay is scaled by the *failed* server's
        load, not by whichever candidate is tried next."""
        from repro.services.failover import (
            FailoverRecorder,
            RequestTarget,
            execute_with_failover,
        )

        class Saturated:
            server_id = "hot"
            queue = None  # load unknown -> reads as 0.0 via queue=None

        class Idle:
            server_id = "cool"
            queue = None

        network = SimulatedNetwork()
        policy = RetryPolicy.utilization_aware(base_delay_ms=10.0, max_delay_ms=10_000.0)
        # Dead first candidate (load 1.0) then a live one: the backoff before
        # the live attempt must be paced by the dead server's load (1.0,
        # clamped to 0.95 -> 10/0.05 = 200ms), not the live server's 0.0.
        target = RequestTarget(key="g", candidates=(("dead", None), ("cool", Idle())))
        recorder = FailoverRecorder()
        result = execute_with_failover(
            target, lambda server: "ok", network=network, policy=policy,
            health=None, recorder=recorder,
        )
        assert result == "ok"
        assert recorder.backoff_ms_total == pytest.approx(10.0 / 0.05)

    def test_legacy_path_without_policy_skips_silently(self):
        config = FederationConfig()  # no retry policy
        federation = Federation(config=config)
        store = generate_store("shop.example", ANCHOR, seed=4)
        federation.add_map_server("shop.example", store.map_data)
        federation.crash_map_server("shop.example")
        client = federation.client()
        result = client.search("milk", near=store.entrance, radius_meters=150.0)
        assert len(result) == 0
        recorder = client.context.failover
        # No chain even started: the dead id was silently dropped, exactly
        # the historical behaviour (and zero timeout messages were paid).
        assert recorder.stale_attempts == 0
        assert recorder.chains_failed == 0
        assert federation.network.stats.messages_by_kind.get("mapserver.timeout", 0) == 0


# ----------------------------------------------------------------------
# End-to-end: crash mid-run, failover, cache expiry, rediscovery
# ----------------------------------------------------------------------
class TestEngineChurnEndToEnd:
    def churn_scenario(self, replicas: int, registration_ttl: float = 120.0):
        config = FederationConfig(
            registration_ttl_seconds=registration_ttl,
            device_discovery_cache_ttl_seconds=60.0,
            client_tile_cache_entries=64,
            service_times=ServiceTimeModel(default_ms=2.0),
            retry_policy=RetryPolicy.utilization_aware(),
        )
        return build_scenario(
            store_count=1, city_rows=4, city_cols=4, config=config, seed=21,
            store_replicas=replicas,
        )

    def test_crash_failover_and_rediscovery_within_one_ttl(self):
        scenario = self.churn_scenario(replicas=2)
        victim = scenario.store_replica_ids(0)[0]
        schedule = ChurnSchedule.from_events([
            ChurnEvent(15.0, ChurnEventKind.CRASH, victim),
            ChurnEvent(60.0, ChurnEventKind.JOIN, victim),
        ])
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(clients=10, steps=12, seed=3, step_seconds=10.0, churn=schedule),
        )
        report = engine.run()
        availability = report.availability()
        # Clients failed over to the surviving replica: no chain exhausted.
        assert availability["failovers"] > 0
        assert availability["failed_chains"] == 0.0
        assert availability["failover_p95_ms"] >= availability["failover_p50_ms"] > 0.0
        # The rejoined replica was rediscovered within one registration TTL.
        assert report.rediscoveries == 1
        assert availability["rediscovery_seconds_mean"] <= 120.0
        assert report.churn_events_applied == 2

    def test_single_replica_crash_degrades_availability(self):
        scenario = self.churn_scenario(replicas=1)
        victim = scenario.store_replica_ids(0)[0]
        schedule = ChurnSchedule.from_events([
            ChurnEvent(15.0, ChurnEventKind.CRASH, victim),
            ChurnEvent(80.0, ChurnEventKind.JOIN, victim),
        ])
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(clients=10, steps=10, seed=3, step_seconds=10.0, churn=schedule),
        )
        report = engine.run()
        availability = report.availability()
        assert availability["failed_chains"] > 0
        assert availability["stale_attempts"] > 0
        assert report.failed_requests > 0
        # Availability metrics land in the deterministic snapshot.
        snapshot = report.snapshot()
        assert snapshot["availability.failed_chains"] == availability["failed_chains"]
        assert snapshot["churn.crash"] == 1.0
        assert snapshot["churn.join"] == 1.0

    def test_churn_run_is_deterministic(self):
        def one_run():
            scenario = self.churn_scenario(replicas=2)
            victim = scenario.store_replica_ids(0)[0]
            schedule = ChurnSchedule.from_events([
                ChurnEvent(15.0, ChurnEventKind.CRASH, victim),
                ChurnEvent(60.0, ChurnEventKind.JOIN, victim),
            ])
            engine = WorkloadEngine(
                scenario,
                WorkloadConfig(clients=8, steps=6, seed=11, step_seconds=10.0, churn=schedule),
            )
            return engine.run().snapshot()

        assert one_run() == one_run()


class TestCacheExpiryUnderRewindingClock:
    """DnsCache/DiscoveryCache entries expire on schedule while the clock
    rewinds between concurrent branches, exactly as in an engine round."""

    def build(self):
        config = FederationConfig(
            registration_ttl_seconds=60.0,
            device_discovery_cache_ttl_seconds=120.0,
            retry_policy=RetryPolicy.exponential(),
        )
        federation = Federation(config=config)
        store = generate_store("churnstore.example", ANCHOR, seed=4)
        federation.add_map_server("churnstore.example", store.map_data)
        return federation, store

    def advance_with_rewinds(self, clock, seconds: float, chunk: float = 20.0) -> None:
        """Advance like the engine: overshoot then rewind within each round."""
        remaining = seconds
        while remaining > 0.0:
            step = min(chunk, remaining)
            start = clock.now()
            clock.advance(step + 1.0)
            clock.rewind_to(start + step)
            remaining -= step

    def test_stale_then_expired_then_rediscovered(self):
        federation, store = self.build()
        clock = federation.network.clock
        client = federation.client()
        def probe():
            return client.discover(store.entrance, uncertainty_meters=50.0).server_ids

        assert "churnstore.example" in probe()

        # Crash: records linger at the authority, caches are stale-but-live.
        federation.crash_map_server("churnstore.example")
        assert "churnstore.example" in probe()

        # Lease expiry: the authority stops answering immediately — but the
        # device keeps resolving the dead name from caches until TTLs lapse.
        federation.expire_registration("churnstore.example")
        assert "churnstore.example" in probe()
        dns_cache = federation.resolver.cache

        # 70 simulated seconds (> the 60s record TTL) pass in engine-style
        # rewound rounds; every cached answer lapses on schedule.
        self.advance_with_rewinds(clock, 70.0)
        assert "churnstore.example" not in probe()

        # The resolver cache holds no live positive entry naming the dead
        # server: every cached answer lapsed on schedule.
        for entry in list(dns_cache._entries.values()):
            assert entry.expires_at <= clock.now() or all(
                "churnstore" not in record.data for record in entry.answers
            )

        # Revive: within one record TTL (which also bounds the negative
        # cache), the re-registered server is discoverable again.
        rejoined_at = clock.now()
        federation.revive_map_server("churnstore.example")
        self.advance_with_rewinds(clock, 61.0)
        assert "churnstore.example" in probe()
        # One TTL of waiting plus the discovery walk itself.
        assert clock.now() - rejoined_at <= 65.0

class TestFailoverRecorder:
    def test_rates_are_zero_before_any_chain(self):
        from repro.services.failover import FailoverRecorder

        recorder = FailoverRecorder()
        assert recorder.failed_chain_rate == 0.0
        assert recorder.stale_attempt_rate == 0.0
        assert recorder.detect_mean_ms == 0.0

    def test_failed_chain_rate_leaves_policy_denials_out(self):
        from repro.services.failover import FailoverRecorder

        recorder = FailoverRecorder(chains=10, chains_ok=6, chains_failed=2, chains_denied=2)
        assert recorder.failed_chain_rate == pytest.approx(2 / 8)
        all_denied = FailoverRecorder(chains=3, chains_denied=3)
        assert all_denied.failed_chain_rate == 0.0

    def test_stale_rate_and_mean_detection_cost(self):
        from repro.services.failover import FailoverRecorder

        recorder = FailoverRecorder(attempts=8, stale_attempts=2, detect_ms=[300.0, 0.0, 0.0])
        assert recorder.stale_attempt_rate == pytest.approx(0.25)
        assert recorder.detect_mean_ms == pytest.approx(100.0)

    def test_merge_from_folds_every_field(self):
        """A per-device recorder folds into the run total field by field: a
        field added to the recorder and forgotten in ``merge_from`` fails here."""
        import dataclasses

        from repro.services.failover import FailoverRecorder

        def filled(base: int) -> FailoverRecorder:
            recorder = FailoverRecorder()
            for index, spec in enumerate(dataclasses.fields(FailoverRecorder)):
                value = getattr(recorder, spec.name)
                if isinstance(value, list):
                    setattr(recorder, spec.name, [float(base + index)])
                else:
                    setattr(recorder, spec.name, type(value)(base + index))
            return recorder

        total, other = filled(1), filled(100)
        total.merge_from(other)
        for index, spec in enumerate(dataclasses.fields(FailoverRecorder)):
            merged = getattr(total, spec.name)
            if isinstance(merged, list):
                assert merged == [float(1 + index), float(100 + index)], spec.name
            else:
                assert merged == (1 + index) + (100 + index), spec.name
