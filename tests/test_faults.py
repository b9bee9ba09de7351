"""The fault-injection subsystem: primitives, tapes, and graceful degradation.

Covers the layers bottom-up: bounded retransmits on the network (the
infinite-transparent-retry bugfix), jittered/escalating retry policies,
:class:`NetworkFaultState` primitives, stale-serving discovery caches,
:class:`FaultPlan` tape semantics, the injector, and end-to-end workload
runs under partitions / authority outages / gray failures — including the
byte-identity guarantee that fault-free runs carry no fault keys (the
round loop's snapshot *with* a fault tape is the ``fault-tape`` golden in
``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core.config import FederationConfig
from repro.discovery.cache import DiscoveryCache
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultEventKind, FaultPlan
from repro.services.retry import DEAD_SERVER_TIMEOUT_MS, RetryPolicy
from repro.simulation.clock import SimulatedClock
from repro.simulation.lru import LruCache
from repro.simulation.network import (
    MAX_RETRANSMITS,
    GrayFailure,
    LatencyModel,
    NetworkFaultState,
    NetworkTimeoutError,
    SimulatedNetwork,
)
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.scenarios import get_scenario
from repro.worldgen.scenario import build_scenario

WORLD_SEED = 33

def _scenario(stale_serve_max_ms: float = 0.0, ttl: float = 120.0, reg_ttl: float = 3600.0):
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=ttl,
        registration_ttl_seconds=reg_ttl,
        client_tile_cache_entries=64,
        service_times=ServiceTimeModel(default_ms=2.0),
        server_queue_capacity=128,
        retry_policy=RetryPolicy.full_jitter(),
        stale_serve_max_ms=stale_serve_max_ms,
    )
    return build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=WORLD_SEED,
        reuse_worlds=True,
        store_replicas=2,
    )


class TestBoundedRetransmits:
    """The bugfix: loss can no longer retry transparently forever."""

    @pytest.mark.parametrize("gray", [False, True])
    def test_transparent_retries_are_capped(self, gray):
        """Base loss and a gray failure's loss stop at the same cap."""
        if gray:
            network = SimulatedNetwork()
            network.fault_state().set_gray("s", GrayFailure(loss_probability=0.9))
        else:
            network = SimulatedNetwork(latency=LatencyModel(loss_probability=0.9))
        retries = []
        for _ in range(50):
            before = network.stats.retransmissions
            network.client_map_server_exchange(server_id="s")
            retries.append(network.stats.retransmissions - before)
        assert max(retries) == MAX_RETRANSMITS

    def test_exhaustion_raises_on_opt_in(self):
        network = SimulatedNetwork(latency=LatencyModel(loss_probability=0.9))
        with pytest.raises(NetworkTimeoutError) as excinfo:
            for _ in range(50):  # deterministic under jitter_seed=0
                network.client_map_server_exchange(
                    server_id="s-1", fail_on_exhaustion=True
                )
        assert excinfo.value.server_id == "s-1"

    def test_exhaustion_charges_nothing(self):
        network = SimulatedNetwork(latency=LatencyModel(loss_probability=0.9))
        # Find a raising draw and check the clock/stats were untouched by it.
        for _ in range(50):
            before_ms = network.stats.total_latency_ms
            before_clock = network.clock.now()
            try:
                network.client_map_server_exchange(server_id="s", fail_on_exhaustion=True)
            except NetworkTimeoutError:
                assert network.stats.total_latency_ms == before_ms
                assert network.clock.now() == before_clock
                return
        pytest.fail("loss=0.9 never exhausted the retransmit budget")

    def test_legacy_callers_keep_draw_for_draw_behaviour(self):
        """Same seed, same draws: opting out is byte-identical to before."""
        a = SimulatedNetwork(latency=LatencyModel(loss_probability=0.4, jitter_sigma=0.2))
        b = SimulatedNetwork(latency=LatencyModel(loss_probability=0.4, jitter_sigma=0.2))
        for _ in range(20):
            assert a.client_map_server_exchange() == b.client_map_server_exchange(
                server_id="s"  # naming the server must not change the draws
            )


class TestRetryPolicyJitter:
    def test_full_jitter_bounded_by_deterministic_delay(self):
        policy = RetryPolicy.full_jitter()
        rng = random.Random(7)
        for failed in (1, 2, 3):
            ceiling = policy.delay_ms(failed)
            for _ in range(20):
                delay = policy.delay_ms(failed, rng=rng)
                assert 0.0 <= delay <= ceiling

    def test_utilization_policy_never_draws(self):
        rng = random.Random(3)
        state = rng.getstate()
        RetryPolicy.utilization_aware().delay_ms(3, rng=rng)
        assert rng.getstate() == state

    def test_attempt_timeout_escalates_and_caps(self):
        policy = RetryPolicy.full_jitter()
        assert policy.timeout_ms(0) == 50.0
        assert policy.timeout_ms(1) == 100.0
        assert policy.timeout_ms(5) == DEAD_SERVER_TIMEOUT_MS

    def test_utilization_timeout_is_the_constant(self):
        policy = RetryPolicy.utilization_aware()
        assert policy.timeout_ms(0) == DEAD_SERVER_TIMEOUT_MS
        assert policy.timeout_ms(7) == DEAD_SERVER_TIMEOUT_MS


class TestNetworkFaultState:
    def test_global_partition(self):
        state = NetworkFaultState()
        assert state.server_reachable("a")
        assert state.block("a")
        assert not state.block("a")  # idempotent re-cut is a no-op
        assert not state.server_reachable("a")
        assert state.unblock("a")
        assert not state.unblock("a")
        assert state.server_reachable("a")

    def test_region_scoped_partition(self):
        state = NetworkFaultState()
        assert state.block("a", (0,))
        state.active_region = 0
        assert not state.server_reachable("a")
        state.active_region = 1
        assert state.server_reachable("a")
        # A client with no region is outside every region-scoped partition.
        state.active_region = None
        assert state.server_reachable("a")
        assert state.unblock("a", (0,))
        state.active_region = 0
        assert state.server_reachable("a")

    def test_gray_failures(self):
        state = NetworkFaultState()
        gray = GrayFailure(latency_multiplier=4.0)
        assert state.set_gray("a", gray)
        assert not state.set_gray("a", gray)  # same degradation: no-op
        assert state.gray_for("a") == gray
        assert state.clear_gray("a")
        assert not state.clear_gray("a")
        assert state.gray_for("a") is None

    def test_authority_outages(self):
        state = NetworkFaultState()
        assert state.authority_down("auth")
        assert state.authority_is_down("auth")
        assert not state.authority_down("auth")
        assert state.authority_up("auth")
        assert not state.authority_up("auth")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({}, "must degrade something"),
            ({"latency_multiplier": 0.5}, "latency_multiplier"),
            ({"latency_multiplier": math.nan}, "latency_multiplier"),
            ({"latency_multiplier": math.inf}, "latency_multiplier"),
        ],
    )
    def test_gray_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GrayFailure(**kwargs)


class TestStaleServing:
    def test_peek_has_no_side_effects(self):
        lru = LruCache(max_entries=4)
        lru.store("k", "v")
        hits, misses = lru.stats.hits, lru.stats.misses
        assert lru.peek("k") == "v"
        assert lru.peek("absent") is None
        assert (lru.stats.hits, lru.stats.misses) == (hits, misses)

    def test_expired_entry_served_stale_within_grace(self):
        clock = SimulatedClock()
        cache = DiscoveryCache(clock=clock, default_ttl_seconds=10.0, stale_grace_seconds=30.0)
        cache.put("cell", ("s1", "s2"))
        assert cache.get("cell") == ("s1", "s2")
        clock.advance(15.0)  # expired, inside grace
        assert cache.get("cell") is None  # normal lookups never serve stale
        assert cache.get_stale("cell") == ("s1", "s2")
        clock.advance(30.0)  # beyond expiry + grace
        assert cache.get_stale("cell") is None

    def test_no_grace_means_no_stale_serving(self):
        clock = SimulatedClock()
        cache = DiscoveryCache(clock=clock, default_ttl_seconds=10.0)
        cache.put("cell", ("s1",))
        clock.advance(15.0)
        assert cache.get("cell") is None
        assert cache.get_stale("cell") is None

    def test_grace_window_stats_match_no_grace_behaviour(self):
        """Retaining expired entries for stale serving must not inflate the
        hit/miss accounting a graceless cache would report."""
        clock_a, clock_b = SimulatedClock(), SimulatedClock()
        graceless = DiscoveryCache(clock=clock_a, default_ttl_seconds=10.0)
        graceful = DiscoveryCache(
            clock=clock_b, default_ttl_seconds=10.0, stale_grace_seconds=60.0
        )
        for cache, clock in ((graceless, clock_a), (graceful, clock_b)):
            cache.put("cell", ("s1",))
            cache.get("cell")  # hit
            clock.advance(15.0)
            cache.get("cell")  # expired -> miss
        assert graceless.stats.hits == graceful.stats.hits
        assert graceless.stats.misses == graceful.stats.misses

    def test_stale_serve_config_validated(self):
        with pytest.raises(ValueError):
            FederationConfig(stale_serve_max_ms=-1.0)


class TestFaultPlan:
    def test_events_sorted_stably_by_time(self):
        heal = FaultEvent(10.0, FaultEventKind.HEAL_PARTITION, ("a",))
        cut = FaultEvent(10.0, FaultEventKind.PARTITION, ("b",))
        late = FaultEvent(5.0, FaultEventKind.PARTITION, ("c",))
        plan = FaultPlan((heal, cut, late))
        assert plan.events == (late, heal, cut)  # same-instant keeps authored order

    def test_window_constructors(self):
        plan = FaultPlan.partition(("a", "b"), 10.0, 50.0, regions=(1,))
        assert [e.kind for e in plan] == [
            FaultEventKind.PARTITION,
            FaultEventKind.HEAL_PARTITION,
        ]
        assert plan.horizon_seconds == 50.0
        assert plan.servers == ("a", "b")

    def test_plans_compose(self):
        merged = FaultPlan.partition(("a",), 10.0, 20.0) + FaultPlan.gray(
            ("b",), 5.0, latency_multiplier=2.0
        )
        assert [e.at_seconds for e in merged] == [5.0, 10.0, 20.0]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FaultPlan.partition(("a",), 50.0, 10.0), "heal after"),
            (lambda: FaultPlan.gray(("a",), 0.0), "degrade something"),
            (lambda: FaultPlan.flash_crowd(("a",), 0.0, 10.0, extra_load=0), "extra load"),
            (lambda: FaultEvent(10.0, FaultEventKind.PARTITION), "need server ids"),
            (lambda: FaultEvent(-1.0, FaultEventKind.AUTHORITY_DOWN), "at_seconds"),
            (lambda: FaultEvent(math.nan, FaultEventKind.AUTHORITY_DOWN), "at_seconds"),
            (lambda: FaultEvent(math.inf, FaultEventKind.AUTHORITY_DOWN), "at_seconds"),
            (lambda: FaultEvent(0.0, FaultEventKind.GRAY, ("a",), latency_multiplier=0.5), "latency_multiplier"),
            (lambda: FaultEvent(0.0, FaultEventKind.GRAY, ("a",), latency_multiplier=math.nan), "latency_multiplier"),
            (lambda: FaultEvent(0.0, FaultEventKind.GRAY, ("a",), latency_multiplier=math.inf), "latency_multiplier"),
        ],
    )
    def test_validation(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestFaultInjector:
    def test_tape_application_and_noop_detection(self):
        scenario = _scenario()
        victim = scenario.store_replica_ids(0)[0]
        plan = FaultPlan.from_events(
            [
                FaultEvent(0.0, FaultEventKind.PARTITION, (victim,)),
                # Healing a partition that was never cut is a recorded no-op.
                FaultEvent(5.0, FaultEventKind.HEAL_PARTITION, ("ghost",)),
                FaultEvent(10.0, FaultEventKind.HEAL_PARTITION, (victim,)),
            ]
        )
        injector = FaultInjector(federation=scenario.federation, plan=plan)
        first = injector.apply_until(0.0)
        assert [e.applied for e in first] == [True]
        assert not scenario.federation.network.server_reachable(victim)
        rest = injector.apply_until(100.0)
        assert [e.applied for e in rest] == [False, True]
        assert scenario.federation.network.server_reachable(victim)
        assert injector.exhausted

    def test_flash_crowd_charges_queue_load(self):
        scenario = _scenario()
        targets = scenario.store_replica_ids(0)
        plan = FaultPlan.flash_crowd(targets, 0.0, 60.0, extra_load=40)
        injector = FaultInjector(federation=scenario.federation, plan=plan)
        injector.apply_until(0.0)
        injector.inject_round_load()
        for server_id in targets:
            queue = scenario.federation.all_servers[server_id].queue
            assert queue is not None and queue.stats.arrivals == 40
        injector.apply_until(60.0)  # crowd disperses
        injector.inject_round_load()
        for server_id in targets:
            queue = scenario.federation.all_servers[server_id].queue
            assert queue.stats.arrivals == 40  # unchanged

    def test_empty_authority_event_targets_discovery_authority(self):
        scenario = _scenario()
        plan = FaultPlan.authority_outage(0.0)
        injector = FaultInjector(federation=scenario.federation, plan=plan)
        injector.apply_until(0.0)
        authority = scenario.federation.discovery_authority_id
        assert scenario.federation.network.faults.authority_is_down(authority)


class TestWorkloadUnderFaults:
    def test_partition_forces_failover_and_availability_holds(self):
        scenario = _scenario()
        victims = tuple(scenario.store_replica_ids(i)[0] for i in range(2))
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=12,
                steps=6,
                seed=7,
                step_seconds=20.0,
                faults=FaultPlan.partition(victims, 30.0, 90.0),
            ),
        )
        report = engine.run()
        availability = report.availability()
        assert report.fault_stats["events_applied"] == 2.0
        assert availability["failovers"] > 0
        assert availability["failed_request_rate"] < 0.2

    def test_gray_failure_inflates_latency(self):
        def run(faulted: bool) -> float:
            scenario = _scenario()
            victims = tuple(
                sid for i in range(2) for sid in scenario.store_replica_ids(i)
            )
            plan = (
                FaultPlan.gray(victims, 20.0, 100.0, latency_multiplier=10.0)
                if faulted
                else None
            )
            engine = WorkloadEngine(
                scenario,
                WorkloadConfig(clients=12, steps=6, seed=7, step_seconds=20.0, faults=plan),
            )
            report = engine.run()
            assert report.availability()["failed_request_rate"] < 0.2
            return report.latency_percentiles()["p95"]

        assert run(faulted=True) > run(faulted=False)

    def test_authority_outage_coasts_on_stale_cache_and_recovers(self):
        """The cache-coasting story end to end: warm devices serve stale
        SRV views while the authority is dark (degraded, not failed), and a
        healing outage strictly beats one that never heals."""

        def run(heals: bool):
            scenario = _scenario(stale_serve_max_ms=60_000.0, ttl=30.0, reg_ttl=60.0)
            plan = FaultPlan.authority_outage(45.0, 165.0 if heals else None)
            engine = WorkloadEngine(
                scenario,
                WorkloadConfig(
                    clients=12, steps=10, seed=7, step_seconds=20.0, faults=plan
                ),
            )
            return engine.run()

        healed = run(heals=True)
        assert healed.degraded_requests > 0
        assert healed.fault_stats["stale_serves"] > 0
        healed_rate = healed.availability()["failed_request_rate"]
        assert healed_rate < 0.5
        unhealed = run(heals=False)
        assert unhealed.availability()["failed_request_rate"] > healed_rate

    def test_no_stale_grace_means_outage_fails_requests(self):
        """Without stale_serve_max_ms the same outage degrades nothing —
        the grace window is what converts failures into degraded serves."""
        scenario = _scenario(stale_serve_max_ms=0.0, ttl=30.0, reg_ttl=60.0)
        engine = WorkloadEngine(
            scenario,
            WorkloadConfig(
                clients=12,
                steps=10,
                seed=7,
                step_seconds=20.0,
                faults=FaultPlan.authority_outage(45.0, 165.0),
            ),
        )
        report = engine.run()
        assert report.degraded_requests == 0
        assert report.availability()["failed_requests"] > 0

    def test_fault_free_snapshot_carries_no_fault_keys(self):
        scenario = _scenario()
        engine = WorkloadEngine(
            scenario, WorkloadConfig(clients=8, steps=3, seed=7, step_seconds=2.0)
        )
        snapshot = engine.run().snapshot()
        assert not any(
            key.startswith(("faults.", "degraded.")) for key in snapshot
        )
        assert scenario.federation.network.faults is None


class TestScenarioLibrary:
    def test_every_scenario_is_registered_and_buildable(self):
        from repro.workload.scenarios import SCENARIOS

        names = [spec.name for spec in SCENARIOS]
        assert names == [
            "regional-outage",
            "stadium-flash-crowd",
            "authority-outage",
            "asymmetric-partition",
            "rolling-gray",
        ]
        with pytest.raises(KeyError):
            get_scenario("volcano")

    def test_scenario_runs_are_deterministic(self):
        spec = dataclasses.replace(get_scenario("regional-outage"), clients=8, steps=5)

        def snapshot() -> dict[str, float]:
            scenario = spec.build()
            return WorkloadEngine(
                scenario, spec.workload(scenario, faulted=True)
            ).run().snapshot()

        assert snapshot() == snapshot()
