"""Tests for the workload engine: traffic, mobility and determinism."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.autoscale.policy import AutoscalerConfig
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.client import OpenFlameClient
from repro.core.config import FederationConfig
from repro.faults.schedule import FaultEvent, FaultEventKind, FaultPlan
from repro.geometry.bbox import BoundingBox
from repro.operator.client import NetworkedControlPlayer, OperatorControlAdapter
from repro.operator.config import OperatorConfig
from repro.services.retry import RetryPolicy
from repro.simulation.network import LatencyModel
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry.pipeline import TelemetryConfig
from repro.telemetry.slo import SLOConfig
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.mobility import AisleWalk, CommuterHandoff, RandomWaypoint
from repro.workload.traffic import RequestKind, RequestMix, ZipfSampler, zipf_weights
from repro.worldgen.scenario import build_scenario


def _workload_scenario(cached: bool, seed: int = 21):
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=120.0 if cached else 0.0,
        client_tile_cache_entries=128 if cached else 0,
    )
    return build_scenario(store_count=2, city_rows=4, city_cols=4, config=config, seed=seed)


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, exponent=1.0)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] > weights[-1]

    def test_exponent_zero_is_uniform(self):
        weights = zipf_weights(4, exponent=0.0)
        assert all(weight == pytest.approx(0.25) for weight in weights)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(3, exponent=-1.0)
        with pytest.raises(ValueError):
            ZipfSampler([])

    def test_sampler_deterministic_and_skewed(self):
        sampler = ZipfSampler(list("abcdefgh"), exponent=1.2)
        first = [sampler.sample(random.Random(5)) for _ in range(1)]
        second = [sampler.sample(random.Random(5)) for _ in range(1)]
        assert first == second
        rng = random.Random(0)
        draws = [sampler.sample(rng) for _ in range(500)]
        assert draws.count("a") > draws.count("h")


class TestRequestMix:
    def test_sampling_covers_all_kinds(self):
        mix = RequestMix()
        rng = random.Random(3)
        kinds = {mix.sample(rng) for _ in range(300)}
        assert kinds == set(RequestKind)

    def test_zero_weight_kind_never_sampled(self):
        mix = RequestMix(search=1.0, route=0.0, tiles=0.0, localize=0.0)
        rng = random.Random(3)
        assert all(mix.sample(rng) == RequestKind.SEARCH for _ in range(50))

    def test_invalid_mixes(self):
        with pytest.raises(ValueError):
            RequestMix(search=-0.1)
        with pytest.raises(ValueError):
            RequestMix(search=0.0, route=0.0, tiles=0.0, localize=0.0)


class TestMobility:
    BOUNDS = BoundingBox(40.40, -80.00, 40.46, -79.92)

    def test_random_waypoint_stays_in_bounds(self):
        model = RandomWaypoint(self.BOUNDS, step_meters=200.0)
        rng = random.Random(8)
        position = model.reset(rng)
        roomy = self.BOUNDS.expanded(10.0)
        for _ in range(100):
            position = model.step(rng)
            assert roomy.contains(position)

    def test_random_waypoint_deterministic(self):
        first = RandomWaypoint(self.BOUNDS)
        second = RandomWaypoint(self.BOUNDS)
        rng_a, rng_b = random.Random(4), random.Random(4)
        first.reset(rng_a)
        second.reset(rng_b)
        for _ in range(30):
            assert first.step(rng_a) == second.step(rng_b)

    def test_aisle_walk_stays_near_store(self, store):
        model = AisleWalk(store)
        rng = random.Random(2)
        position = model.reset(rng)
        assert position == store.entrance
        footprint = store.map_data.bounding_box().expanded(10.0)
        for _ in range(60):
            assert footprint.contains(model.step(rng))

    def test_commuter_walks_between_stops_and_returns(self):
        start = self.BOUNDS.south_west
        end = start.destination(45.0, 400.0)
        model = CommuterHandoff([start, end], step_meters=90.0)
        rng = random.Random(1)
        model.reset(rng)
        visited_far = visited_home = False
        for _ in range(30):
            position = model.step(rng)
            if position.distance_to(end) < 1.0:
                visited_far = True
            if visited_far and position.distance_to(start) < 1.0:
                visited_home = True
        assert visited_far and visited_home

    def test_commuter_requires_two_stops(self):
        with pytest.raises(ValueError):
            CommuterHandoff([self.BOUNDS.south_west])


class TestWorkloadEngine:
    @pytest.fixture(scope="class")
    def cached_report(self):
        scenario = _workload_scenario(cached=True)
        engine = WorkloadEngine(scenario, WorkloadConfig(clients=9, steps=4, seed=3))
        return engine.run()

    def test_fixed_seed_gives_identical_snapshots(self):
        snapshots = []
        for _ in range(2):
            scenario = _workload_scenario(cached=True)
            engine = WorkloadEngine(scenario, WorkloadConfig(clients=6, steps=3, seed=11))
            snapshots.append(engine.run().snapshot())
        assert snapshots[0] == snapshots[1]

    def test_all_requests_recorded(self, cached_report):
        # No turn of this run is skipped (a route whose every resampled
        # target is under a meter away), so every turn is a request or an error.
        assert cached_report.requests + cached_report.errors == 9 * 4
        assert cached_report.requests > 0
        latency = cached_report.metrics.histogram("latency_ms.all")
        assert latency.count == cached_report.requests
        per_kind = sum(
            cached_report.metrics.histogram(f"latency_ms.{kind.value}").count
            for kind in RequestKind
        )
        assert per_kind == cached_report.requests

    def test_no_zero_length_routes_are_issued(self, monkeypatch):
        """Regression: a device standing on its target resamples rather than
        issue a no-op route whose latency would dilute the tail percentiles."""
        lengths: list[float] = []
        route = OpenFlameClient.route

        def measured(client, *args, **kwargs):
            result = route(client, *args, **kwargs)
            lengths.append(result.length_meters)
            return result

        monkeypatch.setattr(OpenFlameClient, "route", measured)
        WorkloadEngine(_workload_scenario(cached=True), WorkloadConfig(clients=9, steps=4, seed=3)).run()
        assert lengths and min(lengths) >= 1.0

    def test_latency_percentiles_does_not_mutate_snapshot(self, cached_report):
        """Regression: querying an unseen service must not grow the registry."""
        before = cached_report.snapshot()
        cached_report.latency_percentiles("never-issued-service")
        assert cached_report.snapshot() == before
        assert cached_report.latency_percentiles("never-issued-service") == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_tail_percentiles_ordered(self, cached_report):
        tail = cached_report.latency_percentiles()
        assert 0.0 < tail["p50"] <= tail["p95"] <= tail["p99"]

    def test_cached_fleet_beats_uncached_hit_rate(self, cached_report):
        scenario = _workload_scenario(cached=False)
        engine = WorkloadEngine(scenario, WorkloadConfig(clients=9, steps=4, seed=3))
        uncached = engine.run()
        assert uncached.discovery_cache_hit_rate == 0.0
        assert cached_report.discovery_cache_hit_rate > uncached.discovery_cache_hit_rate
        assert cached_report.tile_cache_hit_rate > 0.0

    def test_simulated_time_advances_with_pacing(self, cached_report):
        assert cached_report.simulated_seconds >= 4 * 2.0  # steps * step_seconds

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WorkloadConfig(clients=0)
        with pytest.raises(ValueError):
            WorkloadConfig(steps=0)
        with pytest.raises(ValueError):
            WorkloadConfig(step_seconds=-1.0)
        with pytest.raises(ValueError):
            WorkloadConfig(resolver_pools=0)

    @pytest.mark.parametrize(
        "config_class, name, value",
        [
            (WorkloadConfig, "step_seconds", float("nan")),
            (WorkloadConfig, "step_seconds", float("inf")),
            (TelemetryConfig, "window_seconds", float("nan")),
            (TelemetryConfig, "window_seconds", float("inf")),
            (SLOConfig, "latency_ms", float("nan")),
            (SLOConfig, "latency_ms", float("inf")),
            (OperatorConfig, "timeout_ms", float("nan")),
            (OperatorConfig, "timeout_ms", float("inf")),
        ],
    )
    def test_non_finite_run_config_rejected_by_name(self, config_class, name, value):
        """A NaN width never seals a telemetry window and a NaN pacing only
        fails mid-run, in the clock; both must fail at construction."""
        with pytest.raises(ValueError, match=name):
            config_class(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("clients", float("nan")),
            ("clients", 2.5),
            ("clients", True),
            ("steps", float("nan")),
            ("resolver_pools", 1.5),
            ("cohort_min_clients", float("nan")),
            ("trace_dwell_steps", float("nan")),
        ],
    )
    def test_non_integer_count_rejected_by_name(self, name, value):
        """NaN passes the ``< 1`` checks and a float count fails only
        mid-build, in ``range`` or a slice; both must fail at construction."""
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            WorkloadConfig(**{name: value})


class TestResolverPools:
    def test_fleet_shards_across_pools_and_reports_hit_rates(self):
        scenario = _workload_scenario(cached=False)
        engine = WorkloadEngine(
            scenario, WorkloadConfig(clients=8, steps=3, seed=5, resolver_pools=3)
        )
        report = engine.run()
        # Every pool served some fraction of the fleet, so each has traffic.
        pools = scenario.federation.resolver_pool(3)
        assert all(
            pool.recursive.cache.stats.hits + pool.recursive.cache.stats.misses > 0
            for pool in pools
        )
        # The aggregate rate is a weighted combination, bounded by the pools.
        rates = [pool.recursive.cache.stats.hit_rate for pool in pools]
        assert min(rates) <= report.dns_cache_hit_rate <= max(rates)

    def test_single_pool_matches_default_resolver(self):
        scenario = _workload_scenario(cached=False)
        engine = WorkloadEngine(scenario, WorkloadConfig(clients=4, steps=2, seed=5))
        report = engine.run()
        assert report.dns_cache_hit_rate == scenario.federation.resolver.cache.stats.hit_rate

    def test_sharded_pools_warm_slower_than_one_shared_pool(self):
        """More pools = colder caches: aggregate hit rate cannot improve."""
        def run(pools: int) -> float:
            scenario = _workload_scenario(cached=False)
            engine = WorkloadEngine(
                scenario, WorkloadConfig(clients=8, steps=3, seed=5, resolver_pools=pools)
            )
            return engine.run().dns_cache_hit_rate

        assert run(4) <= run(1)


class TestJitteredFleet:
    def test_jittered_run_is_deterministic_and_differs_from_fixed(self):
        def run(sigma: float) -> dict[str, float]:
            config = FederationConfig(latency=LatencyModel(jitter_sigma=sigma))
            scenario = build_scenario(store_count=2, city_rows=4, city_cols=4, config=config, seed=21)
            engine = WorkloadEngine(scenario, WorkloadConfig(clients=6, steps=3, seed=11))
            return engine.run().snapshot()

        jittered = run(0.4)
        assert jittered == run(0.4)  # same seed, same draws
        fixed = run(0.0)
        assert jittered["latency_ms.all.p99"] != fixed["latency_ms.all.p99"]


class TestRunTimeline:
    """Every actor of one composed run appends to one shared timeline, each
    entry once, and the report's tape counts agree with it."""

    @staticmethod
    def _run(operator: bool):
        scenario = build_scenario(
            store_count=2,
            city_rows=5,
            city_cols=5,
            config=FederationConfig(
                device_discovery_cache_ttl_seconds=30.0,
                registration_ttl_seconds=60.0,
                service_times=ServiceTimeModel(default_ms=2.0),
                server_queue_capacity=256,
                retry_policy=RetryPolicy.full_jitter(),
            ),
            seed=33,
            reuse_worlds=True,
            store_replicas=2,
        )
        store0 = scenario.store_replica_ids(0)
        first, second = scenario.store_replica_ids(1)
        scenario.federation.attach_warm_pool(sorted(scenario.federation.replica_groups)[0], 2)
        never_cut = FaultPlan.from_events([FaultEvent(30.0, FaultEventKind.HEAL_PARTITION, ("ghost.example",))])
        faults = FaultPlan.flash_crowd(store0, 20.0, 150.0, extra_load=300) + never_cut
        churn = ChurnSchedule.from_events(
            [
                ChurnEvent(40.0, ChurnEventKind.CRASH, first),
                ChurnEvent(90.0, ChurnEventKind.JOIN, first),
                ChurnEvent(100.0, ChurnEventKind.JOIN, second),  # never left: a no-op
            ]
        )
        control = ControlSchedule.from_events(
            [
                ControlEvent(50.0, ControlEventKind.DRAIN, second),
                ControlEvent(60.0, ControlEventKind.DRAIN, "ghost.example"),  # rejected
                ControlEvent(120.0, ControlEventKind.UNDRAIN, second),
            ]
        )
        config = WorkloadConfig(
            clients=32,
            steps=20,
            seed=7,
            step_seconds=10.0,
            resolver_pools=2,
            faults=faults,
            churn=churn,
            control=control,
            telemetry=TelemetryConfig(window_seconds=40.0, slo=SLOConfig(latency_ms=250.0)),
            autoscale=AutoscalerConfig(
                wait_high_ms=25.0,
                wait_low_ms=8.0,
                burn_high=0.0,
                breach_evals=1,
                recover_evals=2,
                cooldown_seconds=60.0,
                ramp_cooldown_seconds=30.0,
                park_delay_seconds=40.0,
            ),
            operator=OperatorConfig(transport="network", timeout_ms=400.0) if operator else None,
        )
        engine = WorkloadEngine(scenario, config)
        return engine, engine.run()

    @pytest.mark.parametrize("operator", [True, False])
    def test_one_timeline_each_entry_once(self, operator: bool):
        engine, report = self._run(operator)
        timeline = engine.timeline
        actors = [
            engine.fault_injector,
            engine.churn_controller,
            engine.control_plane,
            engine.autoscaler.control,
        ]
        if operator:
            # With an operator configured the scaler's batches always
            # travel the API, beside the control tape.
            assert isinstance(engine.autoscaler.control, OperatorControlAdapter)
            assert isinstance(engine.control_plane, NetworkedControlPlayer)
            actors.append(engine.operator_api.plane)
        else:
            assert engine.operator_api is None
        assert all(actor.timeline is timeline for actor in actors)
        assert len({id(entry) for entry in timeline}) == len(timeline)

        standbys = {sid for pool in engine.autoscaler.pools.values() for sid in pool.standby_ids}
        scaler = [e for e in timeline if e.source == "control" and e.subject in standbys]
        stats = report.autoscale_stats
        assert len(scaler) == stats["ops_applied"] + stats["ops_rejected"] > 0
        assert sum(entry.applied for entry in scaler) == stats["ops_applied"]

        tallies = Counter((e.source, e.applied) for e in timeline if e.subject not in standbys)
        assert tallies["faults", True] == report.fault_stats["events_applied"] == 2
        assert tallies["faults", False] == 1
        assert tallies["churn", True] == report.churn_events_applied == 2
        assert tallies["churn", False] == 1
        assert tallies["control", True] == report.control_stats["events_applied"] == 2
        assert tallies["control", False] == report.control_stats["events_rejected"] == 1
