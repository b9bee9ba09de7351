"""Cohort planning, config validation, and the large-fleet fast path.

The byte-identity half of the engine is gated by
``test_engine_equivalence.py``; this module covers the fast-path machinery
itself: cohort partitioning arithmetic, tracer weighting, phantom load
charging, and the fast path's scaling and determinism properties — plus
the configs :class:`WorkloadConfig` must reject at construction.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.operator.config import OperatorConfig
from repro.simulation.queueing import ServiceTimeModel
from repro.workload.cohort import Cohort, plan_cohorts
from repro.workload.config import WorkloadConfig
from repro.workload.engine import WorkloadEngine
from repro.workload.fleet import TRACERS_PER_COHORT, FleetBuilder
from repro.worldgen.scenario import build_scenario


def small_scenario(**kw):
    kw.setdefault("store_count", 2)
    kw.setdefault("city_rows", 4)
    kw.setdefault("city_cols", 4)
    kw.setdefault("seed", 33)
    kw.setdefault("reuse_worlds", True)
    return build_scenario(**kw)


class TestCohortPlanning:
    def test_partitions_exactly_and_picks_lowest_indices(self):
        assignments = [(i, ("m", i % 3), f"m{i % 3}") for i in range(100)]
        cohorts = plan_cohorts(assignments, tracers_per_cohort=4)
        assert sum(c.population for c in cohorts) == 100
        for cohort in cohorts:
            assert len(cohort.tracer_indices) == 4
            assert cohort.tracer_indices == sorted(cohort.tracer_indices)
            # Tracers are the cohort's lowest indices, so their RNG streams
            # are exactly the streams those devices own in an exact run.
            family = cohort.key[1]
            assert cohort.tracer_indices == [family, family + 3, family + 6, family + 9]

    def test_weights_sum_exactly_to_population(self):
        cohort = Cohort(key="k", label="k", population=103, tracer_indices=list(range(5)))
        weights = cohort.tracer_weights()
        assert sum(weights) == 103
        assert weights == [21, 21, 21, 20, 20]
        assert cohort.phantom_count == 98

    def test_small_cohort_has_no_phantoms(self):
        assignments = [(i, "only", "only") for i in range(3)]
        (cohort,) = plan_cohorts(assignments, tracers_per_cohort=16)
        assert cohort.tracer_indices == [0, 1, 2]
        assert cohort.phantom_count == 0
        assert cohort.tracer_weights() == [1, 1, 1]

    def test_rejects_zero_tracers(self):
        with pytest.raises(ValueError):
            plan_cohorts([], tracers_per_cohort=0)


def per_index_cohorts(builder: FleetBuilder, pool_count: int) -> list[Cohort]:
    """The oracle: ``plan_cohorts`` fed every device index, one by one."""

    def assignments():
        for index in range(builder.config.clients):
            spec = builder._mobility_spec(index)
            pool_index = index % pool_count
            label = f"{spec[0]}{spec[1]}-pool{pool_index}"
            yield index, (spec, pool_index), label

    return plan_cohorts(assignments(), TRACERS_PER_COHORT)


def cohort_rows(cohorts: list[Cohort]) -> list[tuple]:
    return [(c.key, c.label, c.population, c.tracer_indices) for c in cohorts]


class TestPeriodicPlanning:
    """``FleetBuilder.plan`` walks one period per tracer, not every index;
    it must still give exactly what the per-index pass gives."""

    @pytest.mark.parametrize("long_traces", [False, True])
    @pytest.mark.parametrize("resolver_pools", [1, 2, 3, 4])
    @pytest.mark.parametrize("store_count", [1, 2, 3, 4])
    def test_matches_per_index_pass(self, store_count, resolver_pools, long_traces):
        scenario = small_scenario(store_count=store_count)
        period = FleetBuilder(scenario, WorkloadConfig())._cohort_period(resolver_pools)
        head = period * TRACERS_PER_COHORT
        for clients in (1, period - 1, period, head - 1, head, head + 1, 12_345, 200_000):
            config = WorkloadConfig(
                clients=clients, resolver_pools=resolver_pools, long_traces=long_traces
            )
            builder = FleetBuilder(scenario, config)
            assert cohort_rows(builder.plan(resolver_pools)) == cohort_rows(
                per_index_cohorts(builder, resolver_pools)
            ), clients

    def test_million_client_build_walks_periods_not_indices(self, monkeypatch):
        calls = 0
        mobility_spec = FleetBuilder._mobility_spec

        def counted(self, index):
            nonlocal calls
            calls += 1
            return mobility_spec(self, index)

        monkeypatch.setattr(FleetBuilder, "_mobility_spec", counted)
        scenario = small_scenario()
        engine = WorkloadEngine(scenario, WorkloadConfig(clients=1_000_000, seed=7))
        assert engine._cohort_mode
        assert sum(c.population for c in engine.cohorts) == 1_000_000
        period = FleetBuilder(scenario, engine.config)._cohort_period(1)
        assert period == 6
        assert calls <= period * (TRACERS_PER_COHORT + 1)


class TestConfigValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            WorkloadConfig(cohort_min_clients=0)

    def test_rejects_fault_region_no_device_lives_in(self):
        """A device's region is ``index % resolver_pools``; a partition
        scoped to a region beyond that would apply and cut nobody."""
        plan = FaultPlan.partition(("a",), 10.0, 50.0, regions=(0, 2))
        with pytest.raises(ValueError, match="client region 2"):
            WorkloadConfig(resolver_pools=2, faults=plan)
        WorkloadConfig(resolver_pools=3, faults=plan)

    def test_rejects_operator_region_no_device_lives_in(self):
        with pytest.raises(ValueError, match="operator region 1"):
            WorkloadConfig(operator=OperatorConfig(region=1))
        WorkloadConfig(resolver_pools=2, operator=OperatorConfig(region=1))


class TestCohortFastPath:
    def cohort_config(self, clients: int = 600, **kw) -> WorkloadConfig:
        kw.setdefault("steps", 3)
        kw.setdefault("seed", 7)
        kw.setdefault("cohort_min_clients", 500)  # force the fast path small
        return WorkloadConfig(clients=clients, **kw)

    def test_fleet_materializes_only_tracers(self):
        engine = WorkloadEngine(small_scenario(), self.cohort_config())
        assert engine._cohort_mode
        assert engine.cohorts
        tracers = sum(len(c.tracer_indices) for c in engine.cohorts)
        assert len(engine.fleet) == tracers < engine.config.clients
        assert sum(d.weight for d in engine.fleet) == engine.config.clients
        # Fleet order is index order regardless of cohort discovery order.
        indices = [d.index for d in engine.fleet]
        assert indices == sorted(indices)

    def test_report_carries_sampling_telemetry(self):
        engine = WorkloadEngine(small_scenario(), self.cohort_config())
        report = engine.run()
        assert report.sampling["fleet_clients"] == 600.0
        assert report.sampling["tracers"] == float(len(engine.fleet))
        assert report.sampling["cohorts"] == float(len(engine.cohorts))
        assert report.sampling["max_weight"] >= 1.0
        snapshot = report.snapshot()
        assert snapshot["sampling.fleet_clients"] == 600.0

    def test_cohort_runs_are_deterministic(self):
        def run() -> str:
            engine = WorkloadEngine(small_scenario(), self.cohort_config())
            return json.dumps(engine.run().snapshot(), sort_keys=True)

        assert run() == run()

    def test_weighted_counters_scale_with_population(self):
        """Doubling the fleet roughly doubles weighted request counts even
        though the simulated tracer count stays fixed."""

        def requests(clients: int) -> float:
            engine = WorkloadEngine(small_scenario(), self.cohort_config(clients=clients))
            return engine.run().snapshot()["requests"]

        small, large = requests(600), requests(1200)
        assert large == pytest.approx(2 * small, rel=0.05)

    def test_streaming_histograms_auto_enabled(self):
        engine = WorkloadEngine(small_scenario(), self.cohort_config())
        assert engine.metrics.streaming_histograms
        exact = WorkloadEngine(small_scenario(), WorkloadConfig(clients=10, seed=7))
        assert not exact.metrics.streaming_histograms

    def test_phantom_load_lands_on_server_queues(self):
        """With a queue model, phantom jobs must show up as real server-side
        arrivals: queue arrivals scale with the fleet, not the tracer count."""
        fed = FederationConfig(
            service_times=ServiceTimeModel(default_ms=1.0),
            server_queue_capacity=100_000,
        )

        def total_arrivals(clients: int) -> float:
            scenario = small_scenario(config=fed, reuse_worlds=False)
            engine = WorkloadEngine(scenario, self.cohort_config(clients=clients))
            engine.run()
            return sum(
                server.queue.stats.arrivals
                for server in scenario.federation.all_servers.values()
                if server.queue is not None
            )

        small, large = total_arrivals(600), total_arrivals(1800)
        assert large == pytest.approx(3 * small, rel=0.1)

    def test_scales_to_100k_clients_quickly(self):
        """The tentpole's scale target: a 100k-client fleet must build and
        run in interactive time (seconds, not minutes)."""
        started = time.perf_counter()
        engine = WorkloadEngine(
            small_scenario(), WorkloadConfig(clients=100_000, steps=2, seed=7)
        )
        report = engine.run()
        elapsed = time.perf_counter() - started
        assert report.sampling["fleet_clients"] == 100_000.0
        assert report.snapshot()["requests"] > 100_000.0
        assert elapsed < 30.0  # ~0.3 s in practice; huge headroom for CI noise
