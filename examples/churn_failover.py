"""Churn demo: servers crash mid-run, clients fail over to replicas.

Run with::

    python examples/churn_failover.py

Builds the standard federated scenario twice — each store as a single
server, then as a two-replica group — and subjects both to the same seeded
Poisson crash/rejoin schedule while a fleet issues traffic.  The printed
report shows what the paper's long-lived-registrant assumption hides: with
one replica, TTL-stale caches keep sending clients to dead servers and
requests fail; with two, the same churn costs only a measured failover
latency.
"""

from __future__ import annotations

from repro.churn import ChurnSchedule
from repro.core.config import FederationConfig
from repro.services.retry import RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

STORE_COUNT = 2
STEPS = 10
STEP_SECONDS = 20.0


def run(replicas: int):
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=120.0,
        client_tile_cache_entries=256,
        service_times=ServiceTimeModel(default_ms=2.0),
        retry_policy=RetryPolicy.utilization_aware(),
    )
    scenario = build_scenario(
        store_count=STORE_COUNT, city_rows=5, city_cols=5, config=config,
        seed=9, store_replicas=replicas,
    )
    eligible = [
        server_id
        for index in range(STORE_COUNT)
        for server_id in scenario.store_replica_ids(index)
    ]
    schedule = ChurnSchedule.poisson(
        eligible,
        rate_per_minute=3.0,
        horizon_seconds=STEPS * STEP_SECONDS,
        downtime_seconds=45.0,
        seed=5,
    )
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=30, steps=STEPS, seed=1, step_seconds=STEP_SECONDS,
            churn=schedule,
        ),
    )
    return engine.run()


def main() -> None:
    for replicas in (1, 2):
        report = run(replicas)
        availability = report.availability()
        print(f"=== {replicas} replica(s) per store, 3 crashes/min ===")
        print(f"requests: {report.requests + report.errors}, "
              f"churn events applied: {report.churn_events_applied}")
        print(f"failed-request rate: {availability['failed_request_rate']:.2%}  "
              f"(chains exhausted: {int(availability['failed_chains'])})")
        print(f"stale attempts on dead servers: {int(availability['stale_attempts'])}")
        if availability["failovers"]:
            print(f"failovers: {int(availability['failovers'])}  "
                  f"latency p50={availability['failover_p50_ms']:.0f}ms "
                  f"p95={availability['failover_p95_ms']:.0f}ms")
        if report.rediscoveries:
            print(f"crashed servers rediscovered after rejoin: {report.rediscoveries} "
                  f"(mean {availability['rediscovery_seconds_mean']:.0f}s)")
        print()


if __name__ == "__main__":
    main()
