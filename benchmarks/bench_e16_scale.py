"""E16 — scale: 100k-client smoke, 1M-client sweep on the cohort fast path.

The event-driven engine's cohort fast path (tracers + batched phantom
load) is what turns the workload engine from a ~5k-client tool into one
that runs 100,000 clients inside a CI smoke budget and a million in a
full sweep.  This benchmark measures exactly that: fleet sizes far above
the cohort threshold, servers provisioned proportionally to the fleet
(workers scale with clients, as a real deployment's would), reporting the
clients-per-second simulation rate as the headline alongside weighted
request counts, streaming-histogram latency tails, and measured
server-side saturation (utilization / queue depth / drops, including the
phantom load charged in batch).

Runs through ``harness.main``: ``--smoke`` runs 20k and 100k clients in
seconds, under a budget (``registry.py``, ≈3x measured) that losing the fast
path overruns, and its output *is* the committed, byte-gated
``BENCH_e16.json``; no flag runs 100k → 1,000,000 clients into the
git-ignored ``BENCH_e16_full.json``.
"""

from __future__ import annotations

import time

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from repro.core.config import FederationConfig
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

WORLD_SEED = 33
WORKLOAD_SEED = 7
DEVICE_CACHE_TTL_SECONDS = 120.0
TILE_CACHE_ENTRIES = 256

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={
        "search": 1.5,
        "routing": 4.0,
        "tiles": 0.5,
        "localization": 2.5,
    },
)
"""E13's per-request service times, unchanged, so E16's saturation numbers
compose with the small-fleet sweep's."""

CLIENTS_PER_WORKER = 2000
"""Server provisioning rule: one queue worker per 2000 clients (min 2).

Scale runs measure *relative* saturation: a fixed single worker would pin
every fleet size at 100% utilization and the sweep would only measure the
drop counter.  Scaling capacity with the fleet — as a real operator would —
keeps utilization in the informative range while still letting the biggest
fleets push into the knee."""

SERVER_QUEUE_CAPACITY = 512
"""Per-worker queue slots; deep enough that drops mean sustained overload,
not a single lockstep round's phase alignment."""


def workers_for(clients: int) -> int:
    return max(2, clients // CLIENTS_PER_WORKER)


def build_scale_scenario(clients: int, seed: int = WORLD_SEED):
    """The E13 world with fleet-proportional server capacity."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=DEVICE_CACHE_TTL_SECONDS,
        client_tile_cache_entries=TILE_CACHE_ENTRIES,
        service_times=SERVICE_TIMES,
        server_queue_capacity=SERVER_QUEUE_CAPACITY,
        server_workers=workers_for(clients),
    )
    return build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=seed,
        reuse_worlds=True,
    )


def run_fleet(clients: int, steps: int, seed: int = WORKLOAD_SEED) -> dict[str, object]:
    """Run one large fleet on the cohort fast path and distill the row."""
    started = time.perf_counter()
    scenario = build_scale_scenario(clients)
    engine = WorkloadEngine(
        scenario, WorkloadConfig(clients=clients, steps=steps, seed=seed)
    )
    built = time.perf_counter()
    report = engine.run()
    finished = time.perf_counter()
    wall_seconds = finished - started
    if not report.sampling:
        raise AssertionError(
            f"{clients} clients ran on the exact path; E16 measures the cohort fast path"
        )
    tail = report.latency_percentiles()
    utilizations = [s.get("utilization", 0.0) for s in report.server_stats.values()]
    return {
        "clients": clients,
        "requests": report.requests,
        "errors": report.errors,
        "dropped": report.dropped_requests,
        "p50_ms": tail["p50"],
        "p95_ms": tail["p95"],
        "p99_ms": tail["p99"],
        "util_max": max(utilizations, default=0.0),
        "workers": workers_for(clients),
        "tracers": int(report.sampling["tracers"]),
        "max_weight": int(report.sampling["max_weight"]),
        "disc_hit_rate": report.discovery_cache_hit_rate,
        "dns_hit_rate": report.dns_cache_hit_rate,
        # Wall-clock fields stay out of the committed artifact; the
        # clients-per-second headline is printed, never written.
        "_wall_seconds": wall_seconds,
        # World plus fleet build, then the rounds: an O(clients) set-up step
        # shows in the first.
        "_build_seconds": built - started,
        "_run_seconds": finished - built,
        "_clients_per_second": clients * steps / wall_seconds if wall_seconds else 0.0,
        "_server_stats": report.server_stats,
        "_simulated_seconds": report.simulated_seconds,
        "_sampling": dict(report.sampling),
        "_snapshot_digest": digest(report.snapshot()),
    }


def sweep(fleet_sizes: list[int], steps: int) -> list[dict[str, object]]:
    return [run_fleet(clients, steps) for clients in fleet_sizes]


def payload(rows: list[dict[str, object]], steps: int) -> dict[str, object]:
    """The machine-readable sweep artifact future PRs can diff."""
    return {
        "experiment": "E16",
        "description": "large-fleet scale sweep on the cohort fast path",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "steps": steps,
        "clients_per_worker": CLIENTS_PER_WORKER,
        "server_queue_capacity": SERVER_QUEUE_CAPACITY,
        "rows": [
            {
                "clients": row["clients"],
                "requests": row["requests"],
                "errors": row["errors"],
                "dropped": row["dropped"],
                "latency_ms": {
                    "p50": row["p50_ms"],
                    "p95": row["p95_ms"],
                    "p99": row["p99_ms"],
                },
                "workers": row["workers"],
                "sampling": row["_sampling"],
                "cache_hit_rates": {
                    "discovery": row["disc_hit_rate"],
                    "dns": row["dns_hit_rate"],
                },
                "servers": row["_server_stats"],
                # Deliberately no wall-clock fields: the artifact must be
                # byte-identical across runs (check.sh enforces it).
                "simulated_seconds": row["_simulated_seconds"],
            }
            for row in rows
        ],
    }


def verify(rows: list[dict[str, object]], steps: int) -> list[str]:
    """The experiment's claims, checked on a sweep's rows."""
    failures: list[str] = []
    for row in rows:
        expected = row["clients"] * steps
        accounted = row["requests"] + row["errors"]
        # Weighted totals must account for every simulated device-step
        # (skipped zero-length routes are the only legitimate shortfall).
        if not 0.9 * expected <= accounted <= 1.001 * expected:
            failures.append(
                f"{row['clients']} clients: weighted totals {accounted:.0f} "
                f"do not account for {expected} device-steps"
            )
        # The whole point of the fast path: simulate few, charge many.
        if row["tracers"] >= 1_000:
            failures.append(f"{row['clients']} clients ran on {row['tracers']} tracers (fast path: < 1,000)")
    if rows[-1]["util_max"] <= 0.0:
        failures.append("no server-side load measured at the largest fleet")
    return failures


STEPS = 3


def run(smoke: bool) -> list[dict[str, object]]:
    return sweep([20_000, 100_000] if smoke else [100_000, 500_000, 1_000_000], STEPS)


def rerun(rows: list[dict[str, object]]) -> tuple[str, str]:
    """Determinism: the smallest fleet must reproduce exactly."""
    return rows[0]["_snapshot_digest"], run_fleet(rows[0]["clients"], STEPS)["_snapshot_digest"]


def ok(rows: list[dict[str, object]]) -> str:
    biggest = rows[-1]
    headline = max(row["_clients_per_second"] for row in rows)
    return (
        f"{biggest['clients']:,} clients on {biggest['tracers']} tracers, "
        f"peak {headline:,.0f} simulated client-steps/s, "
        f"max server utilization {biggest['util_max']:.2f}; "
        f"biggest row built in {biggest['_build_seconds']:.2f} s, "
        f"ran in {biggest['_run_seconds']:.2f} s"
    )


EXPERIMENT = Experiment(
    id="E16",
    doc=__doc__,
    run=run,
    tables=lambda rows: [("E16 scale sweep (cohort fast path)", rows)],
    verify=lambda rows: verify(rows, STEPS),
    rerun=rerun,
    payload=lambda rows: payload(rows, STEPS),
    ok=ok,
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
