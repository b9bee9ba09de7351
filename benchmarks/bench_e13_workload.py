"""E13 — workload engine: client fleets, tail latency and server saturation.

Sweeps fleet size with the mixed search/route/tile/localize workload and
compares cached against uncached discovery, reporting p50/p95/p99 request
latency (including server-side queueing delay), the hit-rates of the three
cache layers (device discovery cache, client tile LRU, resolver DNS cache),
and — new with the server-side load model — per-map-server utilization,
queue depth and dropped requests, so the sweep shows *where the servers
saturate* rather than only what clients observe.

Runs through ``harness.main``: ``--smoke`` is the seconds-scale sweep whose
output *is* the committed, byte-gated ``BENCH_e13.json``; no flag runs
10 → 10,000 clients (~40 s) into the git-ignored ``BENCH_e13_full.json``.
"""

from __future__ import annotations

from types import SimpleNamespace

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from _util import check_md1_sanity
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
"""Per-request service times for the map-server load model.

Small against the 50 ms WAN round trip, so small fleets still measure the
network; at thousands of concurrent clients per round the per-server work
adds up and the queueing delay (then the drop rate) exposes the saturation
knee.
"""

SERVER_QUEUE_CAPACITY = 256
"""Deeper than the library default (64): the deterministic fleet issues
requests in near-lockstep phases, so a shallow buffer sheds load well before
the service rate itself saturates.  256 keeps drops a signal of genuine
saturation (thousands of clients) rather than phase alignment."""

def build_workload_scenario(cached: bool, seed: int = WORLD_SEED, loaded: bool = True):
    """The standard E13 world, with client caches and the server load model."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=DEVICE_CACHE_TTL_SECONDS if cached else 0.0,
        client_tile_cache_entries=TILE_CACHE_ENTRIES if cached else 0,
        service_times=SERVICE_TIMES if loaded else None,
        server_queue_capacity=SERVER_QUEUE_CAPACITY,
    )
    return build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=seed,
        reuse_worlds=True,
    )


def run_fleet(
    clients: int,
    steps: int,
    cached: bool,
    seed: int = WORKLOAD_SEED,
    loaded: bool = True,
) -> dict[str, object]:
    """Run one fleet and distill the results row the sweep tables print."""
    scenario = build_workload_scenario(cached, loaded=loaded)
    engine = WorkloadEngine(
        scenario, WorkloadConfig(clients=clients, steps=steps, seed=seed)
    )
    report = engine.run()
    tail = report.latency_percentiles()
    utilizations = [s.get("utilization", 0.0) for s in report.server_stats.values()]
    depths = [s.get("max_depth", 0.0) for s in report.server_stats.values()]
    return {
        "clients": clients,
        "cached": str(cached),
        "requests": report.requests,
        "errors": report.errors,
        "dropped": report.dropped_requests,
        "p50_ms": tail["p50"],
        "p95_ms": tail["p95"],
        "p99_ms": tail["p99"],
        "util_max": max(utilizations, default=0.0),
        "qdepth_max": max(depths, default=0.0),
        "disc_hit_rate": report.discovery_cache_hit_rate,
        "tile_hit_rate": report.tile_cache_hit_rate,
        "dns_hit_rate": report.dns_cache_hit_rate,
        # Carried for the JSON artifact (dropped from the printed table).
        "_server_stats": report.server_stats,
        "_simulated_seconds": report.simulated_seconds,
        "_snapshot_digest": digest(report.snapshot()),
    }


def sweep(fleet_sizes: list[int], steps: int) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for clients in fleet_sizes:
        for cached in (False, True):
            rows.append(run_fleet(clients, steps, cached))
    return rows


def payload(rows: list[dict[str, object]], steps: int) -> dict[str, object]:
    """The machine-readable sweep artifact future PRs can diff."""
    return {
        "experiment": "E13",
        "description": "fleet sweep with server-side queueing model",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "steps": steps,
        "service_times_ms": {
            "default": SERVICE_TIMES.default_ms,
            **dict(SERVICE_TIMES.per_kind_ms),
        },
        "server_queue_capacity": SERVER_QUEUE_CAPACITY,
        "rows": [
            {
                "clients": row["clients"],
                "cached": row["cached"] == "True",
                "requests": row["requests"],
                "errors": row["errors"],
                "dropped": row["dropped"],
                "latency_ms": {
                    "p50": row["p50_ms"],
                    "p95": row["p95_ms"],
                    "p99": row["p99_ms"],
                },
                "cache_hit_rates": {
                    "discovery": row["disc_hit_rate"],
                    "tiles": row["tile_hit_rate"],
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
    uncached = [row for row in rows if row["cached"] == "False"]
    cached = [row for row in rows if row["cached"] == "True"]
    for before, after in zip(uncached, cached):
        if before["disc_hit_rate"] != 0.0 or after["disc_hit_rate"] <= 0.3:
            failures.append(
                f"{after['clients']} clients: device-cache hit rate {before['disc_hit_rate']:.3f} uncached / "
                f"{after['disc_hit_rate']:.3f} cached (need 0.0 with the cache off, > 0.3 with it on)"
            )
        if after["p50_ms"] > before["p50_ms"]:
            failures.append(
                f"{after['clients']} clients: cached p50 {after['p50_ms']:.1f} ms "
                f"above uncached {before['p50_ms']:.1f} ms"
            )
    if rows[0]["clients"] != rows[-1]["clients"]:
        smallest = [r for r in rows if r["clients"] == rows[0]["clients"]]
        largest = [r for r in rows if r["clients"] == rows[-1]["clients"]]

        def worst_mean_wait(fleet):
            return max(stats["mean_wait_ms"] for r in fleet for stats in r["_server_stats"].values())

        if max(r["util_max"] for r in largest) <= max(r["util_max"] for r in smallest):
            failures.append("server utilization did not grow with fleet size")
        if worst_mean_wait(largest) <= worst_mean_wait(smallest):
            failures.append("server queueing delay did not grow with fleet size")
        if max(r["qdepth_max"] for r in largest) < max(r["qdepth_max"] for r in smallest):
            failures.append("server queue depth shrank as the fleet grew")
    # Analytic sanity: below saturation, measured mean waits must sit within
    # the M/D/1 (Pollaczek–Khinchine) band — Poisson lower bound to
    # one-batch-per-round upper bound.
    for row in rows:
        for failure in check_md1_sanity(row["_server_stats"], steps):
            failures.append(f"M/D/1 sanity ({row['clients']} clients, cached={row['cached']}): {failure}")
    return failures


def run(smoke: bool) -> SimpleNamespace:
    fleet_sizes, steps = ([10, 50], 3) if smoke else ([10, 100, 1000, 10_000], 4)
    return SimpleNamespace(rows=sweep(fleet_sizes, steps), steps=steps)


def rerun(s: SimpleNamespace) -> tuple[str, str]:
    """Determinism: the cheapest cached cell must reproduce exactly."""
    reference = next(row for row in s.rows if row["cached"] == "True")  # fleets run smallest first
    return reference["_snapshot_digest"], run_fleet(reference["clients"], s.steps, cached=True)["_snapshot_digest"]


EXPERIMENT = Experiment(
    id="E13",
    doc=__doc__,
    run=run,
    tables=lambda s: [("E13 workload sweep (cached vs uncached discovery)", s.rows)],
    verify=lambda s: verify(s.rows, s.steps),
    rerun=rerun,
    payload=lambda s: payload(s.rows, s.steps),
    ok=lambda s: "cached discovery wins at every fleet size and server load grows toward saturation",
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
