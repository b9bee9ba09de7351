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

Runs three ways:

* under pytest-benchmark like the other experiments;
* standalone: ``python benchmarks/bench_e16_scale.py [--smoke]`` —
  ``--smoke`` runs 20k and 100k clients in seconds (used by
  ``scripts/check.sh`` under the ``E16_SMOKE_BUDGET_SECONDS`` wall-clock
  budget); the smoke sweep *is* the committed ``BENCH_e16.json``
  artifact, byte-for-byte gated like E13/E14/E15;
* the full sweep (no flags) runs 100k → 1,000,000 clients; it writes
  ``BENCH_e16_full.json`` so exploration never clobbers the gated file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import FederationConfig
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _util import print_table  # noqa: E402

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

DEFAULT_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_e16.json"
"""The committed, check.sh-gated artifact — written by the *smoke* sweep."""
FULL_JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_e16_full.json"
"""Default output of the full (1M-client) sweep."""


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
    report = engine.run()
    wall_seconds = time.perf_counter() - started
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
        "_clients_per_second": clients * steps / wall_seconds if wall_seconds else 0.0,
        "_server_stats": report.server_stats,
        "_simulated_seconds": report.simulated_seconds,
        "_sampling": dict(report.sampling),
    }


def sweep(fleet_sizes: list[int], steps: int) -> list[dict[str, object]]:
    return [run_fleet(clients, steps) for clients in fleet_sizes]


def table_rows(rows: list[dict[str, object]]) -> list[dict[str, object]]:
    return [
        {key: value for key, value in row.items() if not key.startswith("_")}
        for row in rows
    ]


def emit_json(rows: list[dict[str, object]], steps: int, path: Path) -> None:
    """Write the machine-readable sweep artifact future PRs can diff."""
    payload = {
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_e16_100k_smoke(benchmark):
    """100k clients run on the cohort fast path in interactive time."""
    row = run_fleet(clients=100_000, steps=3)
    print_table("E16 100k-client smoke", table_rows([row]))
    assert row["requests"] > 250_000
    assert row["tracers"] < 1_000  # the whole point: simulate few, charge many
    assert row["_clients_per_second"] > 160_000  # a third of the measured ~490k
    benchmark.extra_info["clients_per_second"] = row["_clients_per_second"]
    benchmark(lambda: run_fleet(clients=20_000, steps=2))


def test_e16_weighted_totals_scale_linearly(benchmark):
    """Weighted request totals grow ~linearly in fleet size (exact integral
    weights: no sampling drift in the counters)."""
    small = run_fleet(clients=20_000, steps=3)
    large = run_fleet(clients=100_000, steps=3)
    ratio = large["requests"] / small["requests"]
    assert 4.5 < ratio < 5.5
    benchmark(lambda: run_fleet(clients=20_000, steps=2))


def test_e16_deterministic_snapshot(benchmark):
    """Fixed seed → byte-identical snapshot on the cohort fast path too."""

    def one_run():
        scenario = build_scale_scenario(20_000)
        engine = WorkloadEngine(
            scenario, WorkloadConfig(clients=20_000, steps=3, seed=WORKLOAD_SEED)
        )
        return engine.run().snapshot()

    assert one_run() == one_run()
    benchmark(lambda: run_fleet(clients=20_000, steps=2))


# ----------------------------------------------------------------------
# Standalone mode
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="20k + 100k clients (finishes in seconds) for CI smoke checks",
    )
    parser.add_argument("--steps", type=int, default=None, help="steps per client (>= 1)")
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help=f"where to write the sweep artifact (smoke default {DEFAULT_JSON_PATH.name} "
        f"— the committed, byte-for-byte-gated artifact; full-sweep default "
        f"{FULL_JSON_PATH.name} so exploration never clobbers the gated file)",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="skip writing the JSON artifact"
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) if the sweep takes longer than this wall-clock budget",
    )
    args = parser.parse_args(argv)
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")

    if args.smoke:
        fleet_sizes = [20_000, 100_000]
        steps = args.steps if args.steps is not None else 3
    else:
        fleet_sizes = [100_000, 500_000, 1_000_000]
        steps = args.steps if args.steps is not None else 3

    started = time.perf_counter()
    rows = sweep(fleet_sizes, steps)
    elapsed = time.perf_counter() - started
    print_table("E16 scale sweep (cohort fast path)", table_rows(rows))

    json_path = args.json if args.json is not None else (DEFAULT_JSON_PATH if args.smoke else FULL_JSON_PATH)
    if not args.no_json:
        emit_json(rows, steps, json_path)
        print(f"\nwrote {json_path}")

    failures = []
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
    biggest = rows[-1]
    if biggest["util_max"] <= 0.0:
        failures.append("no server-side load measured at the largest fleet")
    if args.budget_seconds is not None and elapsed > args.budget_seconds:
        failures.append(
            f"sweep took {elapsed:.1f}s, over the {args.budget_seconds:.1f}s budget "
            "(fast-path regression?)"
        )

    headline = max(row["_clients_per_second"] for row in rows)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"\nOK: {biggest['clients']:,} clients on {biggest['tracers']} tracers, "
        f"peak {headline:,.0f} simulated client-steps/s, "
        f"max server utilization {biggest['util_max']:.2f} ({elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
