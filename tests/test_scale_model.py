"""The scale model's evidence: 1/k of the fleet on 1/k of the workers.

SHRiNK (Pan, Prabhakar, Psounis and Wischik, INFOCOM 2003): sample a
network's flows by k and scale its capacities by the same k, and queueing
delays and drop rates are preserved.  Here on E16's world at its cheap end,
k = 2, on today's exact per-device path: 3,000 clients on 2 workers per
server against 1,500 on 1, the same 3 steps, workload seed 7.  Each band is
the gap measured over seeds 7 and 11, plus the margin stated beside it; the
run is deterministic, so a margin is room for what the model claims, not for
noise.  ROADMAP item 17 builds the fleet-path change on this evidence.

Measured (seed 7 / seed 11; 3,000 on 2 vs 1,500 on 1):

* failed turns 10.63% vs 10.76% / 10.02% vs 10.64%;
* drop share 0.446 vs 0.466 / 0.450 vs 0.470;
* p50 244 vs 244 / 244 vs 236 sim-ms; p95 1336 vs 1282 / 1310 vs 1294;
* mean wait per server, city / store-0 / store-1, ms:
  245 / 78.9 / 331 vs 209 / 62.6 / 361, and 253 / 66.7 / 308 vs 201 / 62.3 / 362.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench_e16_scale as e16  # noqa: E402
from repro.core.config import FederationConfig  # noqa: E402
from repro.workload.config import WorkloadConfig  # noqa: E402
from repro.workload.engine import WorkloadEngine  # noqa: E402
from repro.workload.report import WorkloadReport  # noqa: E402
from repro.worldgen.scenario import build_scenario  # noqa: E402

K = 2
FULL = (3_000, 2)
"""``(clients, workers per server)`` of the run the model stands for."""
SCALED = (FULL[0] // K, FULL[1] // K)
STEPS = 3
SEED = 7

FAILED_TURNS_BAND = 0.0075
"""Absolute, on the failed-turn rate: measured worst 0.62 pp (seed 11), margin 0.13 pp."""
DROP_SHARE_BAND = 0.025
"""Absolute, on dropped / arrivals over all servers: measured worst 0.020, margin 0.005."""
PERCENTILE_BAND = 0.05
"""Relative to the full run, on p50 and p95: measured worst 4.1% (p95, seed 7);
the margin to 5% is the streaming histogram's own resolution."""
WAIT_BAND = 0.25
"""Relative to the full run, on each server's mean wait: measured worst 20.7%
(the city map, seed 11), margin 4.3 pp.  The loosest of the five, as
measured: the smaller run's waits are 7–21% lower on two servers and 9–18%
higher on the third."""


@pytest.fixture(scope="module")
def reports() -> dict[tuple[int, int], WorkloadReport]:
    """The full and the scaled run, on the exact path."""
    runs = {}
    for clients, workers in (FULL, SCALED):
        config = FederationConfig(
            device_discovery_cache_ttl_seconds=e16.DEVICE_CACHE_TTL_SECONDS,
            client_tile_cache_entries=e16.TILE_CACHE_ENTRIES,
            service_times=e16.SERVICE_TIMES,
            server_queue_capacity=e16.SERVER_QUEUE_CAPACITY,
            server_workers=workers,
        )
        scenario = build_scenario(
            store_count=2, city_rows=5, city_cols=5, config=config, seed=e16.WORLD_SEED, reuse_worlds=True
        )
        engine = WorkloadEngine(
            scenario, WorkloadConfig(clients=clients, steps=STEPS, seed=SEED, cohort_min_clients=10**9)
        )
        runs[(clients, workers)] = engine.run()
    return runs


def failed_turns(report: WorkloadReport, clients: int) -> float:
    return report.errors / (clients * STEPS)


def drop_share(report: WorkloadReport) -> float:
    arrivals = sum(stats["arrivals"] for stats in report.server_stats.values())
    return report.dropped_requests / arrivals


def test_both_runs_are_exact_and_saturated(reports):
    for (clients, _), report in reports.items():
        assert not report.sampling
        assert report.requests + report.errors == clients * STEPS
        assert report.dropped_requests > 0


def test_the_failed_turn_rate_is_preserved(reports):
    full, scaled = reports[FULL], reports[SCALED]
    assert failed_turns(scaled, SCALED[0]) == pytest.approx(failed_turns(full, FULL[0]), abs=FAILED_TURNS_BAND)


def test_the_drop_share_is_preserved(reports):
    assert drop_share(reports[SCALED]) == pytest.approx(drop_share(reports[FULL]), abs=DROP_SHARE_BAND)


@pytest.mark.parametrize("percentile", ["p50", "p95"])
def test_latency_percentiles_are_preserved(reports, percentile):
    full = reports[FULL].latency_percentiles()[percentile]
    scaled = reports[SCALED].latency_percentiles()[percentile]
    assert scaled == pytest.approx(full, rel=PERCENTILE_BAND)


def test_each_servers_mean_wait_is_preserved(reports):
    full, scaled = reports[FULL].server_stats, reports[SCALED].server_stats
    assert sorted(full) == sorted(scaled)
    for server_id in sorted(full):
        expected = full[server_id]["mean_wait_ms"]
        assert scaled[server_id]["mean_wait_ms"] == pytest.approx(expected, rel=WAIT_BAND), server_id
