"""Autoscaling demo: a flash crowd absorbed by warm-pool promotion.

Run with::

    python examples/autoscale_flashcrowd.py

Builds the standard two-store federated scenario, attaches a warm pool of
two zero-weight standby replicas to store 0, and aims a flash crowd at
store 0's base replicas for 60–240 s of simulated time.  The closed-loop
:class:`~repro.autoscale.Autoscaler` watches only the telemetry roll-ups
(zonal queue-wait and shed-rate over sealed windows — never the engine's
raw ``server_stats``) and reacts through the operator control plane:
promote standbys into the serving set while the crowd squeezes the zone,
ramp them back down the 4→2→1→0 weight ladder once it ebbs, and park the
drained standbys back into the pool.

The demo prints three views of one run:

* a per-window **zone pressure timeline** (mean queue-wait as an ASCII
  bar, shed rate, and how many replicas were serving) — the before /
  during / after picture of the crowd;
* the scaler's **action log**, straight from the control plane's audit
  trail (every decision is a batched, auditable operator op);
* the **closing stats**: promotions, ramp steps, parks, flaps (zero —
  hysteresis and cooldowns absorb TTL-delayed client convergence), and
  the replica-seconds the elasticity actually cost.
"""

from __future__ import annotations

import argparse

from repro.autoscale import AutoscalerConfig
from repro.autoscale.scaler import ZONE_LEVEL
from repro.core.config import FederationConfig
from repro.faults.schedule import FaultPlan
from repro.services.retry import RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.telemetry.spatial import server_zonal
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

CROWD_START_S = 60.0
CROWD_END_S = 240.0
BASE_REPLICAS = 2
"""The crowd is pinned to the group's base replicas (deployed capacity
must not change offered load — same discipline as BENCH_e19)."""

BAR_GLYPH = "#"
BAR_FULL_MS = 160.0
"""Queue-wait that renders as a full-width pressure bar."""


def build_run(clients: int = 24, steps: int = 36):
    """One flash-crowd run with the autoscaler on; returns (engine, report)."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=30.0,
        registration_ttl_seconds=60.0,
        client_tile_cache_entries=256,
        service_times=ServiceTimeModel(
            default_ms=2.0,
            per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
        ),
        server_queue_capacity=256,
        retry_policy=RetryPolicy.full_jitter(),
    )
    scenario = build_scenario(
        store_count=2,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=33,
        reuse_worlds=True,
        store_replicas=BASE_REPLICAS,
    )
    federation = scenario.federation
    group_id = sorted(federation.replica_groups)[0]
    federation.attach_warm_pool(group_id, 2)
    crowd_targets = tuple(scenario.store_replica_ids(0)[:BASE_REPLICAS])
    workload = WorkloadConfig(
        clients=clients,
        steps=steps,
        seed=7,
        step_seconds=20.0,
        resolver_pools=2,
        faults=FaultPlan.flash_crowd(crowd_targets, CROWD_START_S, CROWD_END_S, extra_load=300),
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
    )
    engine = WorkloadEngine(scenario, workload)
    return engine, engine.run()


def pressure_timeline(engine, width: int = 24) -> list[str]:
    """Per sealed window: the hottest zone's wait bar, shed rate, and the
    serving-weight roster the scaler left behind by window end."""
    scaler = engine.autoscaler
    pipeline = engine.telemetry
    serving_by_time = _serving_counts(scaler)
    lines = [
        f"{'window':>13s}  {'crowd':>5s}  {'wait_ms':>8s}  {'shed':>5s}  "
        f"{'serving':>7s}  pressure"
    ]
    base_serving = BASE_REPLICAS
    for window in pipeline.windows:
        zonal = server_zonal((window,), pipeline.server_cells, ZONE_LEVEL)
        wait = max((zone["mean_wait_ms"] for zone in zonal.values()), default=0.0)
        shed = max((zone["shed_rate"] for zone in zonal.values()), default=0.0)
        in_crowd = window.start_seconds < CROWD_END_S and window.end_seconds > CROWD_START_S
        serving = base_serving + _serving_at(serving_by_time, window.end_seconds)
        bar = BAR_GLYPH * min(width, round(wait / BAR_FULL_MS * width))
        lines.append(
            f"{window.start_seconds:5.0f}–{window.end_seconds:<5.0f}s  "
            f"{'yes' if in_crowd else '':>5s}  {wait:8.1f}  {shed:5.2f}  "
            f"{serving:>7d}  {bar}"
        )
    return lines


def _serving_counts(scaler) -> list[tuple[float, int]]:
    """(time, extra serving standbys) steps recovered from the action log."""
    weights: dict[str, int] = {}
    steps: list[tuple[float, int]] = []
    standbys = {
        standby for pool in scaler.pools.values() for standby in pool.standby_ids
    }
    for event in scaler.control.timeline:
        if event.source != "control" or not event.applied or event.subject not in standbys:
            continue
        weights[event.subject] = event.weight
        steps.append((event.at_seconds, sum(1 for w in weights.values() if w > 0)))
    return steps


def _serving_at(steps: list[tuple[float, int]], instant: float) -> int:
    serving = 0
    for at_seconds, count in steps:
        if at_seconds > instant:
            break
        serving = count
    return serving


def action_log(scaler) -> list[str]:
    lines = []
    for event in scaler.control.timeline:
        if event.source != "control":
            continue
        lines.append(
            f"t={event.at_seconds:6.1f}s  {event.kind:<10s} {event.subject:<28s} "
            f"-> weight {event.weight}"
            + ("" if event.applied else "  [REJECTED]")
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=24)
    parser.add_argument("--steps", type=int, default=36)
    args = parser.parse_args(argv)

    engine, report = build_run(clients=args.clients, steps=args.steps)
    scaler = engine.autoscaler

    print("=== Flash crowd vs the closed loop ===")
    print(
        f"crowd: +300 search req/round on store 0's {BASE_REPLICAS} base replicas, "
        f"{CROWD_START_S:.0f}–{CROWD_END_S:.0f}s; warm pool: "
        f"{sum(len(pool.standby_ids) for pool in scaler.pools.values())} standbys"
    )

    print("\n=== Zone pressure per telemetry window ===")
    for line in pressure_timeline(engine):
        print(line)

    print("\n=== Autoscaler action log (control-plane audit trail) ===")
    for line in action_log(scaler):
        print(line)

    stats = report.autoscale_stats
    print("\n=== Closing stats ===")
    for key in (
        "promotions",
        "ramp_steps",
        "parks",
        "flaps",
        "ops_rejected",
        "active_peak",
        "replica_seconds",
    ):
        print(f"{key:>16s}: {stats[key]:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
