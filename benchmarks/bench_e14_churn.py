"""E14 — federation churn: availability, failover and replica load balancing.

The paper's discovery story assumes map servers are long-lived DNS
registrants; production federations churn.  This experiment sweeps *churn
rate* (Poisson crash/rejoin arrivals per simulated minute over the store
servers) against *replica count* (each store deployed as a replica group
advertising the same coverage cells) and measures what clients experience:

* **failed-request rate** — client requests that got no service at all
  (every replica chain they tried was exhausted);
* **stale-attempt rate** — attempts addressed to dead servers because the
  device acted on TTL-stale cached discovery results;
* **failover latency** — p50/p95/p99 from first failure detection to
  success on another replica (dead-server timeouts + retry backoff + the
  winning attempt);
* **time-to-rediscovery** — how long after a crashed server re-registers
  until the fleet's traffic reaches it again.

Two further sweep dimensions compare the client-side policies themselves
on a 4-replica group:

* **balance** — RFC 2782 ``weighted`` selection vs the legacy
  ``first-healthy`` ordering, scored by ``replica_load_cv`` (coefficient
  of variation of per-replica utilization: ~0 is a perfect 4-way spread,
  ~1.73 is everything funneled onto one replica);
* **detection** — per-device health only vs pool-shared health
  (``FederationConfig.shared_health``), scored by the mean client-time
  cost of learning a replica is dead (``detect_mean_ms``): every device
  paying its own ``dead_server_timeout`` vs one device paying and the
  rest of its resolver pool learning for free.

Runs through ``harness.main``: ``--smoke`` is the reduced sweep whose output
*is* the committed, byte-gated ``BENCH_e14.json``; no flag runs a larger
fleet over more churn rates.
"""

from __future__ import annotations

from types import SimpleNamespace

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from repro.churn import ChurnSchedule
from repro.core.config import FederationConfig
from repro.services.failover import FIRST_HEALTHY, WEIGHTED
from repro.services.retry import RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

WORLD_SEED = 33
WORKLOAD_SEED = 7
CHURN_SEED = 5
STORE_COUNT = 2
DEVICE_CACHE_TTL_SECONDS = 120.0
TILE_CACHE_ENTRIES = 256
STEP_SECONDS = 20.0
"""Long rounds: the run spans minutes of simulated time, so churn events,
registration-lease decay and cache TTLs all get room to play out."""
DOWNTIME_SECONDS = 45.0

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
)
SERVER_QUEUE_CAPACITY = 256

RETRY_POLICY = RetryPolicy.utilization_aware()
"""Utilization-aware exponential backoff: retries against a saturated
replica spread out, retries after a one-off blip stay fast."""

BALANCE_REPLICAS = 4
"""Replica count of the balance/detection comparison cells: a 4-replica
group is where first-healthy's funnel (CV ≈ 1.73) versus RFC 2782's 4-way
spread (CV < 0.15) is unmistakable."""


def build_churn_scenario(replicas: int, mode: str = WEIGHTED, shared_health: bool = False):
    """The standard E14 world: E13's city + stores, with store replication."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=DEVICE_CACHE_TTL_SECONDS,
        client_tile_cache_entries=TILE_CACHE_ENTRIES,
        service_times=SERVICE_TIMES,
        server_queue_capacity=SERVER_QUEUE_CAPACITY,
        retry_policy=RETRY_POLICY,
        replica_selection=mode,
        shared_health=shared_health,
    )
    return build_scenario(
        store_count=STORE_COUNT,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=WORLD_SEED,
        reuse_worlds=True,
        store_replicas=replicas,
    )


def run_churn(
    replicas: int,
    churn_rate_per_minute: float,
    clients: int,
    steps: int,
    seed: int = WORKLOAD_SEED,
    mode: str = WEIGHTED,
    shared_health: bool = False,
    phase: str = "churn",
) -> dict[str, object]:
    """Run one (replica count × churn rate × policy) cell of the sweep."""
    scenario = build_churn_scenario(replicas, mode=mode, shared_health=shared_health)
    eligible = [
        server_id
        for index in range(STORE_COUNT)
        for server_id in scenario.store_replica_ids(index)
    ]
    schedule = ChurnSchedule.poisson(
        eligible,
        rate_per_minute=churn_rate_per_minute,
        horizon_seconds=steps * STEP_SECONDS,
        downtime_seconds=DOWNTIME_SECONDS,
        seed=CHURN_SEED,
    )
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=seed,
            step_seconds=STEP_SECONDS,
            churn=schedule,
        ),
    )
    report = engine.run()
    availability = report.availability()
    return {
        "mode": mode + ("+shared" if shared_health else ""),
        "replicas": replicas,
        "churn_per_min": churn_rate_per_minute,
        "requests": report.requests + report.errors,
        "failed_rate": availability["failed_request_rate"],
        "chain_fail_rate": availability["failed_chain_rate"],
        "stale_rate": availability["stale_attempt_rate"],
        "failovers": int(availability["failovers"]),
        "fo_p50_ms": availability["failover_p50_ms"],
        "fo_p95_ms": availability["failover_p95_ms"],
        "fo_p99_ms": availability["failover_p99_ms"],
        "load_cv": report.replica_load_cv,
        "detect_ms": availability["detect_mean_ms"],
        "events": int(availability["churn_events_applied"]),
        "rediscover": int(availability["rediscoveries"]),
        "redisc_mean_s": availability["rediscovery_seconds_mean"],
        # Carried for the JSON artifact (dropped from the printed table).
        "_phase": phase,
        "_shared_health": shared_health,
        "_selection": mode,
        "_availability": availability,
        "_scheduled_events": len(schedule),
        "_simulated_seconds": report.simulated_seconds,
        "_snapshot_digest": digest(report.snapshot()),
    }


def sweep(
    replica_counts: list[int], churn_rates: list[float], clients: int, steps: int
) -> list[dict[str, object]]:
    """The availability grid plus the policy-comparison cells.

    The grid (``phase="churn"``) runs every (replica count × churn rate)
    cell under the default weighted selection.  On top of it, four cells on
    a :data:`BALANCE_REPLICAS`-replica deployment isolate the policies:
    first-healthy vs weighted with zero churn (pure balance), and weighted
    with per-device vs pool-shared health at the top churn rate (pure
    detection).
    """
    rows: list[dict[str, object]] = []
    for replicas in replica_counts:
        for rate in churn_rates:
            rows.append(run_churn(replicas, rate, clients, steps))
    top_rate = max(churn_rates)
    rows.append(
        run_churn(BALANCE_REPLICAS, 0.0, clients, steps, mode=FIRST_HEALTHY, phase="balance")
    )
    rows.append(
        run_churn(BALANCE_REPLICAS, 0.0, clients, steps, mode=WEIGHTED, phase="balance")
    )
    rows.append(
        run_churn(BALANCE_REPLICAS, top_rate, clients, steps, mode=WEIGHTED, phase="detection")
    )
    rows.append(
        run_churn(
            BALANCE_REPLICAS,
            top_rate,
            clients,
            steps,
            mode=WEIGHTED,
            shared_health=True,
            phase="detection",
        )
    )
    return rows


def payload(rows: list[dict[str, object]], clients: int, steps: int) -> dict[str, object]:
    """The machine-readable availability/failover curves."""
    return {
        "experiment": "E14",
        "description": "availability and failover under federation churn "
        "(churn rate x replica count)",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "churn_seed": CHURN_SEED,
        "clients": clients,
        "steps": steps,
        "step_seconds": STEP_SECONDS,
        "downtime_seconds": DOWNTIME_SECONDS,
        "retry_policy": {
            "kind": RETRY_POLICY.kind,
            "base_delay_ms": RETRY_POLICY.base_delay_ms,
            "max_attempts": RETRY_POLICY.max_attempts,
            "dead_server_timeout_ms": RETRY_POLICY.dead_server_timeout_ms,
        },
        "rows": [
            {
                "phase": row["_phase"],
                "selection": row["_selection"],
                "shared_health": row["_shared_health"],
                "replicas": row["replicas"],
                "churn_per_min": row["churn_per_min"],
                "requests": row["requests"],
                "scheduled_events": row["_scheduled_events"],
                "replica_load_cv": row["load_cv"],
                "availability": row["_availability"],
                "snapshot_digest": row["_snapshot_digest"],
                # Deliberately no wall-clock fields: the artifact must be
                # byte-identical across runs (check.sh enforces it).
                "simulated_seconds": row["_simulated_seconds"],
            }
            for row in rows
        ],
    }


def verify(rows: list[dict[str, object]], churn_rates: list[float]) -> list[str]:
    """The experiment's claims, checked on a sweep's rows."""
    failures: list[str] = []
    top_rate = max(churn_rates)
    baseline_rate = min(churn_rates)
    grid = [row for row in rows if row["_phase"] == "churn"]

    def cell(replicas: int, rate: float) -> dict[str, object] | None:
        for row in grid:
            if row["replicas"] == replicas and row["churn_per_min"] == rate:
                return row
        return None

    # (a) With a single replica, availability degrades as churn grows.
    single = [cell(1, rate) for rate in sorted(churn_rates)]
    if all(row is not None for row in single):
        curve = [row["failed_rate"] for row in single]
        if curve != sorted(curve):
            failures.append(f"single-replica failed-rate curve not monotone: {curve}")
        if curve[-1] <= curve[0] + 0.01:
            failures.append(
                f"churn did not degrade single-replica availability "
                f"({curve[0]:.4f} -> {curve[-1]:.4f})"
            )

    # (b) At the same top churn rate, an extra replica restores availability.
    degraded = cell(1, top_rate)
    restored = [cell(r, top_rate) for r in sorted({row["replicas"] for row in grid}) if r > 1]
    restored = [row for row in restored if row is not None]
    if degraded is not None and restored:
        if not any(row["failed_rate"] < 0.01 for row in restored):
            failures.append(
                "no replica count restored failed-request rate below 1% at "
                f"churn rate {top_rate}/min"
            )
        # (c) ...and the failover machinery actually engaged.
        if not any(row["failovers"] > 0 and row["fo_p95_ms"] > 0.0 for row in restored):
            failures.append("replicated runs recorded no failovers / failover latency")

    # With no churn, nothing should fail beyond the workload's own baseline.
    for row in grid:
        if row["churn_per_min"] == baseline_rate == 0.0 and row["chain_fail_rate"] > 0.0:
            failures.append(
                f"replica={row['replicas']}: chains failed with zero churn "
                f"({row['chain_fail_rate']:.4f})"
            )

    # (d) Balance: RFC 2782 weighted selection spreads a 4-replica group's
    # load near-uniformly; the legacy first-healthy ordering funnels it.
    balance = {row["_selection"]: row for row in rows if row["_phase"] == "balance"}
    weighted = balance.get("weighted")
    funneled = balance.get("first-healthy")
    if weighted is not None and weighted["load_cv"] >= 0.15:
        failures.append(
            f"weighted selection left replica load unbalanced "
            f"(cv={weighted['load_cv']:.3f}, expected < 0.15)"
        )
    if funneled is not None and funneled["load_cv"] <= 0.8:
        failures.append(
            f"first-healthy unexpectedly balanced replica load "
            f"(cv={funneled['load_cv']:.3f}, expected > 0.8)"
        )

    # (e) Detection: pool-shared health cuts the mean cost of learning a
    # replica is dead below one dead-server timeout (and below per-device).
    detection = {row["_shared_health"]: row for row in rows if row["_phase"] == "detection"}
    solo = detection.get(False)
    pooled = detection.get(True)
    if pooled is not None:
        timeout_ms = RETRY_POLICY.dead_server_timeout_ms
        if pooled["detect_ms"] >= timeout_ms:
            failures.append(
                f"shared health did not cut mean time-to-detect below one "
                f"dead-server timeout ({pooled['detect_ms']:.1f}ms >= {timeout_ms:.0f}ms)"
            )
        shared_detections = pooled["_availability"]["dead_detections_shared"]
        if shared_detections <= 0:
            failures.append("shared-health run recorded no pool-learned detections")
        if solo is not None and pooled["detect_ms"] >= solo["detect_ms"]:
            failures.append(
                f"shared health did not beat per-device detection "
                f"({pooled['detect_ms']:.1f}ms >= {solo['detect_ms']:.1f}ms)"
            )
    return failures


def run(smoke: bool) -> SimpleNamespace:
    if smoke:
        churn_rates, clients, steps = [0.0, 1.5, 3.0], 24, 10
    else:
        churn_rates, clients, steps = [0.0, 1.0, 3.0, 6.0], 100, 12
    rows = sweep([1, 2, 3], churn_rates, clients, steps)
    return SimpleNamespace(rows=rows, churn_rates=churn_rates, clients=clients, steps=steps)


def rerun(s: SimpleNamespace) -> tuple[str, str]:
    """Determinism: the cheapest degraded cell must reproduce exactly."""
    top_rate = max(s.churn_rates)
    reference = next(row for row in s.rows if row["replicas"] == 1 and row["churn_per_min"] == top_rate)
    return reference["_snapshot_digest"], run_churn(1, top_rate, s.clients, s.steps)["_snapshot_digest"]


EXPERIMENT = Experiment(
    id="E14",
    doc=__doc__,
    run=run,
    tables=lambda s: [("E14 availability under churn (replicas x churn rate)", s.rows)],
    verify=lambda s: verify(s.rows, s.churn_rates),
    rerun=rerun,
    payload=lambda s: payload(s.rows, s.clients, s.steps),
    ok=lambda s: "churn degrades single-replica availability, replication restores it below 1% "
    "failed requests, failover latency measured",
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
