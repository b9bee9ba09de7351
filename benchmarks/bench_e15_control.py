"""E15 — operator control plane: live drains, convergence and warm standbys.

The churn experiments (E14) measure what *happens to* a federation; this one
measures what an operator can *do to* a live one through the control plane
(:mod:`repro.control`) while a client fleet keeps issuing traffic:

* **drain convergence** — re-weight a live replica to 0 mid-run (RFC 2782:
  healthy but last-resort) and watch its traffic move to pool mates as each
  device's cached SRV view expires.  The sweep crosses *when* the drain
  lands (drain round) with the *DNS record TTL* (the registration TTL on
  the SRV records), because the client-observed convergence lag is exactly
  the cache decay: a device converges once its own discovery-cache entries
  and its resolver pool's DNS entries have both lapsed, and the DNS TTL is
  the binding clock.  Headline: time-to-converge p50/p95 from
  ``WorkloadReport.control_stats`` — within one DNS TTL (plus the device
  cache TTL and a round of quantization) — with **zero** failed requests: a
  drain is not an outage.
* **warm standby** — a 2-replica group with priorities ``(0, 1)``: the
  tier-1 standby receives *no* traffic while tier 0 serves (strict-tier
  invariant), absorbs the load when tier 0 crashes, and an operator that
  reacts (promote the standby to tier 0, drain the corpse to weight 0)
  spares the fleet most of the dead-server timeouts a cold failover pays.

Runs through ``harness.main``: ``--smoke`` is the reduced sweep whose output
*is* the committed, byte-gated ``BENCH_e15.json``; no flag runs a larger
fleet over more drain/TTL cells.
"""

from __future__ import annotations

from types import SimpleNamespace

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from repro.churn.schedule import ChurnEvent, ChurnEventKind, ChurnSchedule
from repro.control import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.services.failover import MAX_ATTEMPTS
from repro.services.retry import BASE_DELAY_MS, DEAD_SERVER_TIMEOUT_MS, RetryPolicy
from repro.simulation.queueing import ServiceTimeModel
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

WORLD_SEED = 33
WORKLOAD_SEED = 7
STEP_SECONDS = 20.0
"""Long rounds, as in E14: control events, cache TTLs and the registration
TTL all get room to play out inside a run."""
DEVICE_TTL_SECONDS = 20.0
"""Per-device discovery-cache TTL (fixed; the sweep varies the DNS TTL)."""
STANDBY_DNS_TTL_SECONDS = 60.0
"""DNS record TTL of the standby cells — short enough that the operator's
promotion/drain reaches clients well inside the post-crash window."""
RESOLVER_POOLS = 3
"""Drain cells shard the fleet across regional resolver pools, so the
pools' DNS entries expire (and refresh) independently."""
DRAIN_REPLICAS = 4
"""Drain cells run a 4-replica group: one drained replica leaves three
mates to absorb its share, so the traffic shift is unmistakable."""
STANDBY_CRASH_AT_SECONDS = 40.0

SERVICE_TIMES = ServiceTimeModel(
    default_ms=2.0,
    per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5, "localization": 2.5},
)
SERVER_QUEUE_CAPACITY = 256

RETRY_POLICY = RetryPolicy.utilization_aware()


def build_control_scenario(
    dns_ttl_seconds: float,
    replicas: int = DRAIN_REPLICAS,
    priorities: tuple[int, ...] | None = None,
):
    """The E15 world: one replicated store in a small city, short DNS TTLs.

    The registration TTL (the TTL on every SRV record the store's replicas
    publish) is the experiment's sweep knob: it bounds how long resolver
    pools and device caches may serve a pre-drain answer.
    """
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=DEVICE_TTL_SECONDS,
        registration_ttl_seconds=dns_ttl_seconds,
        client_tile_cache_entries=256,
        service_times=SERVICE_TIMES,
        server_queue_capacity=SERVER_QUEUE_CAPACITY,
        retry_policy=RETRY_POLICY,
    )
    return build_scenario(
        store_count=1,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=WORLD_SEED,
        reuse_worlds=True,
        store_replicas=replicas,
        store_replica_priorities=priorities,
    )


def _row(
    label: str,
    phase: str,
    report,
    scenario,
    drained_id: str | None = None,
    standby_id: str | None = None,
    **extra,
) -> dict[str, object]:
    availability = report.availability()
    control = report.control_stats
    replica_ids = scenario.store_replica_ids(0)
    arrivals = {
        server_id: report.server_stats.get(server_id, {}).get("arrivals", 0.0)
        for server_id in replica_ids
    }
    drained_share = 0.0
    mates_min_share = 0.0
    if drained_id is not None and sum(arrivals.values()) > 0:
        total = sum(arrivals.values())
        drained_share = arrivals[drained_id] / total
        mates_min_share = min(
            value / total for sid, value in arrivals.items() if sid != drained_id
        )
    row: dict[str, object] = {
        "cell": label,
        "requests": report.requests + report.errors,
        "failed": int(availability["failed_requests"]),
        "stale": int(availability["stale_attempts"]),
        "own_det": int(availability["dead_detections_own"]),
        "tracked": int(control.get("devices_tracked", 0.0)),
        "converged": int(control.get("devices_converged", 0.0)),
        "conv_p50_s": control.get("converge_p50_s", 0.0),
        "conv_p95_s": control.get("converge_p95_s", 0.0),
        "drained_share": drained_share,
        "standby_arr": int(arrivals[standby_id]) if standby_id is not None else 0,
        # Carried for the JSON artifact (dropped from the printed table).
        "_phase": phase,
        "_mates_min_share": mates_min_share,
        "_availability": availability,
        "_control": dict(sorted(control.items())),
        "_replica_arrivals": {sid: arrivals[sid] for sid in replica_ids},
        "_simulated_seconds": report.simulated_seconds,
        "_snapshot_digest": digest(report.snapshot()),
    }
    row.update(extra)
    return row


def run_drain(
    drain_round: int,
    dns_ttl_seconds: float,
    clients: int,
    steps: int,
    seed: int = WORKLOAD_SEED,
) -> dict[str, object]:
    """One drain cell: weight replica 0 to zero at a chosen round boundary."""
    scenario = build_control_scenario(dns_ttl_seconds)
    drained = scenario.store_replica_ids(0)[0]
    schedule = ControlSchedule.from_events(
        [ControlEvent(drain_round * STEP_SECONDS, ControlEventKind.DRAIN, drained)]
    )
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=seed,
            step_seconds=STEP_SECONDS,
            control=schedule,
            resolver_pools=RESOLVER_POOLS,
        ),
    )
    report = engine.run()
    return _row(
        f"drain@r{drain_round}/ttl{dns_ttl_seconds:g}",
        "drain",
        report,
        scenario,
        drained_id=drained,
        drain_round=drain_round,
        dns_ttl_s=dns_ttl_seconds,
    )


def run_drain_baseline(
    dns_ttl_seconds: float,
    clients: int,
    steps: int,
    seed: int = WORKLOAD_SEED,
) -> dict[str, object]:
    """The drain grid's control cell: the identical run with no control tape.

    Whatever this cell fails is the workload's own baseline (e.g. routing
    aborts at fleet scale), so "zero failed requests attributable to the
    drain" is checked as *failed(drain cell) == failed(baseline)*, not as an
    absolute zero that breaks the moment the underlying workload has any.
    """
    scenario = build_control_scenario(dns_ttl_seconds)
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=seed,
            step_seconds=STEP_SECONDS,
            resolver_pools=RESOLVER_POOLS,
        ),
    )
    report = engine.run()
    return _row(
        f"baseline/ttl{dns_ttl_seconds:g}",
        "baseline",
        report,
        scenario,
        drain_round=0,
        dns_ttl_s=dns_ttl_seconds,
    )


def run_standby(
    operator_reacts: bool,
    crash: bool,
    clients: int,
    steps: int,
    seed: int = WORKLOAD_SEED,
) -> dict[str, object]:
    """One warm-standby cell: priorities (0, 1), optional crash + reaction.

    ``operator_reacts`` scripts the control tape an on-call operator would
    run the moment tier 0 dies: promote the standby into tier 0 and drain
    the corpse to weight 0, so clients stop trying the dead primary as soon
    as their cached SRV views converge — instead of every device paying its
    own dead-server timeout for the full record/cache decay window.
    """
    scenario = build_control_scenario(
        STANDBY_DNS_TTL_SECONDS, replicas=2, priorities=(0, 1)
    )
    primary, standby = scenario.store_replica_ids(0)
    churn = None
    if crash:
        churn = ChurnSchedule.from_events(
            [ChurnEvent(STANDBY_CRASH_AT_SECONDS, ChurnEventKind.CRASH, primary)]
        )
    control = None
    if operator_reacts:
        control = ControlSchedule.from_events(
            [
                ControlEvent(
                    STANDBY_CRASH_AT_SECONDS, ControlEventKind.PROMOTE, standby, 0
                ),
                ControlEvent(
                    STANDBY_CRASH_AT_SECONDS, ControlEventKind.SET_WEIGHT, primary, 0
                ),
            ]
        )
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=seed,
            step_seconds=STEP_SECONDS,
            churn=churn,
            control=control,
        ),
    )
    report = engine.run()
    label = "standby-idle" if not crash else (
        "standby-promoted" if operator_reacts else "standby-cold"
    )
    return _row(
        label,
        "standby",
        report,
        scenario,
        standby_id=standby,
        drain_round=0,
        dns_ttl_s=STANDBY_DNS_TTL_SECONDS,
    )


def sweep(
    drain_rounds: list[int],
    dns_ttls: list[float],
    clients: int,
    steps: int,
) -> list[dict[str, object]]:
    """The drain grid (with per-TTL baselines) plus the standby cells."""
    rows: list[dict[str, object]] = []
    for ttl in dns_ttls:
        rows.append(run_drain_baseline(ttl, clients, steps))
    for drain_round in drain_rounds:
        for ttl in dns_ttls:
            rows.append(run_drain(drain_round, ttl, clients, steps))
    rows.append(run_standby(False, False, clients, steps))
    rows.append(run_standby(False, True, clients, steps))
    rows.append(run_standby(True, True, clients, steps))
    return rows


def payload(rows: list[dict[str, object]], clients: int, steps: int) -> dict[str, object]:
    """The machine-readable drain-convergence / standby curves."""
    return {
        "experiment": "E15",
        "description": "operator control plane: drain convergence "
        "(drain round x device TTL) and warm-standby tiers",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "clients": clients,
        "steps": steps,
        "step_seconds": STEP_SECONDS,
        "device_ttl_seconds": DEVICE_TTL_SECONDS,
        "resolver_pools": RESOLVER_POOLS,
        "standby_dns_ttl_seconds": STANDBY_DNS_TTL_SECONDS,
        "standby_crash_at_seconds": STANDBY_CRASH_AT_SECONDS,
        "retry_policy": {
            "kind": RETRY_POLICY.kind,
            "base_delay_ms": BASE_DELAY_MS,
            "max_attempts": MAX_ATTEMPTS,
            "dead_server_timeout_ms": DEAD_SERVER_TIMEOUT_MS,
        },
        "rows": [
            {
                "phase": row["_phase"],
                "cell": row["cell"],
                "drain_round": row["drain_round"],
                "dns_ttl_s": row["dns_ttl_s"],
                "requests": row["requests"],
                "failed_requests": row["failed"],
                "stale_attempts": row["stale"],
                "dead_detections_own": row["own_det"],
                "drained_share": row["drained_share"],
                "standby_arrivals": row["standby_arr"],
                "replica_arrivals": row["_replica_arrivals"],
                "control": row["_control"],
                "availability": row["_availability"],
                "snapshot_digest": row["_snapshot_digest"],
                # Deliberately no wall-clock fields: the artifact must be
                # byte-identical across runs (check.sh enforces it).
                "simulated_seconds": row["_simulated_seconds"],
            }
            for row in rows
        ],
    }


def verify(rows: list[dict[str, object]], dns_ttls: list[float]) -> list[str]:
    """The experiment's claims, checked on a sweep's rows."""
    failures: list[str] = []
    drains = [row for row in rows if row["_phase"] == "drain"]
    baseline_failed = {
        row["dns_ttl_s"]: row["failed"] for row in rows if row["_phase"] == "baseline"
    }

    for row in drains:
        # (a) A drain is not an outage: no failed request beyond the same
        # workload's no-control baseline, and nothing goes stale.
        expected = baseline_failed.get(row["dns_ttl_s"], 0)
        if row["failed"] != expected:
            failures.append(
                f"{row['cell']}: {row['failed']} failed requests vs "
                f"{expected} in the no-drain baseline"
            )
        if row["stale"] != 0:
            failures.append(f"{row['cell']}: drain produced {row['stale']} stale attempts")
        # (b) Devices holding stale views all converge, within the decay
        # window: their own cache TTL plus one DNS TTL.
        if row["tracked"] == 0 or row["converged"] < row["tracked"]:
            failures.append(
                f"{row['cell']}: {row['converged']}/{row['tracked']} devices converged"
            )
        window = DEVICE_TTL_SECONDS + row["dns_ttl_s"] + 2 * STEP_SECONDS
        if row["conv_p95_s"] > window:
            failures.append(
                f"{row['cell']}: converge p95 {row['conv_p95_s']:.1f}s exceeds one "
                f"DNS TTL plus the device cache window ({window:.0f}s)"
            )
        # (c) The drained replica actually starved: over the whole run it
        # took strictly less than every pool mate (a late drain still shows
        # its pre-drain share, so the whole-run number only has to be
        # *below* the balanced split, not near zero).
        if row["drained_share"] >= row["_mates_min_share"]:
            failures.append(
                f"{row['cell']}: drained replica took {row['drained_share']:.1%}, "
                f"not less than its least-loaded mate ({row['_mates_min_share']:.1%})"
            )
        # For the earliest drain (most of the run post-drain) the collapse
        # must be unmistakable: well under half the balanced 1/N share.
        if row["drain_round"] == min(r["drain_round"] for r in drains):
            equal_share = 1.0 / DRAIN_REPLICAS
            if row["drained_share"] >= 0.6 * equal_share:
                failures.append(
                    f"{row['cell']}: early drain left the replica at "
                    f"{row['drained_share']:.1%} of group traffic"
                )

    # (d) The DNS TTL is the convergence lever: for each drain round, a
    # shorter record TTL converges strictly no slower than a longer one.
    small, large = min(dns_ttls), max(dns_ttls)
    if small != large:
        by_round: dict[int, dict[float, float]] = {}
        for row in drains:
            by_round.setdefault(row["drain_round"], {})[row["dns_ttl_s"]] = row[
                "conv_p95_s"
            ]
        for drain_round, curve in sorted(by_round.items()):
            if small in curve and large in curve and curve[small] > curve[large]:
                failures.append(
                    f"drain@r{drain_round}: DNS TTL {small:g}s converged slower than "
                    f"TTL {large:g}s ({curve[small]:.1f}s > {curve[large]:.1f}s)"
                )

    standby = {row["cell"]: row for row in rows if row["_phase"] == "standby"}
    idle = standby.get("standby-idle")
    cold = standby.get("standby-cold")
    promoted = standby.get("standby-promoted")
    # (e) Strict-tier invariant: the tier-1 standby sees no traffic while
    # tier 0 serves, and absorbs it once tier 0 is down.
    if idle is not None and idle["standby_arr"] != 0:
        failures.append(
            f"standby-idle: tier-1 standby served {idle['standby_arr']} requests "
            "with tier 0 healthy"
        )
    for row in (cold, promoted):
        if row is not None and row["standby_arr"] == 0:
            failures.append(f"{row['cell']}: standby absorbed no traffic after the crash")
        if row is not None and row["_availability"]["failed_request_rate"] > 0.01:
            failures.append(
                f"{row['cell']}: failed-request rate "
                f"{row['_availability']['failed_request_rate']:.4f} despite the standby"
            )
    # (f) The operator reaction pays: promotion + drain spares the fleet
    # dead-server timeouts a cold failover keeps paying.
    if cold is not None and promoted is not None:
        if promoted["stale"] >= cold["stale"]:
            failures.append(
                f"promotion did not cut stale attempts "
                f"({promoted['stale']} >= {cold['stale']})"
            )
        if promoted["own_det"] > cold["own_det"]:
            failures.append(
                f"promotion increased own dead detections "
                f"({promoted['own_det']} > {cold['own_det']})"
            )
    return failures


def run(smoke: bool) -> SimpleNamespace:
    if smoke:
        drain_rounds, dns_ttls, clients, steps = [2, 5], [40.0, 80.0], 24, 12
    else:
        drain_rounds, dns_ttls, clients, steps = [2, 5, 8], [30.0, 60.0, 120.0], 64, 14
    rows = sweep(drain_rounds, dns_ttls, clients, steps)
    return SimpleNamespace(rows=rows, drain_rounds=drain_rounds, dns_ttls=dns_ttls, clients=clients, steps=steps)


def rerun(s: SimpleNamespace) -> tuple[str, str]:
    """Determinism: the first drain cell must reproduce exactly."""
    drain_round, ttl = s.drain_rounds[0], s.dns_ttls[0]
    reference = next(
        row
        for row in s.rows
        if row["_phase"] == "drain" and row["drain_round"] == drain_round and row["dns_ttl_s"] == ttl
    )
    return reference["_snapshot_digest"], run_drain(drain_round, ttl, s.clients, s.steps)["_snapshot_digest"]


EXPERIMENT = Experiment(
    id="E15",
    doc=__doc__,
    run=run,
    tables=lambda s: [("E15 operator control plane (drain round x DNS TTL)", s.rows)],
    verify=lambda s: verify(s.rows, s.dns_ttls),
    rerun=rerun,
    payload=lambda s: payload(s.rows, s.clients, s.steps),
    ok=lambda s: "live drains converge within the cache-decay window with zero failed requests; "
    "warm standbys idle until tier 0 dies; operator promotion beats cold failover",
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
