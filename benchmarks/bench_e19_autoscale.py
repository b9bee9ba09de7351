"""E19 — closed-loop autoscaling: elastic warm pools vs static provisioning.

E18 gave the federation eyes (windowed telemetry, zonal roll-ups, SLO
burn); this experiment closes the loop.  A per-region
:class:`~repro.autoscale.scaler.Autoscaler` reads *only* telemetry
roll-ups and drives a :class:`~repro.core.warmpool.WarmPool` of
pre-registered zero-weight standbys through the control plane: promote
when the zone pressures, ramp 4→2→1→0 and park when it ebbs.  Three
claims are pinned:

* **flash crowd** — a stadium crowd slams store 0.  Static-lean (the
  capacity you'd buy for the median day) sheds load; static-over (crowd
  capacity deployed 24/7) absorbs it at full cost.  The autoscaled cell
  must beat lean on SLO attainment *and* undercut over on cost, where
  cost is **replica-seconds**: the integral of positively-weighted,
  registered, reachable replicas in the scaled group over simulated time.
* **diurnal curve** — two demand peaks in one simulated day.  Same
  ordering must hold when capacity has to come and go twice.
* **bounded oscillation** — with device/DNS TTLs stretched so clients
  converge a full cache generation behind the controller (the 22–67 s
  regime E15 measured), hysteresis + cooldowns must keep the decision
  tape monotonic: no flap (an up-action on a server whose previous
  action was down), promotions bounded by the pool, a bounded number of
  weight changes.

Runs through ``harness.main``: ``--smoke`` is the sweep whose output *is* the
committed, byte-gated ``BENCH_e19.json``; no flag re-runs the cells with a
larger fleet into the git-ignored ``BENCH_e19_full.json``.
"""

from __future__ import annotations

from types import SimpleNamespace

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from _util import disaster_world
from repro.autoscale import AutoscalerConfig
from repro.autoscale.scaler import PROMOTE_WEIGHT
from repro.faults.schedule import FaultPlan
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.telemetry.reader import TelemetryReader
from repro.workload import WorkloadConfig, WorkloadEngine

WORLD_SEED = 33
WORKLOAD_SEED = 7

SMOKE_CLIENTS = 24
FULL_CLIENTS = 48
STEP_SECONDS = 20.0
RESOLVER_POOLS = 2
POOL_SIZE = 2

TELEMETRY = TelemetryConfig(
    window_seconds=40.0,
    slo=SLOConfig(latency_ms=250.0, availability_target=0.99),
)
"""Two rounds per window; a 250 ms latency SLO so attainment counts both
shed requests and queue-bloated slow ones against the budget."""

AUTOSCALE = AutoscalerConfig(
    wait_high_ms=25.0,
    wait_low_ms=8.0,
    burn_high=0.0,
    breach_evals=1,
    recover_evals=2,
    cooldown_seconds=60.0,
    ramp_cooldown_seconds=30.0,
    park_delay_seconds=40.0,
)
"""The responsive profile: act one window after a sustained breach, ramp
down only after two quiet windows.  The burn trigger is disabled — at this
fleet size the per-window burn saturates on baseline noise (24 clients ×
1% budget), so zonal queue-wait/shed are the discriminating signals."""

STABILITY_AUTOSCALE = AutoscalerConfig(
    wait_high_ms=25.0,
    wait_low_ms=8.0,
    burn_high=0.0,
    breach_evals=2,
    recover_evals=3,
    cooldown_seconds=90.0,
    ramp_cooldown_seconds=40.0,
    park_delay_seconds=60.0,
)
"""The oscillation cell's profile: cooldowns sized past the stretched
client-convergence window, streaks requiring multi-window confirmation."""

FLASH_STEPS = 36
FLASH_START, FLASH_END = 60.0, 240.0
FLASH_EXTRA_LOAD = 300

DIURNAL_STEPS = 48
DIURNAL_PEAKS = ((120.0, 280.0, 150), (480.0, 680.0, 300))
"""(start, end, extra_load) per peak: a morning shoulder and a taller
evening peak in one simulated day."""

OSCILLATION_STEPS = 36
OSCILLATION_START, OSCILLATION_END = 60.0, 540.0
OSCILLATION_EXTRA_LOAD = 150
OSCILLATION_DEVICE_TTL = 60.0
OSCILLATION_DNS_TTL = 80.0
MAX_OSCILLATION_WEIGHT_CHANGES = 8

ATTAINMENT_MARGIN = 0.02
"""Autoscaled SLO attainment must beat static-lean by at least this much
(measured headroom is ~0.05 on both traffic patterns)."""


def build_world(device_ttl: float = 30.0, dns_ttl: float = 60.0):
    """The E17-style disaster world with TTLs short enough that clients
    converge on weight changes within a couple of telemetry windows."""
    return disaster_world(device_ttl, dns_ttl)


BASE_REPLICAS = 2
"""Store 0's as-built replica count.  Crowd plans pin their extra load to
these *base* replicas only — ``store_replica_ids`` reads live group
membership, which grows when a warm pool attaches, and a crowd that
scales with deployed capacity would make the comparison circular.  The
autoscaler's win is thus indirect, as in production: promoted standbys
absorb the organic fleet traffic that would otherwise queue behind the
crowd on the slammed replicas."""


def _crowd_targets(scenario) -> tuple[str, ...]:
    return tuple(scenario.store_replica_ids(0)[:BASE_REPLICAS])


def flash_plan(scenario) -> FaultPlan:
    return FaultPlan.flash_crowd(
        _crowd_targets(scenario),
        FLASH_START,
        FLASH_END,
        extra_load=FLASH_EXTRA_LOAD,
    )


def diurnal_plan(scenario) -> FaultPlan:
    targets = _crowd_targets(scenario)
    plan = FaultPlan()
    for start, end, extra in DIURNAL_PEAKS:
        plan = plan + FaultPlan.flash_crowd(targets, start, end, extra_load=extra)
    return plan


def run_cell(
    mode: str,
    plan_for,
    steps: int,
    clients: int,
    *,
    autoscale: AutoscalerConfig = AUTOSCALE,
    device_ttl: float = 30.0,
    dns_ttl: float = 60.0,
) -> dict[str, object]:
    """One provisioning cell over one traffic pattern.

    ``mode`` is the provisioning policy for store 0's replica group:

    * ``static-lean`` — just the base replicas (median-day capacity);
    * ``static-over`` — the warm-pool standbys promoted at build time and
      weighted for the whole run (crowd capacity deployed 24/7);
    * ``auto`` — standbys pooled at weight 0, the autoscaler deciding.
    """
    scenario = build_world(device_ttl, dns_ttl)
    federation = scenario.federation
    group_id = sorted(federation.replica_groups)[0]
    if mode != "static-lean":
        federation.attach_warm_pool(group_id, POOL_SIZE)
    if mode == "static-over":
        for standby in federation.warm_pools[group_id].standby_ids:
            federation.set_srv(standby, weight=PROMOTE_WEIGHT)
    config = WorkloadConfig(
        clients=clients,
        steps=steps,
        seed=WORKLOAD_SEED,
        step_seconds=STEP_SECONDS,
        resolver_pools=RESOLVER_POOLS,
        faults=plan_for(scenario),
        telemetry=TELEMETRY,
        autoscale=autoscale if mode == "auto" else None,
    )
    engine = WorkloadEngine(scenario, config)
    report = engine.run()
    assert engine.telemetry is not None
    reader = TelemetryReader(pipeline=engine.telemetry)

    # Cost: replica-seconds of positively-weighted serving capacity in the
    # scaled group.  Static cells never change weights, so their integral
    # is a product; the auto cell's comes from the scaler's own integral
    # (same basis: reachable + registered + weight > 0).
    group = federation.replica_groups[group_id]
    if mode == "auto":
        stats = report.autoscale_stats
        replica_seconds = stats["replica_seconds"]
    else:
        stats = {}
        serving = sum(
            1
            for server_id in group.server_ids
            if server_id in federation.servers
            and server_id in federation.registry.registrations
            and federation.srv_of(server_id)[1] > 0
        )
        replica_seconds = serving * report.simulated_seconds
    return {
        "mode": mode,
        "attainment": reader.attainment(),
        "dropped": report.dropped_requests,
        "p95_ms": report.latency_percentiles()["p95"],
        "cost_rs": replica_seconds,
        "promotions": stats.get("promotions", 0.0),
        "ramp_steps": stats.get("ramp_steps", 0.0),
        "parks": stats.get("parks", 0.0),
        "flaps": stats.get("flaps", 0.0),
        "_weight_changes": stats.get("ops_applied", 0.0),
        "_failed_rate": report.failed_request_rate,
        "_simulated_seconds": report.simulated_seconds,
        "_snapshot_digest": digest(report.snapshot()),
    }


def run_pattern(name: str, plan_for, steps: int, clients: int) -> list[dict[str, object]]:
    """All three provisioning cells over one traffic pattern."""
    rows = []
    for mode in ("static-lean", "static-over", "auto"):
        row = run_cell(mode, plan_for, steps, clients)
        row["pattern"] = name
        rows.append(row)
    return rows


def oscillation_plan(scenario) -> FaultPlan:
    return FaultPlan.flash_crowd(
        _crowd_targets(scenario),
        OSCILLATION_START,
        OSCILLATION_END,
        extra_load=OSCILLATION_EXTRA_LOAD,
    )


def run_oscillation(clients: int) -> dict[str, object]:
    """The stability cell: stretched TTLs (clients converge a cache
    generation behind the controller) under a long borderline crowd."""
    row = run_cell(
        "auto",
        oscillation_plan,
        OSCILLATION_STEPS,
        clients,
        autoscale=STABILITY_AUTOSCALE,
        device_ttl=OSCILLATION_DEVICE_TTL,
        dns_ttl=OSCILLATION_DNS_TTL,
    )
    row["pattern"] = "oscillation"
    return row


def by_mode(rows: list[dict[str, object]]) -> dict[str, dict[str, object]]:
    return {str(row["mode"]): row for row in rows}


def verify(
    flash: list[dict[str, object]],
    diurnal: list[dict[str, object]],
    oscillation: dict[str, object],
) -> list[str]:
    """The three experiment claims, checked against the measured cells."""
    failures: list[str] = []
    for name, rows in (("flash", flash), ("diurnal", diurnal)):
        cells = by_mode(rows)
        lean, over, auto = cells["static-lean"], cells["static-over"], cells["auto"]
        if auto["attainment"] < lean["attainment"] + ATTAINMENT_MARGIN:
            failures.append(
                f"{name}: autoscaled attainment {auto['attainment']:.4f} does "
                f"not beat static-lean {lean['attainment']:.4f} by the "
                f"{ATTAINMENT_MARGIN} margin"
            )
        if auto["attainment"] > over["attainment"] + 0.01:
            failures.append(
                f"{name}: autoscaled attainment {auto['attainment']:.4f} "
                f"exceeds the 24/7-capacity ceiling {over['attainment']:.4f} "
                "— the accounting is suspect"
            )
        if auto["cost_rs"] > 0.9 * over["cost_rs"]:
            failures.append(
                f"{name}: autoscaled cost {auto['cost_rs']:.0f} replica-seconds "
                f"is not at least 10% under static-over {over['cost_rs']:.0f}"
            )
        # The crowd's own jobs are pinned to the base replicas (see
        # BASE_REPLICAS), so shed load may not *grow* under autoscaling —
        # the win shows up as organic traffic staying fast, not as fewer
        # crowd drops.
        if auto["dropped"] > lean["dropped"]:
            failures.append(
                f"{name}: autoscaled cell dropped {auto['dropped']} requests, "
                f"more than static-lean's {lean['dropped']}"
            )
        if auto["promotions"] < 1:
            failures.append(f"{name}: the autoscaler never promoted a standby")
        if auto["flaps"] > 0:
            failures.append(f"{name}: the autoscaled cell flapped ({auto['flaps']})")
        if lean["dropped"] < 1:
            failures.append(
                f"{name}: static-lean shed nothing; the crowd is not a crowd"
            )

    if oscillation["flaps"] > 0:
        failures.append(
            f"oscillation: {oscillation['flaps']} flap(s) under delayed "
            "convergence — hysteresis/cooldown failed"
        )
    if oscillation["promotions"] > POOL_SIZE:
        failures.append(
            f"oscillation: {oscillation['promotions']} promotions exceed the "
            f"pool size {POOL_SIZE}"
        )
    if oscillation["_weight_changes"] > MAX_OSCILLATION_WEIGHT_CHANGES:
        failures.append(
            f"oscillation: {oscillation['_weight_changes']} weight changes, "
            f"over the {MAX_OSCILLATION_WEIGHT_CHANGES} bound"
        )
    return failures


def payload(
    flash: list[dict[str, object]],
    diurnal: list[dict[str, object]],
    oscillation: dict[str, object],
    clients: int,
) -> dict[str, object]:
    def cell_block(row: dict[str, object]) -> dict[str, object]:
        return {
            "attainment": row["attainment"],
            "dropped": row["dropped"],
            "p95_ms": row["p95_ms"],
            "replica_seconds": row["cost_rs"],
            "promotions": row["promotions"],
            "ramp_steps": row["ramp_steps"],
            "parks": row["parks"],
            "flaps": row["flaps"],
            "weight_changes": row["_weight_changes"],
            "failed_rate": row["_failed_rate"],
            "snapshot_digest": row["_snapshot_digest"],
        }

    return {
        "experiment": "E19",
        "description": "closed-loop autoscaling from telemetry roll-ups: "
        "elastic warm-pool capacity vs static provisioning on SLO "
        "attainment and replica-seconds cost, with bounded oscillation "
        "under TTL-delayed client convergence",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "clients": clients,
        "pool_size": POOL_SIZE,
        "flash": {row["mode"]: cell_block(row) for row in flash},
        "diurnal": {row["mode"]: cell_block(row) for row in diurnal},
        "oscillation": {
            "device_ttl_seconds": OSCILLATION_DEVICE_TTL,
            "dns_ttl_seconds": OSCILLATION_DNS_TTL,
            "max_weight_changes": MAX_OSCILLATION_WEIGHT_CHANGES,
            **cell_block(oscillation),
        },
    }


def run(smoke: bool) -> SimpleNamespace:
    clients = SMOKE_CLIENTS if smoke else FULL_CLIENTS
    return SimpleNamespace(
        flash=run_pattern("flash", flash_plan, FLASH_STEPS, clients),
        diurnal=run_pattern("diurnal", diurnal_plan, DIURNAL_STEPS, clients),
        oscillation=run_oscillation(clients),
        clients=clients,
    )


def rerun(s: SimpleNamespace) -> tuple[str, str]:
    """Determinism: the richest cell (autoscaler + crowd + telemetry) must
    reproduce exactly."""
    repeat = run_cell("auto", flash_plan, FLASH_STEPS, s.clients)
    return by_mode(s.flash)["auto"]["_snapshot_digest"], repeat["_snapshot_digest"]


def ok(s: SimpleNamespace) -> str:
    flash, diurnal, oscillation = by_mode(s.flash), by_mode(s.diurnal), s.oscillation
    return (
        f"flash attainment lean {flash['static-lean']['attainment']:.3f} "
        f"→ auto {flash['auto']['attainment']:.3f} at "
        f"{flash['auto']['cost_rs'] / flash['static-over']['cost_rs']:.0%} "
        f"of static-over cost; diurnal auto {diurnal['auto']['attainment']:.3f} "
        f"with {diurnal['auto']['promotions']:.0f} promotions; oscillation "
        f"{oscillation['_weight_changes']:.0f} weight changes, "
        f"{oscillation['flaps']:.0f} flaps"
    )


EXPERIMENT = Experiment(
    id="E19",
    doc=__doc__,
    run=run,
    tables=lambda s: [
        ("E19 flash crowd", s.flash),
        ("E19 diurnal curve", s.diurnal),
        ("E19 oscillation stability", [s.oscillation]),
    ],
    verify=lambda s: verify(s.flash, s.diurnal, s.oscillation),
    rerun=rerun,
    payload=lambda s: payload(s.flash, s.diurnal, s.oscillation, s.clients),
    ok=ok,
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
