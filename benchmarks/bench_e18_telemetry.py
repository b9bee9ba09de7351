"""E18 — federation-wide telemetry: roll-ups, SLO burn, measured overhead.

E13–E17 judge the federation by *global* counters: fleet availability,
one latency histogram, one drop total.  The telemetry pipeline
(:mod:`repro.telemetry`) is the observability substrate that makes those
numbers *actionable*: windowed emission at round boundaries, spatial
roll-ups over the covering-cell hierarchy, and per-region SLO error-budget
burn.  This experiment pins the three claims that justify it:

* **hot-spot localization** — a stadium flash crowd saturates one store's
  replicas.  The *global* p95 barely moves (the fleet is fine on average),
  but the zonal shed-rate map puts every dropped request in one covering
  cell: the roll-up sees what the global histogram hides.
* **SLO burn alerting** — a regional uplink cut partitions region-1
  clients from every map server.  Region 1's error-budget burn crosses
  the alert threshold exactly during the fault windows; region 0 and
  the fault-free baseline never alert.
* **bounded, transparent overhead** — the pipeline rides the cohort fast
  path at 100,000 clients.  With telemetry disabled the snapshot is
  byte-identical to a run without the subsystem (the E13–E17 artifacts
  cannot move), and telemetry-on wall clock must stay under a generous
  ceiling over telemetry-off.

Runs through ``harness.main``: ``--smoke`` is the sweep whose output *is* the
committed, byte-gated ``BENCH_e18.json``; no flag re-runs the probes with a
larger overhead fleet into the git-ignored ``BENCH_e18_full.json``.

The artifact carries no wall-clock number: each side of the overhead probe
takes ≈0.4 s, and single on/off pairs on one tree read anywhere from −16%
to +14%, so one pair can enforce the ceiling but cannot resolve the
overhead itself (that takes ``perfbench``'s interleaved repetitions).
"""

from __future__ import annotations

import time

from harness import Experiment, digest, main  # first: finds src/ when run standalone
import bench_e16_scale
from _util import disaster_world
from repro.faults.schedule import FaultPlan
from repro.telemetry import SLOConfig, TelemetryConfig
from repro.telemetry.slo import ALERT_BURN_THRESHOLD
from repro.workload import WorkloadConfig, WorkloadEngine

WORLD_SEED = 33
WORKLOAD_SEED = 7

CLIENTS = 24
STEPS = 10
STEP_SECONDS = 20.0
RESOLVER_POOLS = 2

TELEMETRY = TelemetryConfig(
    window_seconds=40.0,
    slo=SLOConfig(latency_ms=10_000.0, availability_target=0.99),
)
"""Two rounds per window; an availability-centric SLO (the 10s latency
threshold never fires in this world) with a 1% error budget, so burn is
driven by failed requests and the fault-free baseline stays quiet."""

FAULT_START = 45.0
CROWD_END = 145.0
PARTITION_END = 165.0
CROWD_EXTRA_LOAD = 300

OVERHEAD_STEPS = 3
SMOKE_OVERHEAD_CLIENTS = 100_000
FULL_OVERHEAD_CLIENTS = 250_000
OVERHEAD_CEILING_PCT = 75.0
"""Telemetry-on may not cost more than this over telemetry-off.  Generous
because one on/off pair is all a smoke can afford, and a pair is noisy."""


def build_world():
    """The E17-style disaster world, clients coasting on long-lived caches."""
    return disaster_world(device_ttl=120.0, dns_ttl=3600.0)


def run_probe_workload(faults: FaultPlan | None = None):
    """One telemetry-on workload over the probe world, faulted or not."""
    scenario = build_world()
    config = WorkloadConfig(
        clients=CLIENTS,
        steps=STEPS,
        seed=WORKLOAD_SEED,
        resolver_pools=RESOLVER_POOLS,
        step_seconds=STEP_SECONDS,
        faults=faults,
        telemetry=TELEMETRY,
    )
    return WorkloadEngine(scenario, config).run()


def run_hotspot() -> dict[str, object]:
    """Flash crowd on store 0: drops localize to one zonal cell while the
    global p95 stays flat — the roll-up sees what the histogram hides."""
    baseline = run_probe_workload()
    crowd_targets = tuple(build_world().store_replica_ids(0))
    faulted = run_probe_workload(
        FaultPlan.flash_crowd(
            crowd_targets, FAULT_START, CROWD_END, extra_load=CROWD_EXTRA_LOAD
        )
    )
    telemetry = faulted.telemetry
    zonal = telemetry.server_zonal()
    dropped_total = sum(zone["dropped"] for zone in zonal.values())
    top_cell, top_zone = max(
        zonal.items(), key=lambda item: (item[1]["dropped"], item[0])
    )
    base_p95 = baseline.latency_percentiles()["p95"]
    fault_p95 = faulted.latency_percentiles()["p95"]
    return {
        "probe": "hotspot",
        "dropped": int(dropped_total),
        "top_cell": top_cell,
        "share": top_zone["dropped"] / dropped_total if dropped_total else 0.0,
        "shed": top_zone["shed_rate"],
        "wait_ms": top_zone["mean_wait_ms"],
        "p95_x": fault_p95 / base_p95 if base_p95 else 0.0,
        "zones": len(zonal),
        "_baseline_dropped": baseline.dropped_requests,
        "_fault_windows": telemetry.fault_windows().get("flash-crowd", []),
        "_baseline_snapshot_digest": digest(baseline.snapshot()),
        "_snapshot_digest": digest(faulted.snapshot()),
    }


def run_slo_burn() -> dict[str, object]:
    """Region-1 uplink cut: burn crosses the alert threshold in exactly
    the fault windows; region 0 and the baseline never alert."""
    baseline = run_probe_workload()
    all_servers = tuple(sorted(build_world().federation.registry.registrations))
    faulted = run_probe_workload(
        FaultPlan.partition(all_servers, FAULT_START, PARTITION_END, regions=(1,))
    )
    telemetry = faulted.telemetry
    hit_region, quiet_region = 1, 0
    series = telemetry.burn_series(hit_region)
    alerts = telemetry.alert_windows(hit_region)
    baseline_max = max(
        (
            burn
            for region in baseline.telemetry.regions()
            for burn in baseline.telemetry.burn_series(region)
        ),
        default=0.0,
    )
    quiet_series = telemetry.burn_series(quiet_region)
    return {
        "probe": "slo-burn",
        "region": hit_region,
        "max_burn": max(series, default=0.0),
        "alerts": len(alerts),
        "quiet_max": max(quiet_series, default=0.0),
        "base_max": baseline_max,
        "_burn_series": series,
        "_alert_windows": alerts,
        "_quiet_alerts": telemetry.alert_windows(quiet_region),
        "_baseline_alerts": sum(
            len(baseline.telemetry.alert_windows(region))
            for region in baseline.telemetry.regions()
        ),
        "_fault_windows": telemetry.fault_windows().get("partition", []),
        "_baseline_snapshot_digest": digest(baseline.snapshot()),
        "_snapshot_digest": digest(faulted.snapshot()),
    }


def _strip_telemetry(snapshot: dict[str, float]) -> dict[str, float]:
    return {
        key: value
        for key, value in snapshot.items()
        if not key.startswith("telemetry.")
    }


def run_overhead(clients: int, steps: int = OVERHEAD_STEPS) -> dict[str, object]:
    """Telemetry on vs off at scale, on the cohort fast path.

    Also proves transparency: the telemetry-on snapshot minus its
    ``telemetry.*`` keys equals the telemetry-off snapshot byte for byte,
    which is why the committed E13–E17 artifacts cannot move.
    """

    def one_run(telemetry: TelemetryConfig | None):
        scenario = bench_e16_scale.build_scale_scenario(clients)
        config = WorkloadConfig(
            clients=clients,
            steps=steps,
            seed=bench_e16_scale.WORKLOAD_SEED,
            telemetry=telemetry,
        )
        started = time.perf_counter()
        report = WorkloadEngine(scenario, config).run()
        return report, time.perf_counter() - started

    off_report, off_seconds = one_run(None)
    on_report, on_seconds = one_run(TelemetryConfig())
    off_snapshot = off_report.snapshot()
    on_snapshot = on_report.snapshot()
    summary = on_report.telemetry.summary()
    overhead_pct = (
        (on_seconds - off_seconds) / off_seconds * 100.0 if off_seconds else 0.0
    )
    return {
        "probe": "overhead",
        "clients": clients,
        "records": summary["records"],
        "windows": int(len(on_report.telemetry.windows)),
        "cells": int(summary["cells"]),
        "transparent": _strip_telemetry(on_snapshot) == off_snapshot,
        "pct": overhead_pct,
        "_steps": steps,
        "_snapshot_digest_on": digest(on_snapshot),
        "_snapshot_digest_off": digest(off_snapshot),
    }


def payload(
    hotspot: dict[str, object],
    burn: dict[str, object],
    overhead: dict[str, object],
) -> dict[str, object]:
    """The machine-readable probe outcomes."""
    return {
        "experiment": "E18",
        "description": "federation-wide telemetry: zonal hot-spot "
        "localization, per-region SLO burn alerting, and measured "
        "telemetry-on overhead at scale",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "hotspot": {
            "clients": CLIENTS,
            "dropped_total": hotspot["dropped"],
            "baseline_dropped": hotspot["_baseline_dropped"],
            "top_drop_cell": hotspot["top_cell"],
            "top_cell_drop_share": hotspot["share"],
            "top_cell_shed_rate": hotspot["shed"],
            "top_cell_mean_wait_ms": hotspot["wait_ms"],
            "global_p95_inflation": hotspot["p95_x"],
            "zones": hotspot["zones"],
            "fault_windows": hotspot["_fault_windows"],
            "baseline_snapshot_digest": hotspot["_baseline_snapshot_digest"],
            "snapshot_digest": hotspot["_snapshot_digest"],
        },
        "slo_burn": {
            "hit_region": burn["region"],
            "max_burn": burn["max_burn"],
            "alert_windows": burn["alerts"],
            "alert_window_indexes": burn["_alert_windows"],
            "burn_series": burn["_burn_series"],
            "quiet_region_max_burn": burn["quiet_max"],
            "baseline_max_burn": burn["base_max"],
            "fault_windows": burn["_fault_windows"],
            "baseline_snapshot_digest": burn["_baseline_snapshot_digest"],
            "snapshot_digest": burn["_snapshot_digest"],
        },
        "overhead": {
            "clients": overhead["clients"],
            "steps": overhead["_steps"],
            "records": overhead["records"],
            "windows_retained": overhead["windows"],
            "cells": overhead["cells"],
            "telemetry_transparent": overhead["transparent"],
            "snapshot_digest_on": overhead["_snapshot_digest_on"],
            "snapshot_digest_off": overhead["_snapshot_digest_off"],
        },
    }


def verify(
    hotspot: dict[str, object],
    burn: dict[str, object],
    overhead: dict[str, object],
) -> list[str]:
    """The three probe claims, checked against the measured outcomes."""
    failures: list[str] = []

    # Hot-spot: the crowd must shed, the shed must localize, and the
    # global tail must *not* give it away.
    if hotspot["dropped"] < 1:
        failures.append("flash crowd shed no load; nothing to localize")
    if hotspot["share"] < 0.9:
        failures.append(
            f"top cell holds only {hotspot['share']:.0%} of drops "
            "(zonal roll-up failed to localize the hot-spot)"
        )
    if not 0.95 <= hotspot["p95_x"] <= 1.05:
        failures.append(
            f"global p95 moved {hotspot['p95_x']:.2f}x under the crowd — "
            "the 'global histogram hides it' claim does not hold here"
        )
    if hotspot["_baseline_dropped"] != 0:
        failures.append("baseline run dropped requests; hot-spot probe polluted")
    if not hotspot["_fault_windows"]:
        failures.append("windows were not annotated with the flash-crowd fault")

    # SLO burn: the hit region alerts during the fault, nobody else does.
    if burn["alerts"] < 1:
        failures.append("regional partition fired no burn alerts")
    if burn["max_burn"] < ALERT_BURN_THRESHOLD:
        failures.append(
            f"max burn {burn['max_burn']:.1f}x never crossed the alert "
            f"threshold {ALERT_BURN_THRESHOLD:.0f}x"
        )
    if not set(burn["_alert_windows"]) <= set(burn["_fault_windows"]):
        failures.append("burn alerts fired outside the partition's windows")
    if burn["_quiet_alerts"]:
        failures.append("the unpartitioned region raised burn alerts")
    if burn["_baseline_alerts"]:
        failures.append("the fault-free baseline raised burn alerts")
    if burn["base_max"] >= ALERT_BURN_THRESHOLD:
        failures.append(
            f"baseline burn {burn['base_max']:.1f}x already crosses the "
            "alert threshold; the alert has no headroom"
        )

    # Overhead: telemetry must be transparent when off and cheap when on.
    if not overhead["transparent"]:
        failures.append(
            "telemetry-on snapshot minus telemetry.* keys differs from the "
            "telemetry-off snapshot (transparency broken)"
        )
    if overhead["records"] <= 0:
        failures.append("scale run recorded no telemetry")
    if overhead["windows"] < 1:
        failures.append("scale run retained no telemetry windows")
    if overhead["pct"] > OVERHEAD_CEILING_PCT:
        failures.append(
            f"telemetry-on overhead measured {overhead['pct']:.1f}%, over "
            f"the {OVERHEAD_CEILING_PCT:.0f}% ceiling"
        )
    return failures


def run(smoke: bool) -> tuple[dict[str, object], dict[str, object], dict[str, object]]:
    overhead_clients = SMOKE_OVERHEAD_CLIENTS if smoke else FULL_OVERHEAD_CLIENTS
    return run_hotspot(), run_slo_burn(), run_overhead(overhead_clients)


def ok(probes) -> str:
    hotspot, burn, overhead = probes
    return (
        f"zonal roll-up put {hotspot['share']:.0%} of shed load in cell "
        f"{hotspot['top_cell']} while global p95 moved {hotspot['p95_x']:.2f}x; "
        f"region {burn['region']} burned {burn['max_burn']:.1f}x budget with "
        f"{burn['alerts']} alert window(s); telemetry at {overhead['clients']:,} clients "
        f"is transparent when off and under the {OVERHEAD_CEILING_PCT:.0f}% ceiling when on"
    )


EXPERIMENT = Experiment(
    id="E18",
    doc=__doc__,
    run=run,
    tables=lambda probes: [
        ("E18 hot-spot localization", [probes[0]]),
        ("E18 SLO burn alerting", [probes[1]]),
        ("E18 telemetry overhead", [probes[2]]),
    ],
    verify=lambda probes: verify(*probes),
    # Determinism: the richest probe (queue shedding + zonal attribution +
    # fault-window annotation) must reproduce exactly.
    rerun=lambda probes: (probes[0]["_snapshot_digest"], run_hotspot()["_snapshot_digest"]),
    payload=lambda probes: payload(*probes),
    ok=ok,
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
