"""E17 — correlated disasters: fault injection and graceful degradation.

E14 measures availability under *independent* churn (one server crashes,
one lease expires).  Production federations are judged on the *correlated*
failures: a region loses its uplink, a DNS authority goes dark, a stadium
fills, a bad kernel rolls across a replica fleet.  This experiment runs
the named disaster library (:mod:`repro.faults.scenarios`) — each scenario
twice, fault-free baseline and faulted — and checks every scenario's
measured availability/latency/degradation metrics against its acceptance
bands:

* **regional-outage** — replica 0 of every store partitioned for 100s;
  failed-request rate must stay within the baseline envelope because
  clients fail over to replica 1 (``failovers`` must engage).
* **stadium-flash-crowd** — external search load past queue capacity on
  store 0; the overload must shed server-side (``dropped_requests``)
  without collapsing fleet availability.
* **authority-outage** — discovery DNS dark for 120s; warm devices must
  coast on stale-while-unreachable cached SRV views (``stale_serves`` and
  ``degraded_rate`` must engage), bounded by ``stale_serve_max_ms``.
* **asymmetric-partition** — region 0 loses a replica while operators
  drain the healthy one; region-0 clients must still find service.
* **rolling-gray** — 12x latency + 35% loss marching across replica
  ranks; bounded retransmits keep requests succeeding at inflated p95.

Runs through ``harness.main``: ``--smoke`` is the sweep whose output *is* the
committed, byte-gated ``BENCH_e17.json``; no flag runs the same scenarios
with a larger fleet.
"""

from __future__ import annotations

import dataclasses

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from repro.faults.scenarios import (
    SCENARIOS,
    WORKLOAD_SEED,
    WORLD_SEED,
    DisasterSpec,
    check_bands,
    scenario_metrics,
)
from repro.workload import WorkloadEngine

FULL_CLIENTS = 60
"""Fleet size of the full sweep (the smoke sweep uses each scenario's own
``clients``, which is what the committed bands are calibrated against)."""


def run_disaster(spec: DisasterSpec, clients: int | None = None) -> dict[str, object]:
    """Run one scenario's baseline + faulted pair and fold the metrics."""
    if clients is not None:
        spec = dataclasses.replace(spec, clients=clients)
    baseline_world = spec.build()
    baseline = WorkloadEngine(
        baseline_world, spec.workload(baseline_world, faulted=False)
    ).run()
    faulted_world = spec.build()
    faulted = WorkloadEngine(
        faulted_world, spec.workload(faulted_world, faulted=True)
    ).run()
    metrics = scenario_metrics(baseline, faulted)
    return {
        "scenario": spec.name,
        "requests": faulted.requests + faulted.errors,
        "avail": metrics["availability"],
        "base_fail": metrics["baseline_failed_rate"],
        "fail_rate": metrics["failed_rate"],
        "failovers": int(metrics["failovers"]),
        "degraded": metrics["degraded_rate"],
        "stale": int(metrics["stale_serves"]),
        "dropped": int(metrics["dropped_requests"]),
        "p95_x": metrics["p95_inflation"],
        "events": int(metrics["events_applied"]),
        # Carried for the JSON artifact (dropped from the printed table).
        "_title": spec.title,
        "_clients": spec.clients,
        "_metrics": metrics,
        "_bands": {
            name: list(band) for name, band in sorted(spec.bands.items())
        },
        "_band_failures": check_bands(spec, metrics),
        "_baseline_snapshot_digest": digest(baseline.snapshot()),
        "_snapshot_digest": digest(faulted.snapshot()),
        "_simulated_seconds": faulted.simulated_seconds,
    }


def sweep(clients: int | None = None) -> list[dict[str, object]]:
    return [run_disaster(spec, clients) for spec in SCENARIOS]


def payload(rows: list[dict[str, object]]) -> dict[str, object]:
    """The machine-readable disaster outcomes + acceptance bands."""
    return {
        "experiment": "E17",
        "description": "correlated-disaster scenario library: availability "
        "and graceful degradation under fault injection",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "scenarios": [
            {
                "name": row["scenario"],
                "title": row["_title"],
                "clients": row["_clients"],
                "requests": row["requests"],
                "metrics": row["_metrics"],
                "bands": row["_bands"],
                "band_failures": row["_band_failures"],
                "baseline_snapshot_digest": row["_baseline_snapshot_digest"],
                "snapshot_digest": row["_snapshot_digest"],
                # Deliberately no wall-clock fields: the artifact must be
                # byte-identical across runs (check.sh enforces it).
                "simulated_seconds": row["_simulated_seconds"],
            }
            for row in rows
        ],
    }


def verify(rows: list[dict[str, object]]) -> list[str]:
    """Every scenario's band violations, plus cross-scenario claims."""
    failures: list[str] = []
    for row in rows:
        failures.extend(row["_band_failures"])
    by_name = {row["scenario"]: row for row in rows}

    # The disaster library must cover every fault family the subsystem
    # models: partitions must force failovers, crowds must shed load,
    # authority outages must degrade gracefully, gray must inflate tails.
    outage = by_name.get("regional-outage")
    if outage is not None and outage["failovers"] < 1:
        failures.append("regional outage engaged no failovers")
    crowd = by_name.get("stadium-flash-crowd")
    if crowd is not None and crowd["dropped"] < 1:
        failures.append("flash crowd shed no load")
    authority = by_name.get("authority-outage")
    if authority is not None:
        if authority["stale"] < 1:
            failures.append("authority outage served nothing stale")
        if authority["degraded"] <= 0.0:
            failures.append("authority outage degraded no requests")
    gray = by_name.get("rolling-gray")
    if gray is not None and gray["p95_x"] <= 1.0:
        failures.append("rolling gray failure did not inflate tail latency")
    return failures


def rerun(rows: list[dict[str, object]]) -> tuple[str, str]:
    """Determinism: the richest scenario (authority outage: DNS timeouts,
    stale serving, degraded accounting) must reproduce exactly."""
    reference = rows[2]
    repeat = run_disaster(SCENARIOS[2], clients=reference["_clients"])
    return reference["_snapshot_digest"], repeat["_snapshot_digest"]


EXPERIMENT = Experiment(
    id="E17",
    doc=__doc__,
    run=lambda smoke: sweep(clients=None if smoke else FULL_CLIENTS),
    tables=lambda rows: [("E17 correlated disasters (baseline vs faulted)", rows)],
    verify=verify,
    rerun=rerun,
    payload=payload,
    ok=lambda rows: f"all {len(rows)} disasters stayed inside their acceptance bands — failover under "
    "partitions, load shedding under crowds, stale-serve degradation under authority outage",
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
