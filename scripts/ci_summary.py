#!/usr/bin/env python
"""Render the BENCH artifacts' headline numbers as a markdown summary.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` after the smoke stage, so
every run shows each registered experiment's headline numbers next to its
uploaded ``BENCH_eNN.json`` artifact without anyone downloading it.
Standalone use: ``python scripts/ci_summary.py``.  Column definitions and
regeneration commands for every table live in ``docs/BENCHMARKS.md``.

Which artifacts exist comes from ``benchmarks/registry.py``; experiment
``ENN`` is rendered by the function named ``eNN_summary`` below (``E00``,
the paper's E1–E12 + A1, by one generic renderer driven by its payload).

Rendering degrades gracefully: a missing or malformed artifact becomes a
note in the summary rather than a traceback that kills the whole step —
one corrupt benchmark file must never hide the other tables.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from registry import EXPERIMENTS, artifact_name  # noqa: E402


def e20_summary(payload: dict) -> list[str]:
    lines = [
        "## E20 — operator API: control ops as messages on the wire",
        "",
        "| transport | first-event lag (s) | mean lag (s) | timeouts | retransmits | tape retries | failed |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for mode in ("direct", "net-healthy", "net-lossy"):
        cell = payload.get("drain", {}).get(mode)
        if not cell:
            continue
        lines.append(
            "| {mode} | {first:.2f} | {mean:.2f} | {timeouts} | {rtx} "
            "| {retries} | {failed} |".format(
                mode=mode,
                first=cell.get("delivery_lag_first_s", 0.0),
                mean=cell.get("delivery_lag_mean_s", 0.0),
                timeouts=int(cell.get("timeouts", 0)),
                rtx=int(cell.get("retransmits", 0)),
                retries=int(cell.get("tape_retries", 0)),
                failed=int(cell.get("failed_requests", 0)),
            )
        )
    partition = payload.get("partition", {})
    if partition:
        lines += [
            "",
            "Partitioned operators: {winner} wins at audit seq {wseq}, loser "
            "seq {lseq} resolved as `{error}`; NXDOMAIN-free {nx}; replay "
            "digest match {match}.".format(
                winner=partition.get("winner", "?"),
                wseq=int(partition.get("winner_seq", 0)),
                lseq=int(partition.get("loser_seq", 0)),
                error=partition.get("loser_error", "?"),
                nx="yes" if partition.get("nxdomain_free") else "NO",
                match="yes"
                if partition.get("replay_digest") == partition.get("state_digest")
                else "NO",
            ),
        ]
    scaler = payload.get("autoscaler", {})
    if scaler:
        direct = scaler.get("direct", {})
        net = scaler.get("network", {})
        lines += [
            "",
            "Autoscaler reaction: first capacity action at "
            "{direct:.1f}s direct vs {net:.1f}s networked "
            "({dp}/{np} promotion(s)).".format(
                direct=direct.get("first_action_s", 0.0),
                net=net.get("first_action_s", 0.0),
                dp=int(direct.get("promotions", 0)),
                np=int(net.get("promotions", 0)),
            ),
        ]
    return lines


def e19_summary(payload: dict) -> list[str]:
    lines = [
        "## E19 — closed-loop autoscaling: elastic warm pool vs static provisioning",
        "",
        "| pattern | cell | attainment | replica-seconds | promotions | ramp steps | parks | flaps |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for pattern in ("flash", "diurnal"):
        cells = payload.get(pattern, {})
        for mode in ("static-lean", "auto", "static-over"):
            cell = cells.get(mode)
            if not cell:
                continue
            lines.append(
                "| {pattern} | {mode} | {att:.4f} | {cost:.0f} | {promos} "
                "| {ramps} | {parks} | {flaps} |".format(
                    pattern=pattern,
                    mode=mode,
                    att=cell.get("attainment", 0.0),
                    cost=cell.get("replica_seconds", 0.0),
                    promos=int(cell.get("promotions", 0)),
                    ramps=int(cell.get("ramp_steps", 0)),
                    parks=int(cell.get("parks", 0)),
                    flaps=int(cell.get("flaps", 0)),
                )
            )
    osc = payload.get("oscillation", {})
    if osc:
        lines += [
            "",
            "Stability cell (device TTL {dev:g}s / DNS TTL {dns:g}s): "
            "{changes} weight change(s) of ≤{cap} allowed, {flaps} flap(s), "
            "{promos} promotion(s), attainment {att:.4f}.".format(
                dev=osc.get("device_ttl_seconds", 0.0),
                dns=osc.get("dns_ttl_seconds", 0.0),
                changes=int(osc.get("weight_changes", 0)),
                cap=int(osc.get("max_weight_changes", 0)),
                flaps=int(osc.get("flaps", 0)),
                promos=int(osc.get("promotions", 0)),
                att=osc.get("attainment", 0.0),
            ),
        ]
    return lines


def e18_summary(payload: dict) -> list[str]:
    lines = [
        "## E18 — federation-wide telemetry: roll-ups, SLO burn, overhead",
        "",
        "| probe | headline |",
        "|---|---|",
    ]
    hotspot = payload.get("hotspot", {})
    if hotspot:
        lines.append(
            "| hot-spot localization | top cell {cell} holds {share:.0%} of drops; "
            "global p95 inflation {p95x:.2f}x |".format(
                cell=hotspot.get("top_drop_cell", "?"),
                share=hotspot.get("top_cell_drop_share", 0.0),
                p95x=hotspot.get("global_p95_inflation", 0.0),
            )
        )
    burn = payload.get("slo_burn", {})
    if burn:
        lines.append(
            "| SLO burn alerting | region {region} max burn {burn:.1f}x, "
            "{alerts} alert window(s); baseline max {base:.2f}x |".format(
                region=burn.get("hit_region", 0),
                burn=burn.get("max_burn", 0.0),
                alerts=int(burn.get("alert_windows", 0)),
                base=burn.get("baseline_max_burn", 0.0),
            )
        )
    overhead = payload.get("overhead", {})
    if overhead:
        lines.append(
            "| telemetry-on overhead | {clients} clients: {records:.0f} records into "
            "{windows} retained window(s); snapshot unchanged with telemetry off: {same} |".format(
                clients=int(overhead.get("clients", 0)),
                records=overhead.get("records", 0.0),
                windows=int(overhead.get("windows_retained", 0)),
                same="yes" if overhead.get("telemetry_transparent") else "NO",
            )
        )
    return lines


def e17_summary(payload: dict) -> list[str]:
    lines = [
        "## E17 — correlated disasters and graceful degradation",
        "",
        "| scenario | availability | failovers | degraded | stale serves | dropped | p95 inflation | in band |",
        "|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    for row in payload.get("scenarios", []):
        metrics = row.get("metrics", {})
        lines.append(
            "| {name} | {avail:.4f} | {failovers} | {degraded:.3f} | {stale} "
            "| {dropped} | {p95x:.2f} | {ok} |".format(
                name=row.get("name", "?"),
                avail=metrics.get("availability", 0.0),
                failovers=int(metrics.get("failovers", 0)),
                degraded=metrics.get("degraded_rate", 0.0),
                stale=int(metrics.get("stale_serves", 0)),
                dropped=int(metrics.get("dropped_requests", 0)),
                p95x=metrics.get("p95_inflation", 0.0),
                ok="yes" if not row.get("band_failures") else "NO",
            )
        )
    return lines


def e16_summary(payload: dict) -> list[str]:
    lines = [
        "## E16 — large-fleet scale on the cohort fast path",
        "",
        "| clients | tracers | requests | p50 (ms) | p99 (ms) | dropped | max utilization |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for row in payload.get("rows", []):
        latency = row.get("latency_ms", {})
        servers = row.get("servers", {})
        sampling = row.get("sampling", {})
        util_max = max(
            (stats.get("utilization", 0.0) for stats in servers.values()), default=0.0
        )
        lines.append(
            "| {clients} | {tracers} | {requests} | {p50:.1f} | {p99:.1f} "
            "| {dropped} | {util:.3f} |".format(
                clients=row.get("clients", 0),
                tracers=int(sampling.get("tracers", 0)),
                requests=row.get("requests", 0),
                p50=latency.get("p50", 0.0),
                p99=latency.get("p99", 0.0),
                dropped=row.get("dropped", 0),
                util=util_max,
            )
        )
    return lines


def e15_summary(payload: dict) -> list[str]:
    lines = [
        "## E15 — operator control plane: drains, convergence, warm standbys",
        "",
        "| cell | DNS TTL (s) | converged | converge p95 (s) | drained share | standby served | failed | stale |",
        "|---|---:|---|---:|---:|---:|---:|---:|",
    ]
    for row in payload.get("rows", []):
        control = row.get("control", {})
        tracked = int(control.get("devices_tracked", 0))
        converged = int(control.get("devices_converged", 0))
        lines.append(
            "| {cell} | {ttl:g} | {conv} | {p95:.1f} | {share:.3f} "
            "| {standby} | {failed} | {stale} |".format(
                cell=row.get("cell", "?"),
                ttl=row.get("dns_ttl_s", 0.0),
                conv=f"{converged}/{tracked}" if tracked else "—",
                p95=control.get("converge_p95_s", 0.0),
                share=row.get("drained_share", 0.0),
                standby=row.get("standby_arrivals", 0),
                failed=row.get("failed_requests", 0),
                stale=row.get("stale_attempts", 0),
            )
        )
    return lines


def e14_summary(payload: dict) -> list[str]:
    lines = [
        "## E14 — availability, failover and replica balancing",
        "",
        "| phase | selection | shared health | replicas | churn/min | failed rate | failover p95 (ms) | replica_load_cv | detect mean (ms) |",
        "|---|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for row in payload.get("rows", []):
        availability = row.get("availability", {})
        lines.append(
            "| {phase} | {selection} | {shared} | {replicas} | {churn:g} "
            "| {failed:.4f} | {p95:.1f} | {cv:.3f} | {detect:.1f} |".format(
                phase=row.get("phase", "churn"),
                selection=row.get("selection", "weighted"),
                shared="yes" if row.get("shared_health") else "no",
                replicas=row.get("replicas", 0),
                churn=row.get("churn_per_min", 0.0),
                failed=availability.get("failed_request_rate", 0.0),
                p95=availability.get("failover_p95_ms", 0.0),
                cv=row.get("replica_load_cv", 0.0),
                detect=availability.get("detect_mean_ms", 0.0),
            )
        )
    return lines


def e13_summary(payload: dict) -> list[str]:
    lines = [
        "## E13 — fleet sweep and server saturation",
        "",
        "| clients | cached | p50 (ms) | p99 (ms) | dropped | max utilization |",
        "|---:|---|---:|---:|---:|---:|",
    ]
    for row in payload.get("rows", []):
        latency = row.get("latency_ms", {})
        servers = row.get("servers", {})
        util_max = max(
            (stats.get("utilization", 0.0) for stats in servers.values()), default=0.0
        )
        lines.append(
            "| {clients} | {cached} | {p50:.1f} | {p99:.1f} | {dropped} | {util:.3f} |".format(
                clients=row.get("clients", 0),
                cached="yes" if row.get("cached") else "no",
                p50=latency.get("p50", 0.0),
                p99=latency.get("p99", 0.0),
                dropped=row.get("dropped", 0),
                util=util_max,
            )
        )
    return lines


def _natural(key: str) -> list:
    """Sort key under which digit runs compare as numbers: E2 < E10, 50 < 150."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", key)]


def e00_summary(payload: dict) -> list[str]:
    """Every table of the paper experiments, whatever its rows and columns:
    ``experiment -> table -> row -> column``.  JSON keeps neither row nor
    column order, so both are sorted here."""
    lines = ["## E00 — the paper's claims (E1–E12, A1)"]
    for experiment in sorted(payload, key=_natural):
        for name, table in payload[experiment].items():
            columns = sorted({column for row in table.values() for column in row})
            header = [f"| | {' | '.join(columns)} |", "|---|" + "---:|" * len(columns)]
            lines += ["", f"**{experiment} {name}**", "", *header]
            for label in sorted(table, key=_natural):
                cells = (table[label].get(column, "") for column in columns)
                shown = (f"{cell:g}" if isinstance(cell, float) else str(cell) for cell in cells)
                lines.append(f"| {label} | {' | '.join(shown)} |")
    return lines


RENDERERS = tuple(
    (artifact_name(experiment_id), globals()[f"{experiment_id.lower()}_summary"])
    for experiment_id in reversed(EXPERIMENTS)
)
"""``(artifact, renderer)`` per registered experiment, newest first."""


def summarize(root: Path) -> list[str]:
    """Render every artifact under ``root`` into one markdown document.

    Degrades gracefully instead of failing the CI summary step: a missing
    artifact becomes a "missing" note, a malformed one (invalid JSON, or a
    shape a renderer chokes on) becomes an "unreadable" note carrying the
    exception, and every *other* artifact still renders in full.
    """
    lines: list[str] = [
        "# Benchmark smoke headlines",
        "",
        "Column definitions, full-mode commands and byte-gate semantics: "
        "[docs/BENCHMARKS.md](docs/BENCHMARKS.md).",
        "",
    ]
    for name, render in RENDERERS:
        path = root / name
        if not path.is_file():
            lines += [f"## {name}", "", "_missing — smoke stage did not produce it_", ""]
            continue
        try:
            payload = json.loads(path.read_text())
            rendered = render(payload)
        except (OSError, ValueError, TypeError, AttributeError, KeyError) as exc:
            lines += [
                f"## {name}",
                "",
                f"_unreadable — {type(exc).__name__}: {exc}_",
                "",
            ]
            continue
        lines += rendered
        lines.append("")
    return lines


def main() -> int:
    print("\n".join(summarize(REPO_ROOT)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
