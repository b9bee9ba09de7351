"""The telemetry pipeline: windowed emission → bounded retention → queries.

The workload engine drives a :class:`TelemetryPipeline` through three
verbs, all at round boundaries (the same granularity at which churn,
control, and faults land):

* :meth:`TelemetryPipeline.record_request` — one client request's
  telemetry (covering cell, region, kind, latency, weight, outcome),
  called from the request path while a round runs;
* :meth:`TelemetryPipeline.observe_servers` — cumulative server-queue
  frames, diffed internally into per-window deltas (phantom cohort
  weights ride the queue's own accounting, so batch-charged load is
  visible per window too);
* :meth:`TelemetryPipeline.flush` — the round-boundary hook: annotates
  the open window with the fault families currently in force and seals it
  once the configured width has elapsed.  Windows therefore close at the
  first round boundary at or after ``window_seconds`` — the engine's
  round-granularity semantic, same as every other tape.

Retention is bounded: once more than :data:`MAX_WINDOWS` windows are held,
adjacent pairs are merged (halving the count, doubling each survivor's
span) — a million-client, thousand-round run keeps O(MAX_WINDOWS × keys)
memory and produces bounded output, at coarser temporal resolution for the
oldest data.  All queries (heatmaps, per-cell percentiles, zonal maps,
SLO burn) run over whatever windows survived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.telemetry.slo import SLOConfig, alert_windows, burn_series
from repro.telemetry.spatial import (
    cell_percentiles,
    demand_heatmap,
    server_zonal,
)
from repro.telemetry.windows import ServerWindowStats, TelemetryWindow

CELL_LEVEL = 18
"""Cell level request records are keyed at (the finest level any query can
roll up from; ~75 m of latitude — sub-building at city scale)."""

HEATMAP_LEVELS = (14, 16, 18)
"""Cell levels :meth:`TelemetryPipeline.demand_heatmap` reports."""

MAX_WINDOWS = 64
"""Retention bound: beyond this many sealed windows, adjacent ones merge
pairwise."""


@dataclass(frozen=True)
class TelemetryConfig:
    """Tunables of the telemetry pipeline for one run."""

    window_seconds: float = 60.0
    """Target emission-window width (simulated seconds).  Windows seal at
    the first round boundary at or after this much time has accumulated."""
    slo: SLOConfig = field(default_factory=SLOConfig)

    def __post_init__(self) -> None:
        # ``nan <= 0`` is false: a NaN width would pass a sign check and
        # leave one window open for the whole run.
        if not (0.0 < self.window_seconds < math.inf):
            raise ValueError(f"window_seconds must be finite and > 0, got {self.window_seconds}")


_FRAME_FIELDS = ("arrivals", "served", "dropped", "wait_ms", "busy_ms")

_GAUGE_FIELDS = ("workers",)
"""Frame fields carried as gauges: the latest value is kept per window
instead of diffing against the baseline (diffing a constant would yield 0)."""


@dataclass
class TelemetryPipeline:
    """Collects windowed telemetry for one run and answers roll-up queries."""

    config: TelemetryConfig = field(default_factory=TelemetryConfig)
    server_cells: dict[str, tuple[str, ...]] = field(default_factory=dict)
    """Server id → covering-cell tokens its discovery registration
    advertises (the zones :meth:`server_zonal` attributes queue load to)."""
    windows: list[TelemetryWindow] = field(default_factory=list)
    records: float = 0.0
    """Weighted request records emitted over the whole run."""
    _open: TelemetryWindow | None = field(default=None, repr=False)
    _next_index: int = 0
    _server_baseline: dict[str, dict[str, float]] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Emission (engine-facing)
    # ------------------------------------------------------------------
    def begin(
        self, now_seconds: float, frames: Mapping[str, dict[str, object]] | None = None
    ) -> None:
        """Open the first window; idempotent so repeated runs don't reset.

        ``frames`` primes the per-server diff baselines, so queue activity
        that predates the run is never attributed to the first window.
        """
        if self._open is None:
            self._open = TelemetryWindow(
                index=self._next_index, start_seconds=now_seconds, end_seconds=now_seconds
            )
            self._next_index += 1
            if frames:
                for server_id in sorted(frames):
                    self._store_baseline(server_id, frames[server_id])

    def _store_baseline(self, server_id: str, frame: Mapping[str, object]) -> None:
        kinds: dict[str, float] = dict(frame.get("kinds", {}))
        self._server_baseline[server_id] = {
            **{name: float(frame.get(name, 0.0)) for name in _FRAME_FIELDS},
            "kinds": {kind: float(count) for kind, count in kinds.items()},
        }

    def record_request(
        self,
        cell: str,
        region: int,
        kind: str,
        latency_ms: float,
        weight: float = 1.0,
        ok: bool = True,
        degraded: bool = False,
    ) -> None:
        """Record one client request (weighted: a cohort tracer records on
        behalf of its whole phantom share)."""
        if self._open is None:
            raise RuntimeError("telemetry pipeline used before begin()")
        slow = ok and latency_ms > self.config.slo.latency_ms
        self._open.record(cell, region, kind, latency_ms, weight, ok, degraded, slow)
        self.records += weight

    def observe_servers(self, frames: Mapping[str, dict[str, object]]) -> None:
        """Fold cumulative server-queue frames into the open window.

        Frames are cumulative (the queue's lifetime accounting); the
        pipeline keeps the previous frame per server and attributes only
        the delta to the open window, so the queue hot path stays untouched
        by telemetry.
        """
        if self._open is None:
            raise RuntimeError("telemetry pipeline used before begin()")
        for server_id in sorted(frames):
            frame = frames[server_id]
            baseline = self._server_baseline.get(server_id, {})
            delta = ServerWindowStats()
            for name in _FRAME_FIELDS:
                value = float(frame.get(name, 0.0)) - float(baseline.get(name, 0.0))
                setattr(delta, name, value)
            for name in _GAUGE_FIELDS:
                setattr(delta, name, float(frame.get(name, 0.0)))
            kinds: dict[str, float] = dict(frame.get("kinds", {}))
            base_kinds: dict[str, float] = baseline.get("kinds", {})
            for kind in sorted(kinds):
                kind_delta = float(kinds[kind]) - float(base_kinds.get(kind, 0.0))
                if kind_delta:
                    delta.kinds[kind] = kind_delta
            self._store_baseline(server_id, frame)
            if delta.arrivals or delta.served or delta.dropped or delta.busy_ms:
                window_stats = self._open.servers.get(server_id)
                if window_stats is None:
                    self._open.servers[server_id] = delta
                else:
                    window_stats.merge_from(delta)

    def flush(self, now_seconds: float, faults_active: tuple[str, ...] = ()) -> None:
        """Round-boundary hook: annotate faults, seal the window when due."""
        if self._open is None:
            raise RuntimeError("telemetry pipeline used before begin()")
        if faults_active:
            self._open.faults_active = tuple(
                sorted(set(self._open.faults_active) | set(faults_active))
            )
        if now_seconds >= self._open.start_seconds + self.config.window_seconds:
            self._seal(now_seconds)

    def finalize(self, now_seconds: float) -> None:
        """Seal a non-empty trailing partial window at end of run."""
        if self._open is None:
            return
        if self._open.cells or self._open.servers or self._open.faults_active:
            self._seal(now_seconds)

    def _seal(self, now_seconds: float) -> None:
        assert self._open is not None
        self._open.end_seconds = now_seconds
        self.windows.append(self._open)
        self._open = TelemetryWindow(
            index=self._next_index, start_seconds=now_seconds, end_seconds=now_seconds
        )
        self._next_index += 1
        while len(self.windows) > MAX_WINDOWS:
            merged: list[TelemetryWindow] = []
            for position in range(0, len(self.windows) - 1, 2):
                first, second = self.windows[position], self.windows[position + 1]
                first.merge_from(second)
                merged.append(first)
            if len(self.windows) % 2:
                merged.append(self.windows[-1])
            self.windows = merged

    # ------------------------------------------------------------------
    # Queries (post-run)
    # ------------------------------------------------------------------
    def demand_heatmap(self, levels: tuple[int, ...] = HEATMAP_LEVELS) -> dict[int, dict[str, float]]:
        """Weighted demand per cell per level."""
        return demand_heatmap(self.windows, levels)

    def cell_rollup(self, level: int = CELL_LEVEL) -> dict[str, dict[str, float]]:
        """Per-cell demand + p50/p95 at one level (default: finest)."""
        return cell_percentiles(self.windows, level)

    def server_zonal(self, level: int = CELL_LEVEL) -> dict[str, dict[str, float]]:
        """Queue-wait/shed-rate zonal map over servers' covering cells."""
        return server_zonal(self.windows, self.server_cells, level)

    def regions(self) -> tuple[int, ...]:
        return tuple(sorted({region for w in self.windows for region in w.regions}))

    def burn_series(self, region: int) -> list[float]:
        """Per-window SLO burn rate for one client region."""
        return burn_series(self.windows, region, self.config.slo)

    def alert_windows(self, region: int) -> list[int]:
        """Window indices whose burn reached the alert threshold."""
        return alert_windows(self.windows, region, self.config.slo)

    def fault_windows(self) -> dict[str, list[int]]:
        """Fault family → indices of windows it was in force during."""
        families: dict[str, list[int]] = {}
        for window in self.windows:
            for family in window.faults_active:
                families.setdefault(family, []).append(window.index)
        return families

    def summary(self) -> dict[str, float]:
        """Bounded headline floats for ``WorkloadReport.snapshot``."""
        cells = {key[0] for w in self.windows for key in w.cells}
        return {"windows": float(len(self.windows)), "records": self.records, "cells": float(len(cells))}
